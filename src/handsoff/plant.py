"""LTI plant models, exact zero-order-hold discretization, and reachability.

The continuous plant is ``dx/dt = A x + B u`` with ``x`` in R^n and ``u`` in
R^m.  Controls are sampled on a uniform grid of N intervals of width
``h = T / N`` and held constant over each interval (zero-order hold), which
makes the discrete map ``x[k+1] = Ad x[k] + Bd u[k]`` exact.

Conventions used throughout the package:

* ``ControlTrajectory`` stores one control sample per interval, shape (N, m);
  sample k applies on ``[k*h, (k+1)*h)``.
* ``StateTrajectory`` stores the N+1 grid states, shape (N+1, n).
* Stacked controls are ordered sample-major, ``vec(U) = [u[0]; u[1]; ...]``,
  matching the reachability matrix ``[Ad^(N-1) Bd, ..., Ad Bd, Bd]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "MODES",
    "LtiPlant",
    "ControlProblem",
    "ControlTrajectory",
    "StateTrajectory",
    "expm",
    "discretize",
    "simulate",
    "reachability_matrix",
    "controllability_gramian",
    "min_energy_closed_form",
]

MODES = ("L1", "L1L2", "L2")


def _as_float_array(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class LtiPlant:
    """Continuous-time linear plant ``dx/dt = A x + B u``.

    ``a`` is the n-by-n state matrix, ``b`` the n-by-m input matrix.  A
    one-dimensional ``b`` of length n is promoted to a single input column.
    Instances are immutable and safe to share.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a = _as_float_array(self.a, "a")
        b = _as_float_array(self.b, "b")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"a must be square, got shape {a.shape}")
        if b.ndim == 1:
            b = b[:, None]
        if b.ndim != 2 or b.shape[0] != a.shape[0]:
            raise ValueError(f"b must have {a.shape[0]} rows, got shape {b.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]


@dataclass(frozen=True)
class ControlTrajectory:
    """Sampled control on a uniform grid: sample k holds on ``[k*h, (k+1)*h)``."""

    h: float
    u: np.ndarray

    def __post_init__(self) -> None:
        if not self.h > 0.0:
            raise ValueError(f"h must be positive, got {self.h}")
        u = _as_float_array(self.u, "u")
        if u.ndim == 1:
            u = u[:, None]
        if u.ndim != 2 or u.shape[0] < 1:
            raise ValueError(f"u must be a (N, m) array with N >= 1, got shape {u.shape}")
        object.__setattr__(self, "u", u)

    @property
    def n_steps(self) -> int:
        return self.u.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.u.shape[1]

    @property
    def duration(self) -> float:
        return self.n_steps * self.h

    def times(self) -> np.ndarray:
        """Start time of each hold interval."""
        return self.h * np.arange(self.n_steps)


@dataclass(frozen=True)
class StateTrajectory:
    """Grid states of a simulated plant, shape (N+1, n); row k is x(k*h)."""

    h: float
    states: np.ndarray

    def __post_init__(self) -> None:
        if not self.h > 0.0:
            raise ValueError(f"h must be positive, got {self.h}")
        states = _as_float_array(self.states, "states")
        if states.ndim != 2 or states.shape[0] < 2:
            raise ValueError(f"states must be (N+1, n) with N >= 1, got shape {states.shape}")
        object.__setattr__(self, "states", states)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def times(self) -> np.ndarray:
        return self.h * np.arange(self.states.shape[0])


@dataclass(frozen=True)
class ControlProblem:
    """Steer ``plant`` from ``x0`` to the origin over ``[0, T]`` with ``|u_i| <= 1``.

    ``lam`` and ``r`` are per-channel weights of the L1 and quadratic control
    costs; scalars broadcast to all channels.  ``mode`` selects the objective:
    "L1" (sparsity), "L1L2" (sparsity plus smoothing quadratic), or "L2"
    (control energy).  ``N`` is the number of hold intervals of the control
    grid, ``h = T / N``.
    """

    plant: LtiPlant
    x0: np.ndarray
    T: float
    N: int
    lam: np.ndarray = 1.0
    r: np.ndarray = 0.0
    mode: str = "L1"

    def __post_init__(self) -> None:
        x0 = _as_float_array(self.x0, "x0").reshape(-1)
        if x0.shape[0] != self.plant.n:
            raise ValueError(f"x0 must have length {self.plant.n}, got {x0.shape[0]}")
        if not self.T > 0.0:
            raise ValueError(f"T must be positive, got {self.T}")
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 1):
            raise ValueError(f"N must be an integer >= 1, got {self.N}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        lam = np.broadcast_to(_as_float_array(self.lam, "lam"), (self.plant.m,)).copy()
        r = np.broadcast_to(_as_float_array(self.r, "r"), (self.plant.m,)).copy()
        if np.any(lam < 0.0) or np.any(r < 0.0):
            raise ValueError("lam and r must be nonnegative")
        if self.mode in ("L1", "L1L2") and not np.all(lam > 0.0):
            raise ValueError(f"mode {self.mode} requires lam > 0 on every channel")
        if self.mode in ("L1L2", "L2") and not np.all(r > 0.0):
            raise ValueError(f"mode {self.mode} requires r > 0 on every channel")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "T", float(self.T))

    @property
    def h(self) -> float:
        return self.T / self.N


def expm(m) -> np.ndarray:
    """Matrix exponential of a square matrix (Pade with scaling and squaring)."""
    m = _as_float_array(m, "m")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    return scipy.linalg.expm(m)


def discretize(plant: LtiPlant, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold pair ``(Ad, Bd)`` for step ``h``.

    ``Ad = exp(A h)`` and ``Bd = integral_0^h exp(A s) ds  B``, both read off a
    single exponential of the augmented block matrix ``[[A, B], [0, 0]] * h``.
    """
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h}")
    n, m = plant.n, plant.m
    block = np.zeros((n + m, n + m))
    block[:n, :n] = plant.a * h
    block[:n, n:] = plant.b * h
    e = expm(block)
    return e[:n, :n], e[:n, n:]


def simulate(plant: LtiPlant, x0, control: ControlTrajectory) -> StateTrajectory:
    """Propagate ``x[k+1] = Ad x[k] + Bd u[k]`` from ``x0`` under ``control``.

    Loop-free: with ``y[0] = x0`` and ``y[k+1] = Bd u[k]``, the states are the
    prefix sums ``x[k] = sum_{j <= k} Ad^(k-j) y[j]``, taken as a log-depth
    scan ``y[d:] += y[:-d] Ad^d'`` for ``d = 1, 2, 4, ...`` (one batched
    product and one squaring of ``Ad`` per doubling of ``d``).
    """
    x0 = _as_float_array(x0, "x0").reshape(-1)
    if x0.shape[0] != plant.n:
        raise ValueError(f"x0 must have length {plant.n}, got {x0.shape[0]}")
    if control.n_inputs != plant.m:
        raise ValueError(
            f"control has {control.n_inputs} channels, plant expects {plant.m}"
        )
    ad, bd = discretize(plant, control.h)
    states = np.empty((control.n_steps + 1, plant.n))
    states[0] = x0
    states[1:] = control.u @ bd.T
    power = ad
    d = 1
    while d < states.shape[0]:
        # the right side is evaluated before the in-place add, so every row
        # takes the sums of the previous round
        states[d:] += states[:-d] @ power.T
        power = power @ power
        d *= 2
    return StateTrajectory(h=control.h, states=states)


def reachability_matrix(
    ad: np.ndarray, bd: np.ndarray, n_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """N-step reachability map and free response.

    Returns ``(phi, free)`` with ``phi = [Ad^(N-1) Bd, ..., Ad Bd, Bd]`` of
    shape (n, m*N) acting on sample-major stacked controls, and
    ``free = Ad^N`` mapping the initial state to its unforced terminal state,
    so that ``x[N] = free @ x0 + phi @ vec(U)``.  Loop-free: the blocks
    ``Ad^k Bd`` come from ceil(log2 N) products, each mapping every block
    filled so far by the next squared power ``Ad^(2^j)``.
    """
    ad = _as_float_array(ad, "ad")
    bd = _as_float_array(bd, "bd")
    if ad.ndim != 2 or ad.shape[0] != ad.shape[1]:
        raise ValueError(f"ad must be square, got shape {ad.shape}")
    if bd.ndim == 1:
        bd = bd[:, None]
    if bd.shape[0] != ad.shape[0]:
        raise ValueError(f"bd must have {ad.shape[0]} rows, got shape {bd.shape}")
    if not n_steps >= 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    n, m = bd.shape
    # the last `filled` blocks hold Ad^k Bd for k < filled; the next ones to
    # the left are Ad^filled times the last `step`, in the same order
    phi = np.empty((n, m * n_steps))
    phi[:, -m:] = bd
    square = ad
    filled = 1
    while filled < n_steps:
        step = min(filled, n_steps - filled)
        end = m * (n_steps - filled)
        np.matmul(square, phi[:, m * (n_steps - step) :], out=phi[:, end - m * step : end])
        square = square @ square
        filled += step
    free = np.linalg.matrix_power(ad, n_steps)
    return phi, free


def controllability_gramian(plant: LtiPlant, horizon: float) -> np.ndarray:
    """Finite-horizon controllability Gramian ``integral_0^T exp(At) B B' exp(A't) dt``.

    Evaluated exactly from one augmented exponential: with
    ``M = [[-A, B B'], [0, A']] * T``, the blocks of ``exp(M)`` give
    ``W = F2' G1`` where ``G1`` is the upper-right and ``F2`` the lower-right
    block.
    """
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    n = plant.n
    q = plant.b @ plant.b.T
    m = np.zeros((2 * n, 2 * n))
    m[:n, :n] = -plant.a
    m[:n, n:] = q
    m[n:, n:] = plant.a.T
    e = expm(m * horizon)
    w = e[n:, n:].T @ e[:n, n:]
    # symmetrize away round-off
    return 0.5 * (w + w.T)


def _require_controllable(gram: np.ndarray, consequence: str) -> None:
    """Raise ``numpy.linalg.LinAlgError`` when the Gramian ``gram`` is singular.

    Singular means a smallest eigenvalue at most 1e-12 of the largest (or of
    1); ``consequence`` ends the message.
    """
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= 1e-12 * max(1.0, eigs[-1]):
        raise np.linalg.LinAlgError(f"controllability Gramian is singular; {consequence}")


def min_energy_closed_form(
    plant: LtiPlant, x0, horizon: float, n_steps: int
) -> ControlTrajectory:
    """Minimum-energy control driving ``x0`` to the origin, sampled on the grid.

    The continuous optimum is ``u(t) = -B' exp(A'(T-t)) W_T^{-1} exp(A T) x0``;
    it is sampled at interval midpoints so that its zero-order-hold playback
    tracks the continuous solution to second order in the step.  Raises
    ``numpy.linalg.LinAlgError`` when the controllability Gramian is singular
    (uncontrollable pair).
    """
    x0 = _as_float_array(x0, "x0").reshape(-1)
    if x0.shape[0] != plant.n:
        raise ValueError(f"x0 must have length {plant.n}, got {x0.shape[0]}")
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if not n_steps >= 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    w = controllability_gramian(plant, horizon)
    _require_controllable(w, "the pair (A, B) is not controllable")
    eta = np.linalg.solve(w, expm(plant.a * horizon) @ x0)
    h = horizon / n_steps
    # column block k is exp(A (T - (k + 1/2) h)) B = Ad^(N-1-k) exp(A h/2) B
    maps, _ = reachability_matrix(
        expm(plant.a * h), expm(plant.a * (0.5 * h)) @ plant.b, n_steps
    )
    u = -(maps.T @ eta).reshape(n_steps, plant.m)
    return ControlTrajectory(h=h, u=u)
