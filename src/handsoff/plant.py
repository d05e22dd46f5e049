"""LTI plant models, exact zero-order-hold discretization, and reachability.

The continuous plant is ``dx/dt = A x + B u`` with ``x`` in R^n and ``u`` in
R^m.  Controls are sampled on a uniform grid of N intervals of width
``h = T / N`` and held constant over each interval (zero-order hold), which
makes the discrete map ``x[k+1] = Ad x[k] + Bd u[k]`` exact.

Conventions used throughout the package:

* ``ControlTrajectory`` stores one control sample per interval, shape (N, m);
  sample k applies on ``[k*h, (k+1)*h)``.
* ``simulate`` returns the N+1 grid states as an array of shape (N+1, n);
  row k is x(k*h).
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
    "expm",
    "discretize",
    "simulate",
    "reachability_matrix",
    "controllability_gramian",
    "hautus_test",
    "min_energy_closed_form",
]

MODES = ("L1", "L1L2", "L2")
# the Hautus test: a pair is uncontrollable when [A - mu I, B] has a singular
# value below this share of its largest at an eigenvalue mu
_HAUTUS = 1e-9


def _as_float_array(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _initial_state(x0, n: int) -> np.ndarray:
    """``x0`` as a flat float vector, checked finite and of length ``n``."""
    x0 = _as_float_array(x0, "x0").reshape(-1)
    if x0.shape[0] != n:
        raise ValueError(f"x0 must have length {n}, got {x0.shape[0]}")
    return x0


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
        x0 = _initial_state(self.x0, self.plant.n)
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")
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


def simulate(plant: LtiPlant, x0, control: ControlTrajectory) -> np.ndarray:
    """Grid states of ``x[k+1] = Ad x[k] + Bd u[k]`` from ``x0`` under ``control``.

    Returns the (N+1, n) array whose row k is ``x(k*h)``; raises
    ``ValueError`` when a state is not finite (the plant overflowed).

    Loop-free: with ``y[0] = x0`` and ``y[k+1] = Bd u[k]``, the states are the
    prefix sums ``x[k] = sum_{j <= k} Ad^(k-j) y[j]``, taken as a log-depth
    scan ``y[d:] += y[:-d] Ad^d'`` for ``d = 1, 2, 4, ...`` (one batched
    product and one squaring of ``Ad`` per doubling of ``d``).
    """
    x0 = _initial_state(x0, plant.n)
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
    return _as_float_array(states, "states")


def reachability_matrix(
    ad: np.ndarray, bd: np.ndarray, n_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """N-step reachability map and free response.

    Returns ``(phi, free)`` with ``phi = [Ad^(N-1) Bd, ..., Ad Bd, Bd]`` of
    shape (n, m*N) acting on sample-major stacked controls, and
    ``free = Ad^N`` mapping the initial state to its unforced terminal state,
    so that ``x[N] = free @ x0 + phi @ vec(U)``.  Loop-free: the blocks
    ``Ad^k Bd`` come from ceil(log2 N) products, each mapping every block
    filled so far by the next squared power ``Ad^(2^j)``.  ``free`` is the
    product of the squares at the bits of N, in the order of
    ``np.linalg.matrix_power`` and so bit for bit its result.
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
    # the left are Ad^filled times the last `step`, in the same order.  Each
    # square Ad^(2^j) at a bit of N joins free on the right
    phi = np.empty((n, m * n_steps))
    phi[:, -m:] = bd
    square = ad
    filled = 1
    free = ad if n_steps % 2 else None
    while filled < n_steps:
        step = min(filled, n_steps - filled)
        end = m * (n_steps - filled)
        np.matmul(square, phi[:, m * (n_steps - step) :], out=phi[:, end - m * step : end])
        if 2 * filled <= n_steps:
            square = square @ square
            if n_steps & (2 * filled):
                free = square if free is None else free @ square
        filled += step
    if n_steps == 3:
        free = square @ ad  # matrix_power's shortcut for N = 3
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


def hautus_test(plant: LtiPlant) -> None:
    """Raise ``numpy.linalg.LinAlgError`` unless the pair (A, B) is controllable.

    The Hautus test (M. L. J. Hautus, Indag. Math. 31, 1969): the pair is
    controllable iff ``[A - mu I, B]`` has full row rank at every eigenvalue
    ``mu`` of A.  Rank deficient means a smallest singular value at most
    ``_HAUTUS`` of the largest; the message names that ``mu``.
    """
    eigvals = np.linalg.eigvals(plant.a.T)
    shifted = plant.a - eigvals[:, None, None] * np.eye(plant.n)
    inputs = np.broadcast_to(plant.b, (plant.n, *plant.b.shape))
    # the n SVDs in one batched call, half the time of a loop over mu
    sv = np.linalg.svd(np.concatenate([shifted, inputs], 2), compute_uv=False)
    for mu, s in zip(eigvals, sv):
        if not s[-1] > _HAUTUS * s[0]:
            raise np.linalg.LinAlgError(
                f"[A - mu I, B] is singular at the eigenvalue mu = {mu:.6g}; "
                "the pair (A, B) is uncontrollable"
            )


def min_energy_closed_form(
    plant: LtiPlant, x0, horizon: float, n_steps: int
) -> ControlTrajectory:
    """Minimum-energy control driving ``x0`` to the origin, sampled on the grid.

    The continuous optimum is ``u(t) = -B' exp(A'(T-t)) W_T^{-1} exp(A T) x0``;
    it is sampled at interval midpoints so that its zero-order-hold playback
    tracks the continuous solution to second order in the step.  Raises
    ``numpy.linalg.LinAlgError`` for a pair that fails ``hautus_test``, and
    for a controllable pair whose Gramian over ``horizon`` is too ill
    conditioned to invert: its smallest eigenvalue at most 1e-12 of the
    largest (or of 1).
    """
    x0 = _initial_state(x0, plant.n)
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if not n_steps >= 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    hautus_test(plant)
    w = controllability_gramian(plant, horizon)
    eigs = np.linalg.eigvalsh(w)
    if eigs[0] <= 1e-12 * max(1.0, eigs[-1]):
        raise np.linalg.LinAlgError(
            f"the Gramian over T = {horizon:.6g} has eigenvalue ratio "
            f"{eigs[0] / max(1.0, eigs[-1]):.3g} <= 1e-12; the minimum-energy "
            "closed form cannot invert it at this horizon"
        )
    eta = np.linalg.solve(w, expm(plant.a * horizon) @ x0)
    h = horizon / n_steps
    # column block k is exp(A (T - (k + 1/2) h)) B = Ad^(N-1-k) exp(A h/2) B
    maps, _ = reachability_matrix(
        expm(plant.a * h), expm(plant.a * (0.5 * h)) @ plant.b, n_steps
    )
    u = -(maps.T @ eta).reshape(n_steps, plant.m)
    return ControlTrajectory(h=h, u=u)
