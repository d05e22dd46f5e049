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

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

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
    if not np.isfinite(arr).all():
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


def _load_pade_kernel():
    """``(pick_pade_structure, pade_UV_calc)``, the compiled Pade kernel of
    ``scipy.linalg.expm``, or None when it is not found.

    The kernel is scipy's module ``scipy.linalg._matfuncs_expm``: taken from
    ``sys.modules`` when ``scipy.linalg`` has loaded it already, else loaded
    alone from its file, as ``handsoff._matfuncs_expm``, so that no other
    scipy module loads (``scipy.linalg`` itself takes longer to import than
    the rest of a CLI call).

    The steps around the kernel (``_pade_expm``) are those of the scipy
    releases whose ``pick_pade_structure`` scales its input itself and whose
    ``pade_UV_calc`` takes ``(Am, m)``; older ones differ.  So the kernel is
    kept only when ``_pade_expm`` runs with it and returns the rotation
    ``exp([[0, -8], [8, 0]])``, which needs scaling, to within 1e-10.
    """
    module = sys.modules.get("scipy.linalg._matfuncs_expm")
    if module is None:
        try:
            spec = importlib.util.find_spec("scipy")
            folder = os.path.join(spec.submodule_search_locations[0], "linalg")
            for suffix in importlib.machinery.EXTENSION_SUFFIXES:
                path = os.path.join(folder, "_matfuncs_expm" + suffix)
                if os.path.isfile(path):
                    spec = importlib.util.spec_from_file_location("handsoff._matfuncs_expm", path)
                    module = importlib.util.module_from_spec(spec)
                    spec.loader.exec_module(module)
                    break
        except (ImportError, OSError, AttributeError, TypeError):
            module = None
    try:
        kernel = module.pick_pade_structure, module.pade_UV_calc
        e = _pade_expm(np.array([[0.0, -8.0], [8.0, 0.0]]), kernel)
    except Exception:
        return None
    rotation = np.array([[np.cos(8.0), -np.sin(8.0)], [np.sin(8.0), np.cos(8.0)]])
    return kernel if np.abs(e - rotation).max() < 1e-10 else None


def _exp_sinch(x):
    """``(exp(x[k+1]) - exp(x[k])) / (x[k+1] - x[k])``, or ``exp(x[k])`` where
    the two are equal: Higham's formula (10.42), as ``scipy.linalg.expm``
    evaluates it."""
    lexp_diff = np.diff(np.exp(x))
    l_diff = np.diff(x)
    mask_z = l_diff == 0.0
    lexp_diff[~mask_z] /= l_diff[~mask_z]
    lexp_diff[mask_z] = np.exp(x[:-1][mask_z])
    return lexp_diff


def _pade_expm(a, kernel) -> np.ndarray:
    """``scipy.linalg.expm(a)`` for a square float ``a``, bit for bit: the
    same Pade scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26(4),
    2005; Al-Mohy and Higham, 31(3), 2009) in the same compiled ``kernel``,
    and the same steps around it for the diagonal, triangular and general
    cases."""
    rows, cols = np.nonzero(a)
    lower, upper = bool((rows > cols).any()), bool((rows < cols).any())
    # a diagonal matrix, 1 x 1 and empty ones among them
    if not (lower or upper):
        return np.diag(np.exp(np.diag(a)))
    n = a.shape[0]
    pick_pade_structure, pade_UV_calc = kernel
    # the kernel scales the copy in am[0] and leaves the Pade approximant there
    am = np.empty((5, n, n))
    am[0] = a
    m, s = pick_pade_structure(am)
    if m < 0:
        raise MemoryError(f"expm could not allocate its Pade structure (error code {m})")
    info = pade_UV_calc(am, m)
    if info != 0:
        if info <= -11:
            raise MemoryError(f"expm could not allocate its workspace (error code {info})")
        raise RuntimeError(f"expm got an internal LAPACK error (error code {info})")
    e = am[0]
    if s != 0 and lower and upper:
        for _ in range(s):
            e = e @ e
    elif s != 0:
        # a triangular matrix: its diagonal and first off-diagonal are
        # recomputed at every squaring (Al-Mohy and Higham, Code Fragment 2.1)
        diag = np.diag(a)
        np.einsum("ii->i", e)[:] = np.exp(diag * 2 ** (-s))
        sd = np.diag(a, k=1 if upper else -1)
        for i in range(s - 1, -1, -1):
            e = e @ e
            np.einsum("ii->i", e)[:] = np.exp(diag * 2.0 ** (-i))
            exp_sd = _exp_sinch(diag * (2.0 ** (-i))) * (sd * 2 ** (-i))
            if not upper:
                np.einsum("ii->i", e[1:, :-1])[:] = exp_sd
            else:
                np.einsum("ii->i", e[:-1, 1:])[:] = exp_sd
    if not lower:
        return np.triu(e)
    if not upper:
        return np.tril(e)
    return e


_PADE_KERNEL = _load_pade_kernel()


def expm(m) -> np.ndarray:
    """Matrix exponential of a square matrix (Pade with scaling and squaring).

    Bit for bit ``scipy.linalg.expm``: its compiled kernel with a copy of
    its steps around it (``_pade_expm``), or ``scipy.linalg.expm`` itself
    where the kernel is not found or does not pass ``_load_pade_kernel``'s
    check.
    """
    m = _as_float_array(m, "m")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if _PADE_KERNEL is None:
        import scipy.linalg

        return scipy.linalg.expm(m)
    return _pade_expm(m, _PADE_KERNEL)


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
