"""Reference answers for the benchmark, written without ``handsoff``.

Every check here rebuilds the zero-order-hold transcription from the plant
matrices with ``scipy.linalg.expm`` and solves it with a method unrelated to
the package's splitting solver:

* L1 (sparsest control): the exact linear program, solved by HiGHS.
* L1L2 and L2: the dual of the transcribed program has one variable per state
  (the terminal costate ``p``) and is concave; it is maximized here by a
  damped semismooth Newton method.  The dual value is a certified lower bound
  on the optimal cost, and the control ``u(p)`` it induces is the unique
  optimizer once the terminal residual vanishes.
* Minimum time: the smallest terminal miss reachable under ``|u| <= 1`` is a
  linear program; a returned ``T*`` is right when that miss is zero at ``T*``
  and positive at ``T* - tol_t``.

Nothing in this module is timed as part of an operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linprog

# an operation's output agrees with the oracle when its relative error is at
# most this (the solver's own stopping tolerances are 1e-6)
REL_TOL = 1e-4
# the terminal state of a resimulated control, relative to max(1, |x0|), must
# be at most this (the default threshold of ``handsoff verify``)
EQ_TOL = 1e-4
# support threshold of the sparsity measure (``handsoff.analysis.DEFAULT_EPS``)
SUPPORT_EPS = 1e-2
# a sweep point's support time and largest slope agree with the oracle's when
# within this share; the support time, a count of samples above a threshold,
# may also differ by this many samples
SWEEP_TOL = 1e-2
SUPPORT_SAMPLES = 2
# the closed-form minimum-energy control samples the continuous optimum at
# interval midpoints, so it differs from the grid optimum by O(h^2); at
# N = 8000 that is far below this
ENERGY_TOL = 1e-3
# a horizon reaches the origin when the reach miss (relative to the target) is
# at most REACH_HIT, ten times the program's own acceptance threshold; a
# horizon below T* is shown reachable, and T* too long, only when its miss is
# at most REACH_CLEAR.  Misses in between are within the precision of the LP
# and count for the program.
REACH_HIT = 1e-7
REACH_CLEAR = 1e-9


class OracleError(RuntimeError):
    """The oracle itself could not produce a certified answer."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one operation's output against the oracle."""

    ok: bool
    rel_error: float
    eq_residual: float
    reason: str = ""


# ---------------------------------------------------------------------------
# transcription


def zoh(a: np.ndarray, b: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold pair ``(Ad, Bd)`` for step ``h``."""
    n, m = b.shape
    block = np.zeros((n + m, n + m))
    block[:n, :n] = a * h
    block[:n, n:] = b * h
    e = scipy.linalg.expm(block)
    return e[:n, :n], e[:n, n:]


def reach_map(a, b, x0, horizon: float, n_steps: int):
    """``(phi, target, h)`` with ``x[N] = 0  <=>  phi @ vec(U) = target``.

    Columns are ordered sample-major, so columns ``k*m .. k*m+m-1`` hold
    ``Ad^(N-1-k) Bd``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(a.shape[0], -1)
    h = horizon / n_steps
    ad, bd = zoh(a, b, h)
    n, m = b.shape
    blocks = np.empty((n_steps, n, m))
    block = bd
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps - 1, -1, -1):
            blocks[k] = block
            block = ad @ block
        power = np.linalg.matrix_power(ad, n_steps)
    phi = blocks.transpose(1, 0, 2).reshape(n, n_steps * m)
    target = -(power @ np.asarray(x0, dtype=float))
    return phi, target, h


def simulate_terminal(a, b, x0, u: np.ndarray, h: float) -> np.ndarray:
    """Terminal state of ``x[k+1] = Ad x[k] + Bd u[k]`` from ``x0``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(a.shape[0], -1)
    ad, bd = zoh(a, b, h)
    x = np.asarray(x0, dtype=float).copy()
    for uk in np.asarray(u, dtype=float).reshape(-1, b.shape[1]):
        x = ad @ x + bd @ uk
    return x


def support_seconds(u: np.ndarray, h: float) -> float:
    """Time at least one channel exceeds ``SUPPORT_EPS`` in magnitude."""
    u = np.asarray(u, dtype=float).reshape(u.shape[0], -1)
    return h * float(np.count_nonzero(np.any(np.abs(u) > SUPPORT_EPS, axis=1)))


def slope_supnorm(u: np.ndarray, h: float) -> float:
    """Largest adjacent-sample slope ``max |u[k+1] - u[k]| / h``."""
    u = np.asarray(u, dtype=float).reshape(u.shape[0], -1)
    return float(np.max(np.abs(np.diff(u, axis=0)))) / h


def _rel(value: float, reference: float) -> float:
    if value == reference:
        return 0.0
    return abs(value - reference) / max(abs(reference), 1e-300)


def _eq_rel(a, b, x0, u, h) -> float:
    x0 = np.asarray(x0, dtype=float)
    terminal = simulate_terminal(a, b, x0, u, h)
    return float(np.linalg.norm(terminal)) / max(1.0, float(np.linalg.norm(x0)))


# ---------------------------------------------------------------------------
# L1: linear program


def l1_optimum(phi: np.ndarray, target: np.ndarray, w1: np.ndarray) -> float:
    """Optimal ``sum w1 |u|`` subject to ``phi u = target, |u| <= 1``.

    Solved as an LP in ``u = u+ - u-`` with ``0 <= u+-  <= 1``.
    """
    cols = phi.shape[1]
    scale = np.max(np.abs(phi), axis=1)
    a_eq = np.hstack([phi, -phi]) / scale[:, None]
    res = linprog(
        np.concatenate([w1, w1]),
        A_eq=a_eq,
        b_eq=target / scale,
        bounds=[(0.0, 1.0)] * (2 * cols),
        method="highs",
    )
    if res.status != 0:
        raise OracleError(f"L1 reference LP failed: {res.message}")
    return float(res.fun)


def check_l1(a, b, x0, horizon, n_steps, lam, j1: float, u: np.ndarray) -> Verdict:
    """Check a reported L1 cost ``j1`` and control ``u`` (shape (N, m))."""
    phi, target, h = reach_map(a, b, x0, horizon, n_steps)
    m = phi.shape[1] // n_steps
    w1 = np.tile(np.broadcast_to(np.asarray(lam, dtype=float), (m,)), n_steps) * h
    j_star = l1_optimum(phi, target, w1)
    rel = _rel(j1, j_star)
    eq = _eq_rel(a, b, x0, u, h)
    reasons = []
    if not rel <= REL_TOL:
        reasons.append(f"J1 {j1:.10g} vs LP optimum {j_star:.10g} (rel {rel:.3g})")
    if not eq <= EQ_TOL:
        reasons.append(f"terminal residual {eq:.3g}")
    return Verdict(not reasons, rel, eq, "; ".join(reasons))


# ---------------------------------------------------------------------------
# L1L2 / L2: costate-space dual


def _dual_control(c: np.ndarray, w1: float, w2: float) -> np.ndarray:
    return np.clip(np.sign(c) * np.maximum(np.abs(c) - w1, 0.0) / w2, -1.0, 1.0)


def _dual_value(p, phi, target, w1, w2):
    c = phi.T @ p
    u = _dual_control(c, w1, w2)
    inner = w1 * np.abs(u) + 0.5 * w2 * u * u - c * u
    return float(target @ p + inner.sum()), c, u


def mixed_optimum(phi, target, lam: float, r: float, p0=None, max_steps: int = 500):
    """Maximize the dual of ``min sum lam|u| + r/2 u^2, phi u = target, |u|<=1``.

    Weights are per sample and uniform (the grid step cancels).  Returns
    ``(u, p, dual_value)``.  The induced control meets the terminal
    constraint to ``1e-10`` of the size of its terms, or to ``1e-8`` when
    rounding stops the ascent first; otherwise ``OracleError`` is raised.
    """
    n = phi.shape[0]
    p = np.zeros(n) if p0 is None else np.array(p0, dtype=float)
    g, c, u = _dual_value(p, phi, target, lam, r)
    # a tiny share of the curvature with every sample in the band, so that an
    # empty band gives a gradient step
    reg = 1e-9 * float(np.sum(phi * phi)) / r
    for _ in range(max_steps):
        grad = target - phi @ u
        terms = float(np.linalg.norm(np.abs(phi) @ np.abs(u)))
        size = max(1.0, float(np.linalg.norm(target)), terms)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= 1e-10 * size:
            return u, p, g
        band = (np.abs(c) > lam) & (np.abs(c) < lam + r)
        pb = phi[:, band]
        step = np.linalg.solve(pb @ pb.T / r + reg * np.eye(n), grad)
        slope = float(step @ grad)
        t = 1.0
        while True:
            p_new = p + t * step
            g_new, c_new, u_new = _dual_value(p_new, phi, target, lam, r)
            if g_new >= g + 1e-4 * t * slope and g_new > g:
                break
            # near the optimum the gain is below the rounding of g: judge the
            # step by the terminal residual instead
            if t * slope <= 1e-12 * max(1.0, abs(g)) and np.linalg.norm(
                target - phi @ u_new
            ) < gnorm:
                break
            t *= 0.5
            if t < 1e-12:
                if gnorm <= 1e-8 * size:
                    return u, p, g
                raise OracleError("dual Newton line search failed")
        p, g, c, u = p_new, g_new, c_new, u_new
    raise OracleError("dual Newton ascent did not reach the terminal constraint")


def energy_optimum(phi, target) -> np.ndarray:
    """Unboxed minimum-energy control on the grid, ``phi' (phi phi')^-1 target``."""
    return phi.T @ np.linalg.solve(phi @ phi.T, target)


def check_sweep(a, b, x0, horizon, n_steps, lam, points) -> Verdict:
    """Check sweep points ``[(r, l0_seconds, derivative_supnorm, status)]``.

    Points are solved in decreasing ``r`` so each dual solve warm-starts the
    next.
    """
    phi, target, h = reach_map(a, b, x0, horizon, n_steps)
    rel_max = 0.0
    reasons = []
    p = None
    for r, l0, dsup, status in sorted(points, key=lambda pt: -pt[0]):
        u, p, _ = mixed_optimum(phi, target, lam, r, p0=p)
        u = u.reshape(n_steps, -1)
        if status != "converged":
            reasons.append(f"r={r:g}: status {status}")
            continue
        for name, got, ref, allowed in (
            ("l0_seconds", l0, support_seconds(u, h), SUPPORT_SAMPLES * h),
            ("derivative_supnorm", dsup, slope_supnorm(u, h), 0.0),
        ):
            rel = _rel(got, ref)
            rel_max = max(rel_max, rel)
            if not abs(got - ref) <= allowed + SWEEP_TOL * abs(ref):
                reasons.append(f"r={r:g}: {name} {got:.8g} vs {ref:.8g} (rel {rel:.3g})")
    return Verdict(not reasons, rel_max, 0.0, "; ".join(reasons))


def check_energy(a, b, x0, horizon, n_steps, u: np.ndarray) -> Verdict:
    """Check a minimum-energy control against the grid optimum and resimulate it."""
    phi, target, h = reach_map(a, b, x0, horizon, n_steps)
    ref = energy_optimum(phi, target).reshape(n_steps, -1)
    rel = float(np.max(np.abs(u - ref))) / float(np.max(np.abs(ref)))
    eq = _eq_rel(a, b, x0, u, h)
    reasons = []
    if not rel <= ENERGY_TOL:
        reasons.append(f"min-energy control off the grid optimum by {rel:.3g} (sup, rel)")
    if not eq <= EQ_TOL:
        reasons.append(f"min-energy terminal residual {eq:.3g}")
    return Verdict(not reasons, rel, eq, "; ".join(reasons))


# ---------------------------------------------------------------------------
# minimum time


def reach_miss(a, b, x0, horizon: float, density: float) -> float:
    """Smallest terminal miss reachable under ``|u| <= 1``, relative to the target.

    The miss is ``min max_i |phi u - target|_i / max(1, |target|)``, the same
    scale on which ``handsoff.minimum_time`` accepts a horizon (its bounded
    least-squares residual must be below ``1e-8 * max(1, |target|)``).  The
    grid is the one ``minimum_time`` uses at that horizon,
    ``N = ceil(horizon * density)``.  A map that overflows is unreachable.
    """
    n_steps = max(1, math.ceil(horizon * density))
    phi, target, _ = reach_map(a, b, x0, horizon, n_steps)
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(target))):
        return math.inf
    scale = max(1.0, float(np.linalg.norm(target)))
    rows = phi / scale
    rhs = target / scale
    n, cols = phi.shape
    ones = np.ones((n, 1))
    cost = np.zeros(cols + 1)
    cost[-1] = 1.0
    res = linprog(
        cost,
        A_ub=np.vstack([np.hstack([rows, -ones]), np.hstack([-rows, -ones])]),
        b_ub=np.concatenate([rhs, -rhs]),
        bounds=[(-1.0, 1.0)] * cols + [(0.0, None)],
        method="highs",
    )
    if res.status != 0:
        raise OracleError(f"reach LP failed: {res.message}")
    return float(res.fun)


def min_time(a, b, x0, density: float = 20.0, rel_tol: float = 0.01) -> float:
    """Minimum horizon, within ``rel_tol``, by bisection on the reach LP."""
    lo, hi = 0.0, 1.0
    while reach_miss(a, b, x0, hi, density) > REACH_HIT:
        lo, hi = hi, 2.0 * hi
        if hi > 1e3:
            raise OracleError("no reachable horizon below 1000 s")
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if reach_miss(a, b, x0, mid, density) <= REACH_HIT:
            hi = mid
        else:
            lo = mid
    return hi


def check_min_time(a, b, x0, t_star: float, tol_t: float, density: float) -> Verdict:
    """``T*`` is right when the reach miss is zero at ``T*`` and not at ``T* - tol_t``."""
    reasons = []
    hit = reach_miss(a, b, x0, t_star, density)
    if not hit <= REACH_HIT:
        reasons.append(f"origin not reachable at T*={t_star:.6g} (miss {hit:.3g})")
    lower = t_star - tol_t
    if lower > 0.0:
        miss = reach_miss(a, b, x0, lower, density)
        if miss <= REACH_CLEAR:
            reasons.append(f"origin already reachable at T*-tol={lower:.6g} (miss {miss:.3g})")
    # T* then lies within tol_t of the true minimum: this bounds its error
    rel = tol_t / t_star
    return Verdict(not reasons, rel, hit, "; ".join(reasons))
