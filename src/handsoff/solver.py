"""Transcription of control problems to finite convex programs and their dual solver.

Under a zero-order hold the reach condition is linear in the stacked control,
so a control problem becomes

    minimize    sum_j w1_j |U_j|  +  (1/2) sum_j w2_j U_j**2
    subject to  phi @ U = target,      |U_j| <= 1,

with per-sample weights ``w1 = lam_i * h`` and ``w2 = r_i * h`` (rectangle
rule).  Its dual has one variable per state, the terminal costate ``p``.
Given ``p`` the program separates sample by sample: with ``c = phi' p`` the
minimizing control is ``scalar_ops.control_law(c, w1, w2)``, the optimality
conditions of the paper in transcribed form, and the dual ``g(p) = target' p
+ sum_j min_{|u| <= 1} (w1_j |u| + w2_j u**2 / 2 - c_j u)`` is concave.
Every returned control carries its costate, and the duality gap
``primal(U) - g(p)`` certifies it.  Pure L1 (``w2 = 0``) is an LP with the
piecewise-linear dual ``target' p - sum_j max(0, |c_j| - w1_j)``; ``solve``
finds its optimal vertex exactly by an exchange method, and the control is
bang-off-bang off the n samples the vertex ties to ``|c_j| = w1_j``.  With
``w2 > 0`` the dual is differentiable, and ``solve`` maximizes it at the
program's own weights by a damped semismooth Newton method.

``minimum_time`` works on the same reach condition without an objective:
the origin is reachable at a horizon iff the least ``sum |phi' p|`` over
``target' p = 1`` is at least 1.  That gauge of the reachable set is the
same exchange method with every threshold at 0, and the horizon is found by
root finding on its logarithm.
"""

from __future__ import annotations

import math
import sys
import threading
import weakref
from dataclasses import dataclass

import numpy as np
# numpy 2.0 merged the gufuncs qr_r_raw and svd, which 1.x split by shape
from numpy.linalg import _umath_linalg

from .plant import (
    ControlProblem,
    ControlTrajectory,
    LtiPlant,
    _initial_state,
    controllability_gramian,  # noqa: F401  (perfbench traces it here)
    discretize,
    hautus_test,
    reachability_matrix,
)
from .scalar_ops import control_law, saturated_shrink

__all__ = [
    "DiscreteProgram",
    "SolveReport",
    "transcribe",
    "solve",
    "solve_problem",
    "minimum_time",
]

# the "converged" contract: terminal residual at most _TOL_EQ relative to
# max(1, |target|) and at most _TOL_PRIMAL per root-sample, duality gap at most
# _TOL_DUAL relative to the objective, within _MAX_ITER iterations (README,
# numerical notes)
_TOL_PRIMAL = _TOL_DUAL = _TOL_EQ = 1e-6
_MAX_ITER = 50000
# the Newton ascent stops once the terminal residual is this small relative to
# the size of the terms it is made of, |target| and || |phi| |U| ||; rounding
# keeps it from reaching a bound relative to |target| alone
_STOP_REL = 1e-10
# a warm start (solve's _start) enters close to the optimum, so its last step
# tends to land just under _STOP_REL where a cold one's lands far below; every
# ascent runs on while each step still cuts the residual tenfold, down to this
# share, so that both stop at the same point
_RUN_ON_REL = 1e-13
# share of the full-band curvature added to every Newton system, so that a
# band with fewer than n samples still gives a well-scaled ascent direction
_REG = 1e-10
# line search: strong Wolfe factor, largest step, and evaluations per bracket
_WOLFE = 0.1
_MAX_STEP = 2.0**40
_SEARCH_EVALS = 50
# the ascent also counts as stalled when this many steps in a row fail to cut
# the smallest terminal residual seen so far by the factor _PROGRESS: on
# strongly unstable plants rounding sets a floor above the stopping rule.  The
# longest such run in an ascent that went on to converge is 37 steps (a
# three-state plant at r = 1e-3, N = 200, converged at step 41)
_PATIENCE = 40
_PROGRESS = 0.99
# a dual point p is a Farkas certificate of infeasibility when target'p
# exceeds sum |phi' p| by more than this share plus its rounding (_farkas).
# minimum_time's unstable-mode test is that inequality at p = +-v as T -> inf:
# at a real mode mu, |target'v| / sum |phi'v| = mu |v'x0| / (|B'v|_1 (1 - e^(-mu T)))
_FARKAS_MARGIN = 1e-9
# minimum_time: a horizon counts as reachable when a control with |u| <= 1
# misses the target by at most this share of max(1, |target|)
_REACH_FLOOR = 1e-8
# the exchange method: the share of its size below which a quantity is
# rounding (a multiplier's excess over its range, a descent inside a face, a
# column's part outside a basis, phi_j' d); a basis of unit columns is
# independent to rounding when its condition number is below the inverse;
# and _gauge gives up after this many steps (the benchmark's plants take at
# most 20)
_TIE = 1e-12
_MAX_EXCHANGES = 200
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# the spare: the largest block a collected _Layout gave back, kept up to this
# many bytes, the most glibc's malloc keeps for reuse itself (its largest
# mmap threshold on a 64-bit host)
_SPARE_BYTES = 32 << 20
_spare = None
_spare_lock = threading.Lock()


def __getattr__(name):
    # perfbench/tracing.py hooks handsoff.solver.lsq_linear, which nothing
    # here calls; it resolves on first lookup, so that importing the package
    # leaves scipy.optimize unloaded
    if name == "lsq_linear":
        from scipy.optimize import lsq_linear

        return lsq_linear
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class DiscreteProgram:
    """Finite convex program over the stacked control ``U`` of length m*N.

    ``phi`` is the (n, m*N) reachability map, ``target`` the required forced
    terminal response (``-Ad^N x0``), ``l1_weights``/``l2_weights`` the
    per-sample objective weights (already scaled by the step); the amplitude
    bound is ``|U_j| <= 1``.  ``h`` and ``m`` carry the control grid geometry
    so that solutions can be reported in trajectory form and in seconds.
    """

    phi: np.ndarray
    target: np.ndarray
    l1_weights: np.ndarray
    l2_weights: np.ndarray
    h: float = 1.0
    m: int = 1

    def __post_init__(self) -> None:
        phi = np.asarray(self.phi, dtype=float)
        target = np.asarray(self.target, dtype=float).reshape(-1)
        w1 = np.asarray(self.l1_weights, dtype=float).reshape(-1)
        w2 = np.asarray(self.l2_weights, dtype=float).reshape(-1)
        if phi.ndim != 2:
            raise ValueError(f"phi must be 2-d, got shape {phi.shape}")
        if target.shape[0] != phi.shape[0]:
            raise ValueError("target length must match the rows of phi")
        if w1.shape[0] != phi.shape[1] or w2.shape[0] != phi.shape[1]:
            raise ValueError("weight vectors must match the columns of phi")
        if np.any(w1 < 0.0) or np.any(w2 < 0.0):
            raise ValueError("objective weights must be nonnegative")
        if not self.h > 0.0:
            raise ValueError(f"h must be positive, got {self.h}")
        if not (self.m >= 1 and phi.shape[1] % self.m == 0):
            raise ValueError("m must divide the number of columns of phi")
        for field, val in (
            ("phi", phi), ("target", target), ("l1_weights", w1), ("l2_weights", w2)
        ):
            if not np.all(np.isfinite(val)):
                raise ValueError(f"{field} must be finite")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "l1_weights", w1)
        object.__setattr__(self, "l2_weights", w2)

    @property
    def n_samples(self) -> int:
        return self.phi.shape[1] // self.m


@dataclass(frozen=True)
class SolveReport:
    """Solver output: the control, objective values, and convergence data.

    ``j1`` and ``j2`` are the weighted L1 and quadratic costs of the returned
    control under the program weights.  ``eq_residual`` is the absolute
    terminal-constraint residual ``||phi U - target||`` and
    ``primal_residual`` the same per root-sample.  ``costate`` is the
    terminal costate ``p`` of the program (the multiplier of ``phi U =
    target``; away from ties the control is the control law at ``phi' p``,
    and ``-p`` is the costate in the paper's sign convention, where the L1
    control is ``-dead_zone`` of its input map).
    ``duality_gap`` is ``primal(U) - g(p)`` under the program weights and
    ``dual_residual`` the same relative to the objective (the certificate
    ``analysis.costate_consistency`` also checks).  ``iterations`` counts
    exchanges in pure L1, else Newton steps.  ``status`` "converged": the
    control meets the amplitude bound exactly, ``eq_residual <= 1e-6 *
    max(1, |target|)``, ``primal_residual`` and ``dual_residual <= 1e-6``,
    within 50,000 iterations (fixed, not settings); "infeasible_suspected":
    ``costate`` is a Farkas certificate, ``target' p > sum |phi' p|``, and
    ``duality_gap`` is NaN; "stalled": stopped short of a certificate with
    budget left (rounding held a residual above its bound); "max_iter".
    """

    u: ControlTrajectory
    j1: float
    j2: float
    iterations: int
    primal_residual: float
    dual_residual: float
    eq_residual: float
    status: str
    costate: np.ndarray
    duality_gap: float


def _reach_condition(plant: LtiPlant, x0, horizon: float, n_steps: int):
    """``(phi, target, more)``: ``phi U = target = -Ad^N x0`` on ``n_steps``
    samples of ``horizon``, and ``more(p) = (sum |p' Ad^N Bd|, p' Ad target)``
    for one more sample at the far end, its columns and its target."""
    ad, bd = discretize(plant, horizon / n_steps)
    phi, free = reachability_matrix(ad, bd, n_steps)
    target = -(free @ x0)

    def more(p):
        return float(np.abs(p @ free @ bd).sum()), float(p @ ad @ target)

    return phi, target, more


def transcribe(problem: ControlProblem) -> DiscreteProgram:
    """Build the finite program for ``problem`` on its own control grid.

    Mode "L1" drops the quadratic weights, mode "L2" drops the L1 weights,
    mode "L1L2" keeps both.  Objective weights carry the rectangle-rule factor
    ``h``.  Raises ``numpy.linalg.LinAlgError`` for a plant that fails
    ``plant.hautus_test``; a controllable plant can still give a rank
    deficient map (a grid shorter than the state, or rounding), which
    ``solve`` decides like any other.
    """
    hautus_test(problem.plant)
    return _transcribe(problem)


def _transcribe(problem: ControlProblem) -> DiscreteProgram:
    """``transcribe`` without its Hautus test, for a plant that has passed it
    (``analysis.sweep_tradeoff``'s coarse grid)."""
    phi, target, _ = _reach_condition(problem.plant, problem.x0, problem.T, problem.N)
    lam = problem.lam if problem.mode != "L2" else np.zeros(problem.plant.m)
    r = problem.r if problem.mode != "L1" else np.zeros(problem.plant.m)
    return DiscreteProgram(
        phi=phi,
        target=target,
        l1_weights=np.tile(lam, problem.N) * problem.h,
        l2_weights=np.tile(r, problem.N) * problem.h,
        h=problem.h,
        m=problem.plant.m,
    )


def _gap(u, p, phi, target, w1, w2, c=None) -> tuple[float, float, float]:
    """``(j1, j2, primal(u) - g(p))``, with ``primal(u) = j1 + j2`` its
    weighted L1 and quadratic costs: by weak duality the gap bounds how far
    ``primal(u)`` is above the optimum when ``phi @ u = target``.  The dual
    value ``g(p)`` is taken at the control ``U(p)``: ``c``, when given, is
    ``phi' p``, and ``u`` is then the control law at ``c``."""
    abs_u = np.abs(u)
    j1, j2 = float(w1 @ abs_u), 0.5 * float(w2 @ (u * u))
    if c is None:
        c = phi.T @ p
        u = control_law(c, w1, w2)
        abs_u = np.abs(u)
    dual = float(target @ p + np.sum(w1 * abs_u + 0.5 * w2 * u * u - c * u))
    return j1, j2, j1 + j2 - dual


def _rounding(phi, target, p) -> float:
    """A bound on the rounding of ``target' p`` and ``sum |phi' p|``, the
    terms that the dual value and the Farkas test cancel against each other."""
    return phi.shape[0] * _EPS * float(
        np.abs(target) @ np.abs(p) + np.sum(np.abs(phi).T @ np.abs(p))
    )


def _farkas(phi, target, p, support=None):
    """``max(sum |phi' p|, rounding) / target' p`` if ``p`` proves that no
    ``|u| <= 1`` reaches ``target``, by the margin ``_FARKAS_MARGIN`` and
    ``_rounding`` (a pass over ``phi``, made only past the margin); else
    None.  ``support``, when given, is ``sum |phi' p|``."""
    if support is None:
        support = float(np.sum(np.abs(phi.T @ p)))
    excess, bound = float(target @ p), (1.0 + _FARKAS_MARGIN) * support
    if excess > bound:
        rounding = _rounding(phi, target, p)
        if excess > bound + rounding:
            return max(support, rounding) / excess
    return None


def _line_search(c, u, e, slope0, w1, w2, probe, control, scratch):
    """Step ``t > 0`` that nearly maximizes the dual along a direction ``d``.

    ``c = phi' p``, ``u = U(c)``, ``e = phi' d`` and ``slope0 = target' d``;
    the slope along ``d``, ``slope0 - e' U(c + t e)``, is piecewise linear
    and nonincreasing in ``t``.  Returns the first ``t`` found where it is
    within ``_WOLFE`` times its value at 0 of zero (strong Wolfe), by
    doubling from 1 and then regula falsi (Illinois); 0 when rounding leaves
    no ascent, or no finite slope at 0.  The weights are the program's, ``w2
    > 0``.  Every probe writes ``c + t e``, its control and the sign pass
    of ``saturated_shrink`` into the caller's rows ``probe``, ``control``
    and ``scratch``, each of ``c``'s shape.
    """

    def slope(t):
        # the first probe, t = 1, needs no multiply: c + 1.0 * e is c + e
        if t == 1.0:
            np.add(c, e, out=probe)
        else:
            np.multiply(e, t, out=probe)
            np.add(c, probe, out=probe)
        return slope0 - float(e @ saturated_shrink(probe, w1, w2, out=control, scratch=scratch))

    s_lo, lo = slope0 - float(e @ u), 0.0
    if not 0.0 < s_lo < math.inf:
        return 0.0
    tol = _WOLFE * s_lo
    hi = 1.0
    s_hi = slope(hi)
    while s_hi > tol:
        if hi >= _MAX_STEP:
            return hi
        lo, s_lo = hi, s_hi
        hi *= 2.0
        s_hi = slope(hi)
    if s_hi >= -tol:
        return hi
    side = 0
    for _ in range(_SEARCH_EVALS):
        t = lo + (hi - lo) * s_lo / (s_lo - s_hi)
        s_t = slope(t)
        if abs(s_t) <= tol:
            break
        if s_t > 0.0:
            lo, s_lo = t, s_t
            if side == 1:
                s_hi *= 0.5
            side = 1
        else:
            hi, s_hi = t, s_t
            if side == -1:
                s_lo *= 0.5
            side = -1
    return t


def _take_block(size):
    """A block of at least ``size`` doubles that no live layout holds: the
    spare when it is that large and no view of it is left, else a new
    block, and the spare is dropped."""
    global _spare
    with _spare_lock:
        block, _spare = _spare, None
    # with no view left, this name and getrefcount's argument are the only
    # references to the block
    if block is None or block.size < size or sys.getrefcount(block) > 2:
        block = np.empty(size)
    return block


def _give_back(block):
    """Keep a collected layout's ``block`` as the spare when it is within
    ``_SPARE_BYTES`` and larger than the spare."""
    global _spare
    if block.nbytes <= _SPARE_BYTES:
        with _spare_lock:
            if _spare is None or block.size > _spare.size:
                _spare = block


class _Layout:
    """The arrays of an ascent that depend on ``phi`` alone, made once per map.

    ``abs_phi`` is ``|phi|``, ``phi_t`` the row-major copy of ``phi'``, and
    ``phi_w2`` the buffer ``_band_curvature`` fills with ``phi / w2`` at
    each ascent's weights.  The rest are the ascent's work rows, each of
    one entry per sample: ``points`` two ``(c, u)`` pairs, the current
    point and the one the run-on past the stopping rule keeps; ``e = phi'
    d`` along a search direction; the line search's ``probe`` and its
    ``control``; and ``scratch``, for ``|u|``, ``|c|`` and the sign pass
    of ``saturated_shrink``.  Several ascents on one map share a layout,
    one at a time, so its pages are faulted in once, and a step allocates
    no array of one entry per sample besides the band's masks and gathered
    rows; ``analysis.sweep_tradeoff`` holds one layout per grid.

    All of them are views of one block of ``(3 n + 8) m N`` doubles, with
    ``|phi|`` and ``phi / w2`` in ``phi``'s memory order, as ``np.abs`` and
    ``np.empty_like`` would make them, so every operation on them is the
    one on fresh arrays bit for bit.  The block is the module's spare when
    it fits, else a new one; a collected layout gives its block back
    (``weakref.finalize``), and the largest one given back, up to
    ``_SPARE_BYTES``, is kept as the spare.  So a process holds at most one
    block outside its live layouts, and the next operation's layouts reuse
    pages the last one faulted in.  The spare is taken and kept under a
    lock, so two live layouts never share memory.  No view of a layout
    outlives it (``solve`` copies the control, and its report holds no
    row); a block that some view still holds is not reused.
    """

    def __init__(self, phi):
        n, mn = phi.shape
        size = n * mn
        block = _take_block(3 * size + 8 * mn)
        weakref.finalize(self, _give_back, block)
        order = "F" if n > 1 and mn > 1 and abs(phi.strides[0]) < abs(phi.strides[1]) else "C"
        self.phi = phi
        self.abs_phi = np.abs(phi, out=block[:size].reshape(n, mn, order=order))
        # stacked row by row, faster than a strided copy of the transpose
        self.phi_t = np.stack(phi, axis=1, out=block[size : 2 * size].reshape(mn, n))
        self.phi_w2 = block[2 * size : 3 * size].reshape(n, mn, order=order)
        rows = block[3 * size : 3 * size + 8 * mn].reshape(8, mn)
        self.points = ((rows[0], rows[1]), (rows[2], rows[3]))
        self.e, self.probe, self.control, self.scratch = rows[4:]


def _band_curvature(layout, w2):
    """``(reg, curvature)``: the regularizer ``_REG (phi / w2) phi'`` and
    ``curvature(band) = (phi[:, band] / w2[band]) @ phi[:, band].T``, the
    dual's curvature on the samples ``band`` (indices), bit for bit.
    ``reg`` is formed from ``phi / w2``, written into ``layout.phi_w2`` in
    C order; from a transposed copy its bits differ.  ``curvature`` gathers
    the band's rows of ``layout.phi_t`` and divides them by ``w2[band]``: a
    division is correctly rounded, so these are the rows of the gathered
    ``phi / w2`` bit for bit, and transposed back both operands have the
    column-major layout of ``phi[:, band]``, so the product is formed in
    the same order with no column gather."""
    phi_w2 = np.divide(layout.phi, w2, out=layout.phi_w2)
    reg = _REG * (phi_w2 @ layout.phi.T)
    phi_t = layout.phi_t

    def curvature(band):
        rows = phi_t.take(band, axis=0)
        return (rows / w2.take(band)[:, None]).T @ rows

    return reg, curvature


# _solve's singular systems give NaNs; the errstate covers the whole function,
# so an invalid operation elsewhere in it sets no warning either
@np.errstate(invalid="ignore")
def _ascend(layout, target, w1, w2, p, budget):
    """Damped semismooth Newton ascent on the dual with weights ``w2 > 0``.

    Runs on the map ``phi = layout.phi`` (``_Layout``), starts at ``p``,
    takes at most ``budget`` steps, and returns ``(p, c, u, steps,
    outcome)``, with ``c = phi' p`` and ``u = U(c)`` rows of ``layout``
    that the next ascent on it overwrites: "converged"
    (terminal residual at the rounding floor), "stalled" (no ascent
    direction left, or the residual stopped falling), "unbounded" (``p`` is
    a Farkas certificate, ``_farkas``), or "max_iter".  Past the stopping
    rule it runs on while each step cuts the residual tenfold, down to
    ``_RUN_ON_REL``, and returns the best point it passed.  The control law
    is ``saturated_shrink``: with ``w2 > 0`` it makes the dual
    differentiable with a semismooth gradient (Qi and Sun, Math.
    Programming 58, 1993).
    """
    phi, abs_phi, scratch = layout.phi, layout.abs_phi, layout.scratch
    reg, curvature = _band_curvature(layout, w2)
    band_hi = w1 + w2
    # norms of n-vectors as np.linalg.norm forms them, sqrt(x . x), without
    # its wrapper
    tsize = max(1.0, math.sqrt(target @ target))
    here, spare = layout.points
    c, u = here
    np.matmul(phi.T, p, out=c)
    saturated_shrink(c, w1, w2, out=u, scratch=scratch)
    best = math.inf
    since_best = 0
    steps = 0
    kept = None
    while True:
        grad = target - phi @ u
        gnorm = math.sqrt(grad @ grad)
        terms = abs_phi @ np.abs(u, out=scratch)
        size = max(tsize, math.sqrt(terms @ terms))
        if kept is not None and not gnorm <= 0.1 * kept[3]:
            if not gnorm < kept[3]:
                p, c, u = kept[:3]
            return p, c, u, steps, "converged"
        if gnorm <= _STOP_REL * size:
            if gnorm <= _RUN_ON_REL * size or steps == budget:
                return p, c, u, steps, "converged"
            kept = (p, c, u, gnorm)
        abs_c = np.abs(c, out=scratch)
        # an ascent that escapes to infinity leaves along a certificate
        if _farkas(phi, target, p, float(abs_c.sum())) is not None:
            return p, c, u, steps, "unbounded"
        if gnorm < _PROGRESS * best:
            best, since_best = gnorm, 0
        elif since_best == _PATIENCE:
            return p, c, u, steps, "stalled"
        else:
            since_best += 1
        if steps == budget:
            return p, c, u, steps, "max_iter"
        band = np.flatnonzero((abs_c > w1) & (abs_c < band_hi))
        hess = curvature(band) + reg
        try:
            newton = _solve(hess, grad)
        except np.linalg.LinAlgError:
            newton = np.linalg.lstsq(hess, grad, rcond=None)[0]
        # rounding can turn the Newton direction against the gradient, or
        # leave no ascent along it; the gradient still ascends
        for direction in (np.sign(newton @ grad) * newton, grad):
            e = np.matmul(phi.T, direction, out=layout.e)
            t = _line_search(
                c, u, e, float(target @ direction), w1, w2,
                layout.probe, layout.control, scratch,
            )
            if t > 0.0:
                break
        else:
            return p, c, u, steps, "stalled" if kept is None else "converged"
        p = p + t * direction
        # the point the run-on keeps stays in its rows
        if kept is not None and kept[1] is c:
            here, spare = spare, here
        c, u = here
        np.matmul(phi.T, p, out=c)
        saturated_shrink(c, w1, w2, out=u, scratch=scratch)
        steps += 1


def _solve(a, b):
    """``x`` with ``a x = b`` for a square ``a``: numpy's ``solve1`` gufunc,
    which ``np.linalg.solve`` runs for a vector ``b`` (LAPACK's ``dgesv``),
    called without that wrapper's checks, which take several times as long
    as the solves it serves, of n or fewer unknowns: ``_exchange``'s bases
    and ``_ascend``'s Newton systems.  A singular ``a`` gives NaNs and sets
    the invalid flag, and ``_solve`` raises ``LinAlgError`` for it.  Its
    callers, ``_exchange`` and ``_ascend``, run whole under
    ``np.errstate(invalid="ignore")``, entered once per call rather than once
    per solve, which silences any other invalid operation in them as well."""
    x = _umath_linalg.solve1(a, b, signature="dd->d")
    if x[0] != x[0]:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def _complete_q(a):
    """The complete ``Q`` of ``a = Q R`` for an n x k ``a`` with ``k < n``,
    in C order: numpy's ``qr_r_raw`` and ``qr_complete`` gufuncs (LAPACK's
    ``dgeqrf`` and ``dorgqr``) on a copy of ``a``, as ``np.linalg.qr(a,
    mode="complete")`` runs them, without that wrapper's checks, which take
    several times as long as the factorization of ``_exchange``'s bases."""
    a = a.copy()
    tau = _umath_linalg.qr_r_raw(a, signature="d->d")
    return _umath_linalg.qr_complete(a, tau, signature="dd->d")


def _least_norm(a, b):
    """The least-norm ``x`` with ``a x = b``."""
    return np.linalg.lstsq(a, b, rcond=None)[0]


# _solve's singular systems give NaNs; the errstate covers the whole function,
# so an invalid operation elsewhere in it sets no warning either
@np.errstate(invalid="ignore")
def _exchange(phi, target, w1, budget, tied=()):
    """Exchange method (simplex with long steps) on a piecewise-linear dual.

    Minimizes ``f(p) = sum_j max(0, |c_j| - w1_j) - target' p``, ``c = phi'
    p``, minus the L1 program's costate dual, from ``p = 0``; or with ``w1 =
    0`` ``sum |c_j|`` over ``target' p = 1`` (the gauge; ``target`` joins
    every basis), from ``target / target' target``, or from the vertex that
    ties the columns ``tied`` when there are some and they and ``target``
    make a basis of n unit columns independent to rounding.  Returns ``(outcome, p, u, s,
    steps, tied, c)``: "optimal", ``u`` an optimal control with ``phi u = s
    target`` (``s = 1``, or the gauge); "unbounded", ``p`` a ray along which
    ``f`` falls without bound, a Farkas certificate; "stalled" when ``_farkas``
    rejects that ray or a basis system cannot be solved; "max_iter" after
    ``budget`` moves.  ``tied`` is the last basis, and ``c`` is ``phi'`` times
    the last vertex: the returned ``p`` unless the outcome is "unbounded".

    A sample's level is ``sign(c_j)`` outside its thresholds ``+-w1_j``, 0
    inside.  A vertex ties n samples to ``c_j = side_j w1_j`` (``n - 1``
    beside ``target``) and is optimal iff the multipliers of ``phi_J u_J = s
    target - phi level`` have ``side_j u_j`` in ``[0, 1]`` (``|u_j| <= 1`` at
    0).  Else the worst violator is released along the ``d`` keeping the
    other ties; ``f`` falls at minus its violation, rising by ``|phi_j' d|``
    at each threshold crossed, and the step ends at the crossing that turns
    it, whose sample is tied in its place.  Until a basis has n columns
    (fewer where ``phi`` and ``target`` span fewer dimensions) the steps go
    down the projected gradient, in the complement of the basis's span
    (``_complete_q``).  A sample within the rounding of ``c_j``
    (``(n + 1) eps |phi_j|'|p|``) of a threshold keeps its level, so extra
    ties are left by steps of length zero, never by levels rounding chose.
    """
    n = phi.shape[0]
    gauge = not np.asarray(w1).any()
    abs_phi_t = np.abs(phi).T
    # a gauge basis puts target's column before those of the tied samples;
    # the basis matrix is kept, a column appended for each new tie and one
    # overwritten by each exchange
    k0 = int(gauge)
    tied, p = list(tied), np.zeros(n)
    basis = phi[:, tied]
    if gauge:
        basis, p = np.concatenate([target[:, None], basis], axis=1), None
        # a start at a vertex ties a basis of unit columns independent to rounding
        if tied and len(tied) == n - 1:
            unit = basis / (np.sqrt((basis * basis).sum(axis=0)) + _TINY)
            sv = _umath_linalg.svd(unit, signature="d->d").tolist()
            if sv[-1] > 0.0 and sv[0] / sv[-1] < 1.0 / _TIE:
                first = np.zeros(n)
                first[0] = 1.0
                p = _solve(basis.T, first)
        if p is None:
            tied, basis, p = [], basis[:, :1], target
        p = p / (target @ p)
    level = np.ones(phi.shape[1])
    # the threshold each tied sample sits at, as a sign: 0 in the gauge (its
    # thresholds are 0) and at the start (p = 0 ties no sample)
    sides = [0.0] * len(tied)
    steps = 0
    while True:
        c = phi.T @ p
        # the rounding of c (a _TIE share of |phi_j|'|p| can reach w1 on
        # unstable plants)
        tol = (n + 1) * _EPS * (abs_phi_t @ np.abs(p))
        if gauge:
            np.copysign(1.0, c, out=level, where=np.abs(c) > tol)
        else:
            slack = np.abs(c) - w1
            np.copysign(slack > 0.0, c, out=level, where=np.abs(slack) > tol)
        level[tied] = 0.0
        grad = phi @ level if gauge else phi @ level - target
        k = basis.shape[1]
        release = d = None
        try:
            if k < n:
                free = _complete_q(basis)[:, k:]
                d = -free @ (free.T @ grad)
                if not math.sqrt(d @ d) > _TIE * math.sqrt(grad @ grad):
                    # no descent inside the face: head for a threshold of the
                    # sample furthest out of span(basis); with none, p is at a
                    # vertex of the span of phi and target
                    spill = free.T @ phi
                    share = np.linalg.norm(spill, axis=0) / (np.linalg.norm(phi, axis=0) + _TINY)
                    j = int(np.argmax(share))
                    d = -(level[j] or -1.0) * (free @ spill[:, j]) if share[j] > _TIE else None
            if d is None:
                # a square basis is solved exactly, a narrower one (phi and
                # target span fewer dimensions) by least norm
                solve = _solve if k == n else _least_norm
                z = solve(basis, grad).tolist()
                v = [-x for x in z[k0:]]
                # each multiplier's range mid +- half: [0, 1] at w1, [-1, 1] at 0
                dev = [x - 0.5 * side for x, side in zip(v, sides)]
                half = [1.0 - abs(0.5 * side) for side in sides]
                if not any(abs(x) > y + _TIE for x, y in zip(dev, half)):
                    level[tied] = v
                    return "optimal", p, level, z[0] if gauge else 1.0, steps, tied, c
                over = [abs(x) - y for x, y in zip(dev, half)]
                release = over.index(max(over))
                sigma = 1.0 if dev[release] > 0.0 else -1.0
                rhs = np.zeros(k)
                rhs[k0 + release] = sigma
                d = solve(basis.T, rhs)
                slope = -over[release]
            else:
                slope = float(grad @ d)
        except np.linalg.LinAlgError:
            return "stalled", p, level, math.nan, steps, tied, c
        if steps == budget:
            return "max_iter", p, level, math.nan, steps, tied, c
        # the thresholds theta ahead along d, past which a sample's level is
        # sign(e), or 0 in the dead zone: the gauge's +-0 coincide and are
        # crossed at twice the rate; an L1 sample heading in meets +-w1 and
        # then -+w1, one heading out (the released one too, if inward) +-w1
        e = phi.T @ d
        if release is None:
            # a sample joins the basis only when phi_j' d is above rounding
            e[np.abs(e) <= _TIE * (abs_phi_t @ np.abs(d))] = 0.0
        if gauge:
            cols = (level * e < 0.0).nonzero()[0]
            after, ahead, far = -level[cols], -c[cols], cols[:0]
        else:
            moving = level * e < np.abs(e)
            moving[tied] = False
            if release is not None and sides[release] == -sigma:
                moving[tied[release]] = True
            cols = moving.nonzero()[0]
            heading, after = level[cols], np.sign(e[cols])
            theta = (after + 2.0 * heading) * w1[cols]
            far = heading.nonzero()[0]
            cols = np.concatenate([cols, cols[far]])
            theta = np.concatenate([theta, -theta[far]])
            after = np.concatenate([after * (heading == 0.0), after[far]])
            ahead = theta - c[cols]
        ec = e[cols]
        # minus the rate: the sort key, and the slope's decrements
        neg_rate = (-2.0 if gauge else -1.0) * np.abs(ec)
        at = np.where(np.abs(ahead) > tol[cols], ahead / ec, 0.0)
        # the long-step ratio test: the crossings by at (ties: the larger rate
        # first) up to the one that turns the slope, sorted only in a window
        # of the smallest at, widened eightfold until the slope turns in it.
        # The running slope, slope minus the running sum of -rate, falls
        # monotonically, so its turn is found by bisection on its negation
        window = 256
        while True:
            if window < at.size:
                near = (at <= np.partition(at, window - 1)[window - 1]).nonzero()[0]
                order = near[np.lexsort((neg_rate[near], at[near]))]
            else:
                order = np.lexsort((neg_rate, at))
            stop = int(np.searchsorted(-neg_rate[order].cumsum(), -slope))
            if stop < order.size or order.size == at.size:
                break
            window *= 8
        if stop == order.size:
            outcome = "unbounded" if _farkas(phi, target, d) is not None else "stalled"
            return outcome, d, level, math.nan, steps, tied, c
        hit = order[stop]
        p = p + at[hit] * d
        if release is not None:
            level[tied[release]] = 0.0 if sides[release] == -sigma else sigma
        # past a threshold the level is sign(e), or 0 in the dead zone; past
        # both, beyond the second
        crossed = order[:stop]
        level[cols[crossed]] = after[crossed]
        if far.size:
            crossed = crossed[crossed >= cols.size - far.size]
            level[cols[crossed]] = after[crossed]
        j = int(cols[hit])
        side = 0.0 if gauge else float(np.sign(theta[hit]))
        if release is None:
            tied.append(j)
            sides.append(side)
            basis = np.concatenate([basis, phi[:, j : j + 1]], axis=1)
        else:
            tied[release], sides[release] = j, side
            basis[:, k0 + release] = phi[:, j]
        steps += 1


def _certified(u, p, phi, target, w1, w2) -> tuple[bool, float]:
    """``(certified, gap / primal(u))``, the gap itself at a zero cost: the
    gap of ``u`` at ``p`` with its ``_rounding`` added, so that no costate
    passes by cancellation, is at most ``_TOL_DUAL`` times ``primal(u)``.
    ``solve``'s own status rule, below, adds no rounding bound."""
    j1, j2, gap = _gap(u, p, phi, target, w1, w2)
    primal = j1 + j2
    gap += _rounding(phi, target, p)
    return gap <= _TOL_DUAL * primal, gap / primal if primal > 0.0 else gap


def solve(program: DiscreteProgram, *, _start=None, _layout=None) -> SolveReport:
    """Solve ``program`` on its costate dual, deterministically.

    A pure-L1 program (every quadratic weight 0) goes to its optimal vertex
    by the exchange method (``_exchange``) from ``p = 0``; ``iterations``
    counts exchanges.  Otherwise every quadratic weight must be positive,
    and one Newton ascent (``_ascend``) runs at the program's own weights
    from ``p = 0``, or from ``_start`` (private, for
    ``analysis.sweep_tradeoff``: the costate of a converged solve of the
    same ``phi``, ``target`` and L1 weights under other quadratic weights,
    or of the same problem and weights transcribed on a coarser grid);
    ``iterations`` counts Newton steps.  The ascent runs on ``_layout``
    (private, for the same caller: a ``_Layout`` of ``program.phi`` shared
    by the solves of one map, one at a time), or on a fresh one when none
    is given or it was made for another map; the report is the same
    bit for bit.  A layout's arrays are views of one block, reused from
    the last collected layout when it fits (``_Layout``; at most one block,
    of up to ``_SPARE_BYTES``, is kept between layouts), so no view of one
    outlives it: ``solve`` copies the control off the layout, and the
    report holds none of its memory.  For either method
    the status is "max_iter" when the method spent its budget,
    "infeasible_suspected" when it ended "unbounded" (on a ``p`` that
    ``_farkas`` verified), "converged" when the residual and gap contract
    holds, and "stalled" otherwise (with its finite ``duality_gap``).
    Raises ``ValueError`` when a sample carries neither weight or the
    quadratic weights mix zero and positive.  A horizon below the minimum
    time, or a target outside the span of a rank deficient ``phi``, is
    reported "infeasible_suspected" with a Farkas certificate in
    ``costate``: ``target' p > sum |phi' p|``.
    """
    phi = program.phi
    target = program.target
    w1 = program.l1_weights
    w2 = program.l2_weights
    n, mn = phi.shape
    # one pass decides the common case, every quadratic weight positive
    if mn > 0 and w2.min() > 0.0:
        p = np.zeros(n) if _start is None else _start
        if _layout is None or _layout.phi is not phi:
            _layout = _Layout(phi)
        # u is the control law at the returned c = phi' p; both are rows of
        # the layout, which the report must not hold
        p, c, u, iterations, outcome = _ascend(_layout, target, w1, w2, p, _MAX_ITER)
        u = u.copy()
    else:
        if np.any((w1 == 0.0) & (w2 == 0.0)):
            raise ValueError("every sample needs a positive L1 or quadratic weight")
        if np.any(w2 > 0.0):
            raise ValueError("quadratic weights must be all zero or all positive")
        # u = 0 meets a target at the rounding floor (the ascent's stopping
        # rule at p = 0), where the exact vertex's gap is rounding noise
        p, c, u, iterations, outcome = np.zeros(n), None, np.zeros(mn), 0, "optimal"
        if math.sqrt(target @ target) > _STOP_REL:
            outcome, p, u, _, iterations, _, _ = _exchange(phi, target, w1, _MAX_ITER)
            u = np.clip(u, -1.0, 1.0) + 0.0  # no -0.0 in the dead zone
    miss = phi @ u - target
    eq_abs = math.sqrt(miss @ miss)
    root_mn = math.sqrt(mn)
    j1, j2, gap = _gap(u, p, phi, target, w1, w2, c)
    primal = j1 + j2
    if outcome == "max_iter":
        status = outcome
    elif outcome == "unbounded":
        # no feasible control, so no gap: the dual is unbounded along p
        status, gap = "infeasible_suspected", math.nan
    elif (
        eq_abs <= _TOL_EQ * max(1.0, math.sqrt(target @ target))
        and eq_abs / root_mn <= _TOL_PRIMAL
        and abs(gap) <= _TOL_DUAL * primal
    ):
        status = "converged"
    else:
        status = "stalled"
    return SolveReport(
        u=ControlTrajectory(h=program.h, u=u.reshape(program.n_samples, program.m)),
        j1=j1,
        j2=j2,
        iterations=iterations,
        primal_residual=eq_abs / root_mn,
        dual_residual=abs(gap) / primal if primal > 0.0 else abs(gap),
        eq_residual=eq_abs,
        status=status,
        costate=p,
        duality_gap=gap,
    )


def solve_problem(problem: ControlProblem) -> SolveReport:
    """Transcribe ``problem`` on its grid and solve it."""
    return solve(transcribe(problem))


def _mapped_vertex(m, n_steps, h, vertex):
    """The columns of another grid's vertex, moved to a grid of ``n_steps``
    samples of length ``h``, in column order.

    ``vertex = (h_old, n_old, tied)``: the step, sample count and basis
    columns of a ``_gauge`` vertex on another grid.  Column ``j``, sample
    ``k = n_old - 1 - j // m`` from the end and channel ``j % m``, moves to
    sample ``round((k + 1/2) h_old / h - 1/2)`` from the end (the same time
    to go, clamped), same channel; ``()`` when two land on one sample.
    """
    h_old, n_old, tied = vertex
    moved = set()
    for j in tied:
        k = round((n_old - 1 - j // m + 0.5) * (h_old / h) - 0.5)
        moved.add((n_steps - 1 - min(max(k, 0), n_steps - 1)) * m + j % m)
    return sorted(moved) if len(moved) == len(tied) else ()


def _gauge(phi, target, tied=()):
    """Largest multiple of ``target`` that ``phi`` reaches under ``|v| <= 1``.

    Returns ``(s, v, p, tied, support)`` with ``phi @ v = s * target``,
    ``|v| <= 1`` and ``target' p = 1``, where ``s = sum |phi' p|`` is the
    least such sum, so the origin is reachable iff ``s >= 1`` (by ``u = v /
    s``), ``tied`` the optimal basis in column order, and ``support`` that
    sum as computed, ``sum |c|`` from the exchanges' own ``c = phi' p``:
    ``_exchange`` with every threshold at 0, from the vertex of the columns
    ``tied`` or cold; None without an optimal vertex.  ``target`` must be
    nonzero (the cold start divides by ``target' target``); ``s = 0`` when it
    lies outside the span of ``phi``.  Its one caller in the package,
    ``_certified_gauge``, passes only targets above the reach floor.
    """
    outcome, p, v, s, _, tied, c = _exchange(phi, target, 0.0, _MAX_EXCHANGES, tied)
    if outcome != "optimal":
        return None
    return s, v, p, sorted(tied), float(np.abs(c).sum())


def _certified_gauge(phi, target, tied=()):
    """``(log s, p, support, tied)`` from ``_gauge``, with its ``support =
    sum |phi' p|`` (priced once, by the exchanges), or None unless a
    certificate backs it.

    A horizon counts as reachable when a control with ``|u| <= 1`` misses the
    target by at most ``_REACH_FLOOR * max(1, |target|)``.  The zero control
    is tested first: it misses by ``|target|``, so a target inside the floor
    (``|target| <= 1e-8``) is reached with no exchange, and the value is
    ``(0, 0, 0, tied)``.  Above the floor, ``s >= 1`` counts when the control
    ``u = clip(v / s)`` misses by at most the floor, the value then ``log
    max(s, 1)``; and ``s < 1`` counts when ``p`` is a Farkas certificate
    (``_farkas``), the value then the log of ``support``, or of the rounding
    bound when larger (finite where ``s = 0``), over ``target' p``.
    """
    tnorm = math.sqrt(target @ target)
    if not (math.isfinite(tnorm) and np.isfinite(phi).all()):
        return None
    if tnorm <= _REACH_FLOOR * max(1.0, tnorm):
        return 0.0, np.zeros(target.shape[0]), 0.0, tied
    found = _gauge(phi, target, tied)
    if found is None:
        return None
    s, v, p, tied, support = found
    if s > 0.0:
        miss = phi @ np.minimum(np.maximum(v / s, -1.0), 1.0) - target
        if math.sqrt(miss @ miss) <= _REACH_FLOOR * max(1.0, tnorm):
            return math.log(max(s, 1.0)), p, support, tied
    ratio = _farkas(phi, target, p, support)
    return None if ratio is None else (math.log(ratio), p, support, tied)


def _gauge_slope(support: float, p, more, n_steps: int) -> float:
    """Envelope slope ``d log s / d log T`` of the gauge at its vertex ``p``.

    With ``(extra, grown) = more(p)`` for one more sample, ``p`` scaled back
    to ``target' p = 1`` bounds the gauge by ``(s + extra) / grown``, ``s =
    support = sum |phi' p|``: exactly the new gauge while ``p`` stays
    optimal, and to first order (LP sensitivity) at a vertex that is the
    only optimum.  The slope is that change of ``log s`` over ``log((N + 1)
    / N)``, or 2 where the ratio is not a positive number (``s = 0``,
    ``grown <= 0``).
    """
    extra, grown = more(p)
    slope = 2.0
    if support > 0.0 and grown > 0.0:
        slope = (math.log1p(extra / support) - math.log(grown)) / math.log1p(1.0 / n_steps)
    return slope if 0.0 < slope < math.inf else 2.0


def minimum_time(
    plant: LtiPlant, x0, grid_density: float = 100.0, tol_t: float = 0.01
) -> float:
    """Shortest horizon at which the origin is reachable under ``|u| <= 1``.

    Root finding on ``log s(T)``, where ``s(T)`` (``_gauge``) is the largest
    multiple of the required terminal response that the reach condition at
    ``grid_density`` samples per second attains; the origin is reachable iff
    ``s(T) >= 1``.  The search starts at ``max(1, T_lb)``, where ``T_lb`` is
    the largest over the modes ``z = v'x`` (``v'A = mu v'``) of ``-log(1 - a
    Re mu) / Re mu``, ``a = |v'x0| / |B'v|_1`` (``a`` itself at ``Re mu =
    0``): under ``|u| <= 1``, ``d|z|/dt >= Re mu |z| - |B'v|_1``, so no
    control, sampled or not, brings the mode to rest sooner.  Where ``a Re mu
    >= 1`` the mode never comes to rest; that is the unstable-mode refusal
    below, and such a mode (within the refusal's margin) gives no bound.
    ``T_lb`` only places the first horizon and certifies nothing.  Each
    horizon gives ``log s`` and its slope against ``log T``
    (``_gauge_slope``), and the next horizon is a Newton step
    aimed ``tol_t / 2`` past the predicted root, at most twofold up and
    fourfold down; a root predicted within ``tol_t`` is tested by a probe
    ``tol_t`` across, moved inward by the ulps that keep the computed
    bracket width at most ``tol_t``.  A Newton step that leaves the bracket
    is replaced by regula falsi (Illinois); where ``log s`` is 0 on a
    stretch below a horizon, the step down doubles from ``tol_t / 2`` (or
    one ulp of the horizon) and ``log T`` is bisected.  When the ends have
    k and k + 1 samples and a horizon lands on the same side again, the
    last horizon with k samples and the first with k + 1 decide whether the
    root lies at that jump.  Each horizon's exchanges start at the last
    one's optimal basis, its columns moved to the new grid by their time to
    go (``_mapped_vertex``); that basis is all a horizon passes on.  A
    horizon whose target is inside the reach floor (``|target| <= 1e-8``,
    the zero control's miss) counts as reachable with ``log s = 0`` and no
    exchange; ``x0 = 0`` returns ``tol_t`` at once.  The
    returned ``T`` is certified reachable (terminal miss at most ``1e-8 *
    max(1, |target|)``), and a horizon ``L`` certified unreachable by a
    Farkas costate (or 0) has ``T - L <= tol_t`` in floating point, or
    ``T`` the next double above ``L`` when ``tol_t`` is below their
    spacing.  Raises ``numpy.linalg.LinAlgError``
    for a pair that fails ``plant.hautus_test``, and ``RuntimeError`` when
    no finite horizon exists (an unstable mode ``z = v'x``, ``v'A = mu v'``,
    starts at ``|v'x0| >= |B'v|_1 / Re mu``), or, naming the horizon, when a
    horizon verifies neither certificate (rounding on a strongly unstable
    plant), or when ``T_lb`` or the horizons pass 1e6 s before a reachable
    one, and ``ValueError`` for a non-finite ``x0`` or a ``grid_density``
    or ``tol_t`` that is not positive and finite.
    """
    x0 = _initial_state(x0, plant.n)
    if not 0.0 < grid_density < math.inf:
        raise ValueError(f"grid_density must be positive and finite, got {grid_density}")
    if not 0.0 < tol_t < math.inf:
        raise ValueError(f"tol_t must be positive and finite, got {tol_t}")
    hautus_test(plant)
    eigvals, left = np.linalg.eig(plant.a.T)
    # the first horizon: no mode can come to rest sooner than its bound
    start = 1.0
    for mu, v in zip(eigvals, left.T):
        pull = float(np.sum(np.abs(plant.b.T @ v)))
        if mu.real > 0.0 and abs(v @ x0) * mu.real > (1.0 + _FARKAS_MARGIN) * pull:
            raise RuntimeError(
                f"no finite minimum time: the mode of the unstable eigenvalue "
                f"{mu:.6g} starts {abs(v @ x0) * mu.real / pull:.6g} times as far "
                "out as |u| <= 1 can bring it back to rest"
            )
        reach, rate = float(abs(v @ x0)) / pull, float(mu.real)
        if reach * rate < 1.0:
            start = max(start, -math.log1p(-reach * rate) / rate if rate != 0.0 else reach)
    if not np.any(x0):
        return tol_t
    growth = float(np.max(eigvals.real))
    vertex = None

    def samples(horizon: float) -> int:
        return max(1, math.ceil(horizon * grid_density))

    def log_gauge(horizon: float) -> tuple[float, float]:
        nonlocal vertex
        n_steps = samples(horizon)
        h = horizon / n_steps
        phi, target, more = _reach_condition(plant, x0, horizon, n_steps)
        tied = () if vertex is None else _mapped_vertex(plant.m, n_steps, h, vertex)
        found = _certified_gauge(phi, target, tied)
        if found is None:
            raise RuntimeError(
                f"minimum time undecided: neither certificate verifies at "
                f"T = {horizon:.6g} (max Re lambda * T = {growth * horizon:.3g})"
            )
        value, p, support, tied = found
        slope = _gauge_slope(support, p, more, n_steps)
        vertex = (h, n_steps, tied)
        return value, slope

    # each step starts from the latest horizon t, an end of the bracket.
    # Newton steps go at most twofold up (further up, the certificates fail)
    # and fourfold down.  Illinois: an end that stays while the other moves
    # twice counts half.  While log s is 0 at t, the step down doubles, drop,
    # and once an unreachable horizon is below, log T is bisected
    lo, y_lo, hi, y_hi = 0.0, -math.inf, math.inf, 0.0
    t, drop, moved = start, 0.0, 0
    # a map that overflows verifies no certificate; log_gauge's raise says so
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if t > 1e6:
                raise RuntimeError("no feasible horizon found below 1e6 seconds")
            y, slope = log_gauge(t)
            side = -1 if y < 0.0 else 1
            same, moved = side == moved, side
            if y < 0.0:
                lo, y_lo = t, y
                if same:
                    y_hi *= 0.5
            else:
                hi, y_hi = t, y
                if same:
                    y_lo *= 0.5
            # a bracket with no double strictly inside is as narrow as it gets
            if hi - lo <= tol_t or math.nextafter(lo, math.inf) >= hi:
                return hi
            # ends with k and k + 1 samples: test the last horizon with k samples,
            # then (unreachable) the first with k + 1
            k = samples(lo)
            if lo > 0.0 and hi < math.inf and samples(hi) == k + 1:
                edge = k / grid_density
                while samples(edge) > k:
                    edge = math.nextafter(edge, 0.0)
                while samples(math.nextafter(edge, math.inf)) == k:
                    edge = math.nextafter(edge, math.inf)
                if same or lo == edge:
                    t = edge if lo < edge else math.nextafter(edge, math.inf)
                    continue
            probe = t + tol_t if y < 0.0 else t - tol_t
            while abs(probe - t) > tol_t:
                probe = math.nextafter(probe, t)
            ratio = math.exp(min(max(-y / slope, math.log(0.25)), math.log(2.0)))
            if y < 0.0:
                t = min(2.0 * t, ratio * t + 0.5 * tol_t)
            elif y > 0.0:
                t = max(0.25 * t, ratio * t - 0.5 * tol_t, 0.5 * tol_t)
            else:
                # a step under one ulp of t would evaluate t again
                drop = 2.0 * drop if drop > 0.0 else max(0.5 * tol_t, math.ulp(t))
                t = max(math.sqrt(lo * hi) if lo > 0.0 else 0.25 * t, t - drop, 0.5 * tol_t)
            if not lo < t < hi:
                t = lo * (hi / lo) ** (y_lo / (y_lo - y_hi)) if y_hi > 0.0 else hi
                if not t < hi and drop > 0.0:
                    t = max(math.sqrt(lo * hi), hi - drop)
                    drop *= 2.0
            elif abs(t - probe) <= 0.5 * tol_t and lo < probe < hi:
                # the predicted root is within tol_t of the latest horizon
                t = probe
                continue
            # while no horizon is known reachable, the Newton step's cap of 2 lo holds
            floor = lo + 0.5 * tol_t if hi < math.inf else min(lo + 0.5 * tol_t, 2.0 * lo)
            t = min(max(t, floor), hi - 0.5 * tol_t)
