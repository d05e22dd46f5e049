"""Transcription of control problems to finite convex programs and their dual solver.

Under a zero-order hold the reach condition is linear in the stacked control,
so a control problem becomes

    minimize    sum_j w1_j |U_j|  +  (1/2) sum_j w2_j U_j**2
    subject to  phi @ U = target,      |U_j| <= 1,

with per-sample weights ``w1 = lam_i * h`` and ``w2 = r_i * h`` (rectangle
rule).  Its dual has one variable per state, the terminal costate ``p``
(the multiplier of ``phi @ U = target``).  Given ``p`` the program separates
sample by sample: with ``c = phi' p`` the minimizing control is
``scalar_ops.control_law(c, w1, w2)``, the saturated soft threshold
``sat(shrink(c, w1) / w2)`` where ``w2 > 0`` and the dead-zone level
``dead_zone(c, w1)`` where ``w2 = 0``, the optimality conditions of the paper
in transcribed form.  The dual

    g(p) = target' p + sum_j min_{|u| <= 1} (w1_j |u| + w2_j u**2 / 2 - c_j u)

is concave; for ``w2 > 0`` it is differentiable with gradient
``target - phi @ U(p)`` and generalized Hessian ``-phi_B diag(1/w2) phi_B'``,
where ``phi_B`` keeps the columns of the samples inside the unsaturated band
``w1 < |c| < w1 + w2``.  ``solve`` maximizes it by a damped semismooth
Newton method; each step solves one n-by-n system.

A small quadratic weight makes the dual nearly piecewise linear, and none
(pure L1) makes it exactly so.  The ascent therefore runs in stages on the
weights ``max(w2, eps * w1)``, ``eps`` lowered tenfold per stage from 1 and
the costate carried from stage to stage, until the program's own weights
are reached.  Where a sample has no quadratic weight, the exact control is
recovered after each stage: samples clear of the threshold take their
dead-zone level, and the few tied samples (``|c| ~ w1``) are fitted to the
terminal constraint by bounded least squares.  Every returned control
carries its costate, and the duality gap ``primal(U) - g(p)`` certifies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
from scipy.optimize import lsq_linear

from .plant import (
    ControlProblem,
    ControlTrajectory,
    LtiPlant,
    _require_controllable,
    controllability_gramian,
    discretize,
    reachability_matrix,
)
from .scalar_ops import control_law

__all__ = [
    "DiscreteProgram",
    "SolveReport",
    "transcribe",
    "solve",
    "solve_problem",
    "solve_l1",
    "solve_l1l2",
    "solve_l2",
    "minimum_time",
]

# the "converged" contract: terminal residual at most _TOL_EQ relative to
# max(1, |target|) and at most _TOL_PRIMAL per root-sample, duality gap at most
# _TOL_DUAL relative to the objective, within _MAX_ITER Newton steps summed over
# all smoothing stages.  Converged solves mostly land at the rounding floor, so
# tighter bounds change little; looser ones accept a smoothing stage far from
# the optimum (README, numerical notes)
_TOL_PRIMAL = _TOL_DUAL = _TOL_EQ = 1e-6
_MAX_ITER = 50000
# the Newton ascent stops once the terminal residual is this small relative to
# the size of the terms it is made of, |target| and || |phi| |U| ||; rounding
# keeps it from reaching a bound relative to |target| alone
_STOP_REL = 1e-10
# share of the full-band curvature added to every Newton system, so that a
# band with fewer than n samples still gives a well-scaled ascent direction
_REG = 1e-10
# line search: strong Wolfe factor, largest step, and evaluations per bracket
_WOLFE = 0.1
_MAX_STEP = 2.0**40
_SEARCH_EVALS = 50
# the ascent also counts as stalled when this many steps in a row fail to cut
# the smallest terminal residual seen so far by the factor _PROGRESS: on
# strongly unstable plants rounding sets a floor above the stopping rule
_PATIENCE = 30
_PROGRESS = 0.99
# the smallest quadratic weight of each Newton stage, as a multiple of the L1
# weight, largest first
_SMOOTHING = 10.0 ** -np.arange(13)
# a dual point p is a Farkas certificate of infeasibility when
# target'p exceeds sum |phi' p| by more than this share
_FARKAS_MARGIN = 1e-9


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
        for field, val in (("phi", phi), ("target", target)):
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
    control under the program weights; ``j0`` is ``analysis.l0_measure`` of it
    at the default threshold, weighted by the per-channel L1 weight when one
    is present.  ``eq_residual`` is the absolute terminal-constraint
    residual ``||phi U - target||`` and ``primal_residual`` the same per
    root-sample.  ``costate`` is the terminal costate ``p`` of the program
    (the multiplier of ``phi U = target``; away from ties the control is the
    control law at ``phi' p``, and ``-p`` is the costate in the sign
    convention of ``costate_consistency``).  ``duality_gap`` is
    ``primal(U) - g(p)`` under the program weights and ``dual_residual`` the
    same relative to the objective.  ``iterations`` counts Newton steps.
    ``status`` is one of "converged", "max_iter", "infeasible_suspected"; on
    "converged" the control satisfies the amplitude bound exactly,
    ``eq_residual <= 1e-6 * max(1, |target|)``, ``primal_residual <= 1e-6``
    and ``dual_residual <= 1e-6``, within 50,000 Newton steps (fixed
    tolerances, not settings); on "infeasible_suspected"
    ``costate`` is a Farkas certificate, ``target' p > sum |phi' p|``,
    and ``duality_gap`` is NaN.
    """

    u: ControlTrajectory
    j1: float
    j2: float
    j0: float
    iterations: int
    primal_residual: float
    dual_residual: float
    eq_residual: float
    status: str
    costate: np.ndarray
    duality_gap: float


def transcribe(problem: ControlProblem) -> DiscreteProgram:
    """Build the finite program for ``problem`` on its own control grid.

    Mode "L1" drops the quadratic weights, mode "L2" drops the L1 weights,
    mode "L1L2" keeps both.  Objective weights carry the rectangle-rule factor
    ``h``.
    """
    h = problem.h
    ad, bd = discretize(problem.plant, h)
    phi, free = reachability_matrix(ad, bd, problem.N)
    target = -(free @ problem.x0)
    lam = problem.lam if problem.mode != "L2" else np.zeros(problem.plant.m)
    r = problem.r if problem.mode != "L1" else np.zeros(problem.plant.m)
    return DiscreteProgram(
        phi=phi,
        target=target,
        l1_weights=np.tile(lam, problem.N) * h,
        l2_weights=np.tile(r, problem.N) * h,
        h=h,
        m=problem.plant.m,
    )


def _dual(p, phi, target, w1, w2) -> float:
    """Dual value ``g(p)``, evaluated at the control ``U(p)``."""
    c = phi.T @ p
    u = control_law(c, w1, w2)
    return float(target @ p + np.sum(w1 * np.abs(u) + 0.5 * w2 * u * u - c * u))


def _line_search(c, e, slope0, w1, w2):
    """Step ``t > 0`` that nearly maximizes the dual along a direction ``d``.

    ``c = phi' p``, ``e = phi' d`` and ``slope0 = target' d``; the slope of
    the dual along ``d`` is ``slope0 - e' U(c + t e)``, piecewise linear and
    nonincreasing in ``t``.  Returns the first ``t`` found at which it is
    within ``_WOLFE`` times its value at 0 of zero (the strong Wolfe
    condition), by doubling from 1 to bracket the maximizer and then
    regula falsi (Illinois variant) inside the bracket; returns 0 when
    rounding leaves no ascent along ``d``.
    """

    def slope(t):
        return slope0 - float(e @ control_law(c + t * e, w1, w2))

    s_lo, lo = slope(0.0), 0.0
    if not s_lo > 0.0:
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


def _ascend(phi, abs_phi, target, w1, w2, p, budget):
    """Damped semismooth Newton ascent on the dual with weights ``w2 > 0``.

    Starts at ``p`` and takes at most ``budget`` steps.  Returns
    ``(p, c, u, steps, outcome)`` where ``outcome`` is "converged" (terminal
    residual at the rounding floor), "stalled" (no ascent direction left, or
    the residual stopped falling), "infeasible_suspected" (``p`` is a Farkas
    certificate), or "max_iter" (budget spent).
    """
    reg = _REG * ((phi / w2) @ phi.T)
    tsize = max(1.0, float(np.linalg.norm(target)))
    c = phi.T @ p
    u = control_law(c, w1, w2)
    best = math.inf
    since_best = 0
    steps = 0
    while True:
        grad = target - phi @ u
        gnorm = float(np.linalg.norm(grad))
        size = max(tsize, float(np.linalg.norm(abs_phi @ np.abs(u))))
        if gnorm <= _STOP_REL * size:
            return p, c, u, steps, "converged"
        # an ascent that escapes to infinity leaves along a certificate
        if target @ p > (1.0 + _FARKAS_MARGIN) * float(np.sum(np.abs(c))):
            return p, c, u, steps, "infeasible_suspected"
        if gnorm < _PROGRESS * best:
            best, since_best = gnorm, 0
        elif since_best == _PATIENCE:
            return p, c, u, steps, "stalled"
        else:
            since_best += 1
        if steps == budget:
            return p, c, u, steps, "max_iter"
        band = (np.abs(c) > w1) & (np.abs(c) < w1 + w2)
        phi_b = phi[:, band]
        hess = (phi_b / w2[band]) @ phi_b.T + reg
        try:
            newton = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            newton = np.linalg.lstsq(hess, grad, rcond=None)[0]
        # rounding can turn the Newton direction against the gradient, or
        # leave no ascent along it; the gradient still ascends
        for direction in (np.sign(newton @ grad) * newton, grad):
            e = phi.T @ direction
            t = _line_search(c, e, float(target @ direction), w1, w2)
            if t > 0.0:
                break
        else:
            return p, c, u, steps, "stalled"
        p = p + t * direction
        c = phi.T @ p
        u = control_law(c, w1, w2)
        steps += 1


def _recover(phi, target, p, c, w1, w2, w2_stage):
    """Exact control and costate from a smoothed stage at costate ``p``, ``c = phi' p``.

    On the samples without quadratic weight, those clear of the threshold
    keep their dead-zone level, and the tied ones, ``||c| - w1| <=
    w2_stage``, are fitted to the terminal constraint by bounded least
    squares within their sign.  The costate then moves, by least squares,
    to where the fitted samples strictly inside ``(0, 1)`` meet their
    optimality condition ``c_j = sign(u_j) w1_j``; the move is kept only if
    it raises the dual.  Returns ``(u, p)``, or None when more than ``2 n``
    samples are tied (the stage is still too smooth to tell).
    """
    tied = (w2 == 0.0) & (np.abs(np.abs(c) - w1) <= w2_stage)
    if np.count_nonzero(tied) > 2 * phi.shape[0]:
        return None
    u = control_law(c, w1, w2)
    if np.any(tied):
        u[tied] = 0.0
        sign = np.where(c[tied] < 0.0, -1.0, 1.0)
        fit = lsq_linear(
            phi[:, tied] * sign, target - phi @ u, bounds=(0.0, 1.0), method="bvls"
        )
        u[tied] = sign * fit.x
        inside = tied & (np.abs(u) > 0.0) & (np.abs(u) < 1.0)
        if np.any(inside):
            miss = np.sign(u[inside]) * w1[inside] - c[inside]
            q = p + np.linalg.lstsq(phi[:, inside].T, miss, rcond=None)[0]
            if _dual(q, phi, target, w1, w2) > _dual(p, phi, target, w1, w2):
                p = q
    return u, p


def solve(program: DiscreteProgram) -> SolveReport:
    """Solve ``program`` by semismooth Newton ascent on its costate dual.

    Deterministic: the costate starts at zero and every step is fixed by the
    data.  Raises ``numpy.linalg.LinAlgError`` when ``phi`` is row rank
    deficient (terminal constraint unreachable for every control), and
    ``ValueError`` when a sample carries neither an L1 nor a quadratic weight.
    A horizon below the minimum time is reported "infeasible_suspected" with
    a Farkas certificate in ``costate``: ``target' p > sum |phi' p|``.
    """
    phi = program.phi
    target = program.target
    w1 = program.l1_weights
    w2 = program.l2_weights
    n, mn = phi.shape
    if np.any((w1 == 0.0) & (w2 == 0.0)):
        raise ValueError("every sample needs a positive L1 or quadratic weight")
    try:
        scipy.linalg.cho_factor(phi @ phi.T)
    except scipy.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "reachability map is rank deficient; the plant may be uncontrollable "
            "or the grid too short"
        ) from exc

    abs_phi = np.abs(phi)
    tnorm = max(1.0, float(np.linalg.norm(target)))
    root_mn = math.sqrt(mn)
    l1_only = w2 == 0.0
    p = np.zeros(n)
    iterations = 0
    status = "max_iter"
    for eps in _SMOOTHING:
        w2_stage = np.maximum(w2, eps * w1)
        p, c, u, steps, outcome = _ascend(
            phi, abs_phi, target, w1, w2_stage, p, _MAX_ITER - iterations
        )
        iterations += steps
        if outcome in ("converged", "stalled") and np.any(l1_only):
            # with too many ties to recover, the smoothed control itself may
            # still be certified (for example along a singular arc)
            exact = _recover(phi, target, p, c, w1, w2, w2_stage)
            if exact is not None:
                u, p = exact
        # the duality gap bounds how far primal(u) is above the optimum
        eq_abs = float(np.linalg.norm(phi @ u - target))
        primal = float(w1 @ np.abs(u) + 0.5 * (w2 @ (u * u)))
        gap = primal - _dual(p, phi, target, w1, w2)
        if outcome in ("max_iter", "infeasible_suspected"):
            status = outcome
            break
        if (
            eq_abs <= _TOL_EQ * tnorm
            and eq_abs / root_mn <= _TOL_PRIMAL
            and abs(gap) <= _TOL_DUAL * primal
        ):
            status = "converged"
            break
        # a stalled stage, or one at the program's own weights, is the last
        if outcome == "stalled" or np.array_equal(w2_stage, w2):
            break
    if status == "infeasible_suspected":
        # no feasible control, so no gap: the dual is unbounded along p
        gap = math.nan
    # imported here because analysis imports this module at load time
    from .analysis import l0_measure

    control = ControlTrajectory(h=program.h, u=u.reshape(program.n_samples, program.m))
    lam = program.l1_weights[: program.m] / program.h
    return SolveReport(
        u=control,
        j1=float(w1 @ np.abs(u)),
        j2=0.5 * float(w2 @ u**2),
        j0=l0_measure(control, weights=lam if np.any(lam > 0.0) else None),
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


def solve_l1(problem: ControlProblem) -> SolveReport:
    """Solve for the sparsest (L1-cost) control; requires ``lam > 0``."""
    return solve_problem(replace(problem, mode="L1"))


def solve_l1l2(problem: ControlProblem) -> SolveReport:
    """Solve with the mixed L1 plus quadratic cost; requires ``lam > 0, r > 0``."""
    return solve_problem(replace(problem, mode="L1L2"))


def solve_l2(problem: ControlProblem) -> SolveReport:
    """Solve for the minimum-energy control; requires ``r > 0``."""
    return solve_problem(replace(problem, mode="L2"))


def _reachable(plant: LtiPlant, x0: np.ndarray, horizon: float, density: float) -> bool:
    """Whether the amplitude-bounded controls can hit the origin at ``horizon``.

    Minimizes the terminal-constraint residual under the amplitude bound
    (bounded least squares) and tests it against a tight relative floor.
    """
    n_steps = max(1, math.ceil(horizon * density))
    ad, bd = discretize(plant, horizon / n_steps)
    phi, free = reachability_matrix(ad, bd, n_steps)
    target = -(free @ x0)
    tnorm = float(np.linalg.norm(target))
    if tnorm == 0.0:
        return True
    res = lsq_linear(phi, target, bounds=(-1.0, 1.0), method="bvls")
    return float(np.linalg.norm(res.fun)) <= 1e-8 * max(1.0, tnorm)


def minimum_time(
    plant: LtiPlant, x0, grid_density: float = 100.0, tol_t: float = 0.01
) -> float:
    """Shortest horizon at which the origin is reachable under ``|u| <= 1``.

    Bisection on the feasibility of the transcribed reach condition at
    ``grid_density`` samples per second; the returned horizon is feasible and
    within ``tol_t`` of the infeasible end of the bracket.  Raises
    ``numpy.linalg.LinAlgError`` for an uncontrollable pair.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != plant.n:
        raise ValueError(f"x0 must have length {plant.n}, got {x0.shape[0]}")
    if not grid_density > 0.0:
        raise ValueError(f"grid_density must be positive, got {grid_density}")
    if not tol_t > 0.0:
        raise ValueError(f"tol_t must be positive, got {tol_t}")
    _require_controllable(
        controllability_gramian(plant, 1.0),
        "minimum time is undefined for an uncontrollable pair",
    )

    t_lo = 0.0
    t_hi = tol_t
    while not _reachable(plant, x0, t_hi, grid_density):
        t_lo = t_hi
        t_hi *= 2.0
        if t_hi > 1e6:
            raise RuntimeError("no feasible horizon found below 1e6 seconds")
    while t_hi - t_lo > tol_t:
        mid = 0.5 * (t_lo + t_hi)
        if _reachable(plant, x0, mid, grid_density):
            t_hi = mid
        else:
            t_lo = mid
    return t_hi
