"""Sparsity, switching-structure, and smoothness diagnostics for sampled controls.

A sampled control is "off" where its magnitude stays below a small threshold
``epsilon`` (default 1e-2).  The diagnostics quantify how long the control is
active, where it switches between the levels {-1, 0, +1}, how close it is to
a bang-off-bang signal, and how fast it moves between samples; a costate
check verifies a claimed sparse control against the necessary conditions of
L1 optimality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linprog

from .plant import (
    ControlProblem,
    ControlTrajectory,
    LtiPlant,
    expm,
    reachability_matrix,
)
from . import solver
# not called here: the benchmark's tracer (perfbench/tracing.py) hooks
# handsoff.analysis.solve_problem, so the name stays importable
from .solver import solve_problem

__all__ = [
    "HandsOffMetrics",
    "TradeoffPoint",
    "l0_measure",
    "l0_per_channel",
    "switching_times",
    "bangoffbang_score",
    "ternary_transitions_ok",
    "derivative_supnorm",
    "compute_metrics",
    "sweep_tradeoff",
    "costate_consistency",
]

DEFAULT_EPS = 1e-2

# quantization code for samples that sit between the bands around {-1, 0, +1}
_BETWEEN = 9


@dataclass(frozen=True)
class HandsOffMetrics:
    """Summary of the sparsity and switching structure of one control.

    ``l0_seconds`` measures the time at least one channel is active (so it
    never exceeds the duration), ``handsoff_fraction`` its complement relative
    to the duration.  ``switching_times`` are strictly increasing grid times
    where the quantized level of some channel changes.  ``max_jump`` is the
    largest adjacent-sample change, ``derivative_supnorm`` the same divided by
    the step.
    """

    l0_seconds: float
    handsoff_fraction: float
    switching_times: np.ndarray
    bangoffbang_score: float
    derivative_supnorm: float
    max_jump: float


@dataclass(frozen=True)
class TradeoffPoint:
    """One solve of the sparsity/smoothness sweep at quadratic weight ``r``.

    ``iterations`` counts the Newton steps of this point's solve.
    """

    r: float
    l0_seconds: float
    derivative_supnorm: float
    status: str = "converged"
    iterations: int = 0


def _check_eps(epsilon: float) -> None:
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 0.5), got {epsilon}")


def l0_per_channel(control: ControlTrajectory, epsilon: float = DEFAULT_EPS) -> np.ndarray:
    """Active time ``h * #{k : |u_i[k]| > epsilon}`` of each channel, seconds."""
    _check_eps(epsilon)
    counts = np.count_nonzero(np.abs(control.u) > epsilon, axis=0)
    return control.h * counts.astype(float)


def l0_measure(
    control: ControlTrajectory, epsilon: float = DEFAULT_EPS, weights=None
) -> float:
    """Weighted sum of per-channel active times (the sparsity objective value).

    ``weights`` are the per-channel L1 weights of the hands-off objective;
    omitted they default to 1, which for a single input is the plain support
    measure in seconds.
    """
    per_channel = l0_per_channel(control, epsilon)
    if weights is None:
        weights = np.ones(control.n_inputs)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.shape[0] != control.n_inputs:
        raise ValueError(
            f"weights must have length {control.n_inputs}, got {weights.shape[0]}"
        )
    return float(weights @ per_channel)


def _union_support_seconds(control: ControlTrajectory, epsilon: float) -> float:
    """Time at least one channel is active, seconds."""
    active = np.any(np.abs(control.u) > epsilon, axis=1)
    return control.h * float(np.count_nonzero(active))


def _quantize(u: np.ndarray, epsilon: float) -> np.ndarray:
    """Codes -1/0/+1 within ``epsilon`` of each level, _BETWEEN elsewhere."""
    codes = np.full(u.shape, _BETWEEN, dtype=int)
    codes[np.abs(u) <= epsilon] = 0
    codes[np.abs(u - 1.0) <= epsilon] = 1
    codes[np.abs(u + 1.0) <= epsilon] = -1
    return codes


def switching_times(control: ControlTrajectory, epsilon: float = DEFAULT_EPS) -> np.ndarray:
    """Grid times where the quantized ternary level changes, any channel.

    Samples between the quantization bands inherit the previous level, so a
    one-sample transition ramp produces a single switch; the reported time is
    the start of the first sample at the new level.
    """
    _check_eps(epsilon)
    codes = _quantize(control.u, epsilon)
    times: set[float] = set()
    for i in range(control.n_inputs):
        prev = None
        for k in range(control.n_steps):
            c = codes[k, i]
            if c == _BETWEEN:
                continue
            if prev is not None and c != prev:
                times.add(k * control.h)
            prev = c
    return np.array(sorted(times))


def bangoffbang_score(control: ControlTrajectory, delta: float = DEFAULT_EPS) -> float:
    """Fraction of samples within ``delta`` of one of the levels {-1, 0, +1}."""
    _check_eps(delta)
    return float(np.mean(_quantize(control.u, delta) != _BETWEEN))


def ternary_transitions_ok(
    control: ControlTrajectory, delta: float = DEFAULT_EPS
) -> tuple[bool, str]:
    """Whether off-level samples appear only as transitions between levels.

    A sample farther than ``delta`` from every level {-1, 0, +1} is allowed
    only when the nearest clean samples before and after it, in its own
    channel, sit at different levels (a zero-order-hold switching instant
    straddles a grid cell); a stray fractional sample inside a constant
    interval, or one with no clean sample on one side, fails.  Returns
    ``(ok, reason)``, with an empty reason when ``ok``.
    """
    _check_eps(delta)
    codes = _quantize(control.u, delta)
    for i in range(control.n_inputs):
        col = codes[:, i]
        clean = np.nonzero(col != _BETWEEN)[0]
        for k in np.nonzero(col == _BETWEEN)[0]:
            j = np.searchsorted(clean, k)
            if j == 0 or j == clean.size:
                return False, f"channel {i + 1}: fractional sample {k} at a grid edge"
            if col[clean[j - 1]] == col[clean[j]]:
                return False, (
                    f"channel {i + 1}: fractional sample {k} "
                    f"(u = {control.u[k, i]:.6g}) inside a constant interval"
                )
    return True, ""


def _max_jump(control: ControlTrajectory) -> float:
    return float(np.max(np.abs(np.diff(control.u, axis=0))))


def derivative_supnorm(control: ControlTrajectory) -> float:
    """Largest adjacent-sample slope ``max |u[k+1] - u[k]| / h``; needs N >= 2."""
    if control.n_steps < 2:
        raise ValueError("derivative_supnorm needs at least two samples")
    return _max_jump(control) / control.h


def compute_metrics(
    control: ControlTrajectory, epsilon: float = DEFAULT_EPS
) -> HandsOffMetrics:
    """All hands-off diagnostics of one control; ``epsilon`` is the support
    threshold and the quantization band."""
    _check_eps(epsilon)
    l0 = _union_support_seconds(control, epsilon)
    duration = control.duration
    jump = _max_jump(control) if control.n_steps >= 2 else 0.0
    return HandsOffMetrics(
        l0_seconds=l0,
        handsoff_fraction=1.0 - l0 / duration,
        switching_times=switching_times(control, epsilon),
        bangoffbang_score=bangoffbang_score(control, epsilon),
        derivative_supnorm=jump / control.h,
        max_jump=jump,
    )


def sweep_tradeoff(
    problem: ControlProblem,
    r_values,
    epsilon: float = DEFAULT_EPS,
) -> list[TradeoffPoint]:
    """Solve the mixed-cost problem across quadratic weights ``r_values``.

    The L1 weight stays at ``problem.lam``; each point records the support
    measure, the largest control slope and its Newton steps.  The sweep is
    one continuation path: the problem is transcribed once and only the
    quadratic weights change per point; the points are solved from the
    largest ``r`` down, each starting from the costate of the last converged
    point and skipping the smoothing stages it has passed (the same homotopy
    ``solver.solve`` follows inside one solve).  Points come back ordered by
    increasing ``r``; a point whose solve does not converge keeps its solver
    status and NaN metrics so callers can mark it.
    """
    _check_eps(epsilon)
    r_values = np.asarray(r_values, dtype=float).reshape(-1)
    if r_values.size == 0:
        raise ValueError("r_values must be nonempty")
    if np.any(r_values <= 0.0) or not np.all(np.isfinite(r_values)):
        raise ValueError("r_values must be positive and finite")
    r_values = np.sort(r_values)
    program = solver.transcribe(replace(problem, r=float(r_values[-1]), mode="L1L2"))
    start = None
    points = []
    for r in r_values[::-1]:
        program = replace(program, l2_weights=np.full(program.phi.shape[1], r * program.h))
        report = solver.solve(program, _start=start)
        converged = report.status == "converged"
        if converged:
            start = (report.costate, program.l2_weights)
        points.append(
            TradeoffPoint(
                r=float(r),
                l0_seconds=_union_support_seconds(report.u, epsilon)
                if converged
                else math.nan,
                derivative_supnorm=derivative_supnorm(report.u)
                if converged
                else math.nan,
                status=report.status,
                iterations=report.iterations,
            )
        )
    return points[::-1]


def costate_consistency(
    plant: LtiPlant,
    control: ControlTrajectory,
    lam=1.0,
    epsilon: float = DEFAULT_EPS,
) -> tuple[bool, float]:
    """Check a control against the sign structure of L1 optimality.

    An L1-optimal control is ``-dead_zone`` of the input-mapped costate, and
    the costate of a linear plant is determined by its terminal value, so a
    candidate control is consistent only if some terminal costate ``p``
    makes ``w_i(t) = b_i' exp(A'(T-t)) p`` satisfy, at every interval midpoint
    whose sample quantizes cleanly,

        u ~ +1  ->  w <= -lam,    u ~ -1  ->  w >= lam,    u ~ 0  ->  |w| <= lam.

    The smallest uniform violation over all such constraints is found exactly
    as a linear program over ``(p, s)``; the check passes when that residual
    is at most ``1e-2 * max(lam)``.  Returns ``(feasible, residual)``.
    """
    _check_eps(epsilon)
    if control.n_inputs != plant.m:
        raise ValueError(
            f"control has {control.n_inputs} channels, plant expects {plant.m}"
        )
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (plant.m,))
    if np.any(lam <= 0.0):
        raise ValueError("lam must be positive")

    n = plant.n
    h = control.h
    codes = _quantize(control.u, epsilon).reshape(-1)
    # row k*m + i maps p to w_i at the midpoint of sample k:
    # exp(A (T - (k + 1/2) h)) B = Ad^(N-1-k) exp(A h/2) B
    maps = reachability_matrix(
        expm(plant.a * h), expm(plant.a * (0.5 * h)) @ plant.b, control.n_steps
    )[0].T
    lam_s = np.tile(lam, control.n_steps)
    bang = (codes == 1) | (codes == -1)
    off = codes == 0
    if not (np.any(bang) or np.any(off)):
        return True, 0.0
    c = np.vstack([codes[bang, None] * maps[bang], maps[off], -maps[off]])
    a_ub = np.hstack([c, -np.ones((c.shape[0], 1))])
    b_ub = np.concatenate([-lam_s[bang], lam_s[off], lam_s[off]])

    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * n + [(0.0, None)],
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"costate feasibility program failed: {res.message}")
    residual = float(res.x[-1])
    return residual <= 1e-2 * float(np.max(lam)), residual
