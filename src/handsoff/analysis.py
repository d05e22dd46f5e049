"""Sparsity, switching-structure, and smoothness diagnostics for sampled controls.

A sampled control is "off" where ``|u| <= DEFAULT_EPS`` (1e-2), a band that
reads rounding as zero; it is one constant, read by every diagnostic, the
CLI's report and ``verify``.  The diagnostics quantify how long the control
is active, where it switches between the levels {-1, 0, +1}, how close it
is to a bang-off-bang signal, and how fast it moves between samples.
``costate_consistency`` certifies a control optimal, in any mode, by the
duality gap of the solver's own program: a costate, read off the control's
samples inside the bound or else found by the solver for the control's
terminal response, must price the control's cost to within the solver's
tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .plant import ControlProblem, ControlTrajectory
from . import solver

# not called here: the benchmark's tracer (perfbench/tracing.py) hooks
# handsoff.analysis.linprog, .expm and .solve_problem, so the names stay
# importable
from .plant import expm  # noqa: F401
from .solver import solve_problem  # noqa: F401


def __getattr__(name):
    # linprog resolves on first lookup, so that importing the package leaves
    # scipy.optimize unloaded
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "HandsOffMetrics",
    "TradeoffPoint",
    "l0_measure",
    "l0_per_channel",
    "switching_times",
    "bangoffbang_score",
    "derivative_supnorm",
    "compute_metrics",
    "sweep_tradeoff",
    "costate_consistency",
]

# the off band |u| <= DEFAULT_EPS, and the band around each level +-1, of
# every diagnostic, the CLI's report and verify's structure check
DEFAULT_EPS = 1e-2

# quantization code for samples that sit between the bands around {-1, 0, +1}
_BETWEEN = 9

# sweep_tradeoff starts each point of a grid of at least _COARSE_FROM samples
# from the same r solved on N // _COARSE_RATIO samples.  A coarse Newton step
# costs about 0.13 ms (500 samples of two inputs), so the coarse level pays
# only where a fine step costs several times that.  The sweep alone, with a
# coarse level at every size against one grid, each grid's layout shared by
# its solves, on tradeoff_long's one-input chains / two-input plants (min
# of 63 alternations, one BLAS thread, 2-vCPU VM): +62% / +43% at
# N = 1000, +26% / +21% at 2000, +10% / -6% at 4000, -14% / -18% at 8000
_COARSE_FROM = 4096
_COARSE_RATIO = 16


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

    ``iterations`` counts the Newton steps of this point's solve (``r > 0``)
    on the problem's own grid; the steps of a coarse solve that gave it its
    start are not counted.
    """

    r: float
    l0_seconds: float
    derivative_supnorm: float
    status: str = "converged"
    iterations: int = 0


def _off(u: np.ndarray) -> np.ndarray:
    """The off band: where ``|u| <= DEFAULT_EPS``; a sample outside it is active."""
    return np.abs(u) <= DEFAULT_EPS


def l0_per_channel(control: ControlTrajectory) -> np.ndarray:
    """Active time ``h * #{k : |u_i[k]| > DEFAULT_EPS}`` of each channel, seconds."""
    counts = np.count_nonzero(~_off(control.u), axis=0)
    return control.h * counts.astype(float)


def l0_measure(control: ControlTrajectory, *, weights=None) -> float:
    """Weighted sum of per-channel active times (the sparsity objective value).

    ``weights`` are the per-channel L1 weights of the hands-off objective;
    omitted they default to 1, which for a single input is the plain support
    measure in seconds.
    """
    per_channel = l0_per_channel(control)
    if weights is None:
        weights = np.ones(control.n_inputs)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.shape[0] != control.n_inputs:
        raise ValueError(
            f"weights must have length {control.n_inputs}, got {weights.shape[0]}"
        )
    return float(weights @ per_channel)


def _union_support_seconds(control: ControlTrajectory) -> float:
    """Time at least one channel is active, seconds."""
    # channel by channel: numpy's all(axis=1) across rows of a few channels
    # is slow (at 8000 samples of two channels, 135 us against 9 us)
    off = functools.reduce(np.logical_and, _off(control.u).T)
    return control.h * float(np.count_nonzero(~off))


def _quantize(u: np.ndarray) -> np.ndarray:
    """Codes -1/0/+1 within ``DEFAULT_EPS`` of each level, _BETWEEN elsewhere."""
    codes = np.full(u.shape, _BETWEEN, dtype=int)
    codes[_off(u)] = 0
    codes[np.abs(u - 1.0) <= DEFAULT_EPS] = 1
    codes[np.abs(u + 1.0) <= DEFAULT_EPS] = -1
    return codes


def switching_times(control: ControlTrajectory) -> np.ndarray:
    """Grid times where the quantized ternary level changes, any channel.

    Samples between the quantization bands inherit the previous level, so a
    one-sample transition ramp produces a single switch; the reported time is
    the start of the first sample at the new level.
    """
    codes = _quantize(control.u).T
    # the clean samples, channel by channel in time order
    channel, k = np.nonzero(codes != _BETWEEN)
    level = codes[channel, k]
    switch = (channel[1:] == channel[:-1]) & (level[1:] != level[:-1])
    return np.unique(k[1:][switch] * control.h)


def bangoffbang_score(control: ControlTrajectory) -> float:
    """Fraction of samples within ``DEFAULT_EPS`` of one of the levels {-1, 0, +1}."""
    return float(np.mean(_quantize(control.u) != _BETWEEN))


def _max_jump(control: ControlTrajectory) -> float:
    """Largest adjacent-sample change ``max |u[k+1] - u[k]|``; 0 for N = 1."""
    return float(np.max(np.abs(np.diff(control.u, axis=0)), initial=0.0))


def derivative_supnorm(control: ControlTrajectory) -> float:
    """Largest adjacent-sample slope ``max |u[k+1] - u[k]| / h``; 0 for N = 1."""
    return _max_jump(control) / control.h


def compute_metrics(control: ControlTrajectory) -> HandsOffMetrics:
    """All hands-off diagnostics of one control."""
    l0 = _union_support_seconds(control)
    duration = control.duration
    jump = _max_jump(control)
    return HandsOffMetrics(
        l0_seconds=l0,
        handsoff_fraction=1.0 - l0 / duration,
        switching_times=switching_times(control),
        bangoffbang_score=bangoffbang_score(control),
        derivative_supnorm=jump / control.h,
        max_jump=jump,
    )


def sweep_tradeoff(problem: ControlProblem, r_values) -> list[TradeoffPoint]:
    """Solve the mixed-cost problem across quadratic weights ``r_values``.

    The L1 weight stays at ``problem.lam``; each point records the support
    measure, the largest control slope and its Newton steps.  The sweep is
    one continuation path: the problem is transcribed once and only the
    quadratic weights change per point; the points are solved from the
    largest ``r`` down, each Newton ascent starting from the costate of the
    last converged point.  On a grid of at least 4096 samples the same path
    is also walked on the problem transcribed with ``N // 16`` samples,
    each coarse point starting from the last converged coarse costate, and
    a point starts from the coarse costate at its own ``r`` when that
    coarse solve converged (else as above): the sampled costate needs no
    rescaling between grids, so the coarse one lands close to the fine
    optimum.  The solves on one grid share its ``solver._Layout``, so the
    arrays that depend on the map alone are made once per grid.  Points
    come back ordered by increasing ``r``; a point whose solve does not
    converge keeps its solver status and NaN metrics so callers can mark
    it.
    """
    r_values = np.asarray(r_values, dtype=float).reshape(-1)
    if r_values.size == 0:
        raise ValueError("r_values must be nonempty")
    if np.any(r_values <= 0.0) or not np.all(np.isfinite(r_values)):
        raise ValueError("r_values must be positive and finite")
    r_values = np.sort(r_values)
    problem = replace(problem, r=float(r_values[-1]), mode="L1L2")
    program = solver.transcribe(problem)
    layout = solver._Layout(program.phi)
    coarse = None
    if problem.N >= _COARSE_FROM:
        coarse = solver.transcribe(replace(problem, N=problem.N // _COARSE_RATIO))
        coarse_layout = solver._Layout(coarse.phi)
    start = coarse_start = None
    points = []
    for r in r_values[::-1]:
        fine_start = start
        if coarse is not None:
            coarse = replace(coarse, l2_weights=np.full(coarse.phi.shape[1], r * coarse.h))
            report = solver.solve(coarse, _start=coarse_start, _layout=coarse_layout)
            if report.status == "converged":
                coarse_start = fine_start = report.costate
        program = replace(program, l2_weights=np.full(program.phi.shape[1], r * program.h))
        report = solver.solve(program, _start=fine_start, _layout=layout)
        l0, slope = math.nan, math.nan
        if report.status == "converged":
            start = report.costate
            l0 = _union_support_seconds(report.u)
            slope = derivative_supnorm(report.u)
        points.append(TradeoffPoint(float(r), l0, slope, report.status, report.iterations))
    return points[::-1]


def costate_consistency(
    problem: ControlProblem, control: ControlTrajectory
) -> tuple[bool, float]:
    """Certify ``control`` optimal for ``problem``'s objective by weak duality.

    The control is optimal among those that reach its own terminal response
    iff a costate ``p`` closes the duality gap of the transcribed program
    with that response, ``phi @ clip(U, -1, 1)``, as its target: the gap
    ``primal(U) - g(p)`` is nonnegative for every ``p`` and bounds how far
    the control's cost is above the optimum.  An optimal control carries its
    costate: on each sample strictly inside the bound, ``0 < |U_j| < 1``,
    the control law fixes ``phi_j' p = sign(U_j) w1_j + w2_j U_j``, and
    ``p`` is first read off those samples by least squares.  When fewer
    than n samples are inside, or that ``p`` does not certify, ``p`` comes
    from ``solver.solve`` on the program instead.  Either costate is judged
    by ``solver._certified``, so a wrong ``p`` can only reject: the gap with
    a bound on its rounding added, at most the relative bound a converged
    solve meets.  Returns ``(certified, gap / cost)``, or the gap itself for
    a zero cost, for the costate that decided.
    """
    if control.n_inputs != problem.plant.m:
        raise ValueError(
            f"control has {control.n_inputs} channels, plant expects {problem.plant.m}"
        )
    if control.n_steps != problem.N or not math.isclose(control.h, problem.h):
        raise ValueError(
            f"control grid {control.n_steps} x {control.h:.6g} s does not match "
            f"the problem's {problem.N} x {problem.h:.6g} s"
        )
    u = np.clip(control.u.reshape(-1), -1.0, 1.0)
    program = solver.transcribe(problem)
    phi, w1, w2 = program.phi, program.l1_weights, program.l2_weights
    target = phi @ u
    inside = (np.abs(u) > 0.0) & (np.abs(u) < 1.0)
    if np.count_nonzero(inside) >= phi.shape[0]:
        # the control law read backwards on its unsaturated, nonzero branch
        law = np.sign(u[inside]) * w1[inside] + w2[inside] * u[inside]
        p = np.linalg.lstsq(phi[:, inside].T, law, rcond=None)[0]
        found = solver._certified(u, p, phi, target, w1, w2)
        if found[0]:
            return found
    p = solver.solve(replace(program, target=target)).costate
    return solver._certified(u, p, phi, target, w1, w2)
