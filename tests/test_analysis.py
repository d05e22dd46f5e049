"""Tests for the sparsity metrics, switching structure, and optimality checks."""

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

import handsoff.solver
from handsoff import (
    ControlProblem,
    ControlTrajectory,
    LtiPlant,
    bangoffbang_score,
    compute_metrics,
    costate_consistency,
    derivative_supnorm,
    l0_measure,
    l0_per_channel,
    solve_l1,
    solve_problem,
    sweep_tradeoff,
    switching_times,
    ternary_transitions_ok,
)


def double_integrator() -> LtiPlant:
    return LtiPlant(a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [1.0]])


def traj(values, h=0.1) -> ControlTrajectory:
    u = np.asarray(values, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    return ControlTrajectory(h=h, u=u)


@lru_cache(maxsize=1)
def sparse_solution():
    problem = ControlProblem(
        plant=double_integrator(), x0=[1.0, 0.0], T=4.0, N=200, lam=1.0, mode="L1"
    )
    report = solve_l1(problem)
    assert report.status == "converged"
    return report


# ---------------------------------------------------------------------------
# support measures


def test_l0_counts_samples_above_threshold():
    control = traj([0.0, 0.3, 0.0, -1.0, 0.005], h=0.5)
    np.testing.assert_allclose(l0_per_channel(control), [1.0])
    assert l0_measure(control) == pytest.approx(1.0)


def test_l0_measure_weights_channels():
    u = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 1.0]])
    control = ControlTrajectory(h=0.25, u=u)
    np.testing.assert_allclose(l0_per_channel(control), [0.5, 0.5])
    assert l0_measure(control, weights=[2.0, 3.0]) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        l0_measure(control, weights=[1.0])


def test_union_support_never_exceeds_duration():
    u = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    metrics = compute_metrics(ControlTrajectory(h=0.25, u=u))
    # three of four samples have some channel active
    assert metrics.l0_seconds == pytest.approx(0.75)
    assert metrics.handsoff_fraction == pytest.approx(0.25)


def test_epsilon_validation():
    control = traj([0.0, 1.0])
    tiny = ControlProblem(plant=double_integrator(), x0=[1.0, 0.0], T=4.0, N=10)
    for eps in (0.0, -0.1, 0.5, 1.0):
        with pytest.raises(ValueError):
            l0_per_channel(control, epsilon=eps)
        with pytest.raises(ValueError):
            switching_times(control, epsilon=eps)
        with pytest.raises(ValueError):
            bangoffbang_score(control, delta=eps)
        with pytest.raises(ValueError, match="epsilon"):
            sweep_tradeoff(tiny, [0.1], epsilon=eps)


# ---------------------------------------------------------------------------
# switching structure


def test_switching_times_of_a_square_wave_are_exact():
    control = traj([0.0] * 5 + [1.0] * 5 + [0.0] * 5 + [-1.0] * 5, h=0.1)
    np.testing.assert_allclose(switching_times(control), [0.5, 1.0, 1.5])


def test_one_sample_ramp_counts_as_a_single_switch():
    # the 0.5 sample sits between quantization bands and inherits the
    # previous level, so off -> ramp -> on is one switch at the on sample
    control = traj([0.0, 0.0, 0.5, 1.0, 1.0], h=0.1)
    np.testing.assert_allclose(switching_times(control), [0.3])


def test_constant_control_never_switches():
    assert switching_times(traj([1.0] * 8)).size == 0
    assert switching_times(traj([0.0] * 8)).size == 0


def test_bangoffbang_score_counts_ternary_samples():
    assert bangoffbang_score(traj([-1.0, 0.0, 1.0, 1.0])) == 1.0
    assert bangoffbang_score(traj([0.5, 0.5])) == 0.0
    assert bangoffbang_score(traj([0.5, 1.0, 0.0, -1.0])) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        bangoffbang_score(traj([0.0]), delta=0.0)


def test_transition_check_accepts_one_sample_ramps_between_levels():
    assert ternary_transitions_ok(traj([0.0, 0.0, 0.4, 1.0, 1.0])) == (True, "")
    assert ternary_transitions_ok(traj([1.0, -0.3, -1.0, -0.5, 0.0]))[0]
    assert ternary_transitions_ok(traj([-1.0, 0.0, 1.0])) == (True, "")


def test_transition_check_rejects_fraction_inside_constant_interval():
    ok, reason = ternary_transitions_ok(traj([1.0, 1.0, 0.6, 1.0, 0.0]))
    assert not ok
    assert "channel 1: fractional sample 2 (u = 0.6) inside a constant interval" in reason


def test_transition_check_rejects_fraction_at_either_grid_edge():
    ok, reason = ternary_transitions_ok(traj([0.5, 1.0, 1.0]))
    assert not ok and reason == "channel 1: fractional sample 0 at a grid edge"
    ok, reason = ternary_transitions_ok(traj([0.0, 1.0, -0.5]))
    assert not ok and reason == "channel 1: fractional sample 2 at a grid edge"


def test_transition_check_reads_every_channel():
    first_clean = [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]
    assert ternary_transitions_ok(traj(first_clean)) == (True, "")
    stray = [[1.0, 0.0], [1.0, 0.3], [1.0, 0.0]]
    ok, reason = ternary_transitions_ok(traj(stray))
    assert not ok and reason.startswith("channel 2: fractional sample 1")
    ramp = [[1.0, 0.0], [1.0, 0.3], [1.0, 1.0]]
    assert ternary_transitions_ok(traj(ramp)) == (True, "")
    with pytest.raises(ValueError):
        ternary_transitions_ok(traj(stray), delta=0.5)


def test_derivative_supnorm_of_simple_signals():
    assert derivative_supnorm(traj([0.7] * 10)) == 0.0
    ramp = traj(np.arange(10) * 0.1, h=0.1)
    assert derivative_supnorm(ramp) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        derivative_supnorm(traj([1.0]))


def test_metrics_are_symmetric_under_negation():
    report = sparse_solution()
    control = report.u
    flipped = ControlTrajectory(h=control.h, u=-control.u)
    a = compute_metrics(control)
    b = compute_metrics(flipped)
    assert a.l0_seconds == b.l0_seconds
    assert a.bangoffbang_score == b.bangoffbang_score
    np.testing.assert_allclose(a.switching_times, b.switching_times)


def test_metrics_of_a_sparse_solve_are_consistent():
    report = sparse_solution()
    metrics = compute_metrics(report.u)
    assert metrics.l0_seconds == pytest.approx(report.j0, abs=1e-12)
    assert 0.0 < metrics.l0_seconds < 4.0
    assert metrics.bangoffbang_score >= 0.98
    assert np.all(np.diff(metrics.switching_times) > 0.0)
    assert metrics.max_jump == pytest.approx(metrics.derivative_supnorm * report.u.h)


# ---------------------------------------------------------------------------
# costate consistency


def test_costate_accepts_the_zero_control():
    feasible, residual = costate_consistency(
        double_integrator(), traj([0.0] * 20, h=0.1), lam=1.0
    )
    assert feasible
    assert residual <= 1e-9


def test_costate_accepts_a_converged_sparse_solution():
    report = sparse_solution()
    feasible, residual = costate_consistency(
        double_integrator(), report.u, lam=1.0
    )
    assert feasible
    assert residual <= 1e-2


def test_costate_rejects_dense_alternation():
    # the input-mapped costate of the double integrator is affine in time, so
    # it cannot alternate across the threshold sample by sample
    u = np.tile([1.0, -1.0], 50)
    feasible, residual = costate_consistency(
        double_integrator(), traj(u, h=0.02), lam=1.0
    )
    assert not feasible
    assert residual > 0.1


def test_costate_is_symmetric_under_negation():
    report = sparse_solution()
    control = report.u
    flipped = ControlTrajectory(h=control.h, u=-control.u)
    _, res_a = costate_consistency(double_integrator(), control, lam=1.0)
    _, res_b = costate_consistency(double_integrator(), flipped, lam=1.0)
    assert res_a == pytest.approx(res_b, abs=1e-8)


def test_costate_input_validation():
    plant = double_integrator()
    control = traj([1.0] * 4)
    with pytest.raises(ValueError):
        costate_consistency(plant, ControlTrajectory(h=0.1, u=np.ones((4, 2))))
    with pytest.raises(ValueError):
        costate_consistency(plant, control, lam=0.0)
    with pytest.raises(ValueError):
        costate_consistency(plant, control, epsilon=0.0)


# ---------------------------------------------------------------------------
# tradeoff sweep


def test_sweep_orders_points_and_marks_success():
    problem = ControlProblem(
        plant=double_integrator(), x0=[1.0, 0.0], T=4.0, N=100, lam=1.0, r=1.0,
        mode="L1L2",
    )
    points = sweep_tradeoff(problem, [1.0, 1e-2, 1e-1])
    assert [p.r for p in points] == [1e-2, 1e-1, 1.0]
    for p in points:
        assert p.status == "converged"
        assert np.isfinite(p.l0_seconds)
        assert np.isfinite(p.derivative_supnorm)
    # heavier quadratic weight smooths the control
    assert points[-1].derivative_supnorm <= points[0].derivative_supnorm + 1e-9


def test_sweep_marks_failed_points_with_nan_metrics():
    problem = ControlProblem(
        plant=double_integrator(), x0=[1.0, 0.0], T=1.0, N=50, lam=1.0, r=1.0,
        mode="L1L2",
    )
    # the horizon is below the minimum time, so the point cannot converge
    points = sweep_tradeoff(problem, [0.1])
    assert len(points) == 1
    assert points[0].status != "converged"
    assert math.isnan(points[0].l0_seconds)
    assert math.isnan(points[0].derivative_supnorm)


def test_sweep_rejects_bad_weight_lists():
    problem = ControlProblem(
        plant=double_integrator(), x0=[1.0, 0.0], T=4.0, N=50, lam=1.0, r=1.0,
        mode="L1L2",
    )
    with pytest.raises(ValueError):
        sweep_tradeoff(problem, [])
    with pytest.raises(ValueError):
        sweep_tradeoff(problem, [0.0, 1.0])
    with pytest.raises(ValueError):
        sweep_tradeoff(problem, [np.inf])


# the chain of the paper's fourth-order example, and a lightly damped
# three-state plant with two inputs
SWEEP_PROBLEMS = {
    "chain": ControlProblem(
        plant=LtiPlant(
            a=[[0, -1, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
            b=[[2], [0], [0], [0]],
        ),
        x0=[1.0, 1.0, 1.0, 1.0],
        T=10.0,
        N=1000,
        lam=1.0,
    ),
    "two_input": ControlProblem(
        plant=LtiPlant(
            a=[[-0.3, 2.0, 0.0], [-2.0, -0.3, 0.0], [0.5, 0.0, -0.8]],
            b=[[1.0, 0.0], [0.2, 0.7], [0.0, 1.0]],
        ),
        x0=[1.0, -0.5, 0.8],
        T=4.0,
        N=600,
        lam=[1.0, 0.5],
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEP_PROBLEMS))
def test_sweep_matches_cold_solves_on_one_transcription(name, monkeypatch):
    problem = SWEEP_PROBLEMS[name]
    # unsorted, non-decade ratios, and one weight twice
    r_values = list(np.logspace(-3.0, 1.0, 9)[::-1]) + [0.1]
    transcribe = handsoff.solver.transcribe
    calls = []

    def counting_transcribe(*args, **kwargs):
        calls.append(args)
        return transcribe(*args, **kwargs)

    monkeypatch.setattr(handsoff.solver, "transcribe", counting_transcribe)
    points = sweep_tradeoff(problem, r_values)
    assert len(calls) == 1

    assert [p.r for p in points] == sorted(r_values)
    cold = [solve_problem(replace(problem, r=p.r, mode="L1L2")) for p in points]
    for point, report in zip(points, cold):
        assert point.status == report.status == "converged", point
        assert point.l0_seconds == compute_metrics(report.u).l0_seconds, point
        assert point.derivative_supnorm == pytest.approx(
            derivative_supnorm(report.u), rel=1e-9
        ), point
    # the largest weight starts from zero, like the cold solve; every other
    # point starts where the one above it converged
    assert points[-1].iterations == cold[-1].iterations
    assert sum(p.iterations for p in points) < sum(r.iterations for r in cold)
