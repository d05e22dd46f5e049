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
    minimum_time,
    solve_problem,
    sweep_tradeoff,
    switching_times,
)
from handsoff.analysis import (
    DEFAULT_EPS,
    _COARSE_FROM,
    _COARSE_RATIO,
    _quantize,
    _union_support_seconds,
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
    report = solve_problem(problem)
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


@pytest.mark.parametrize("m", [1, 2, 3])
def test_union_support_is_the_row_wise_count(m):
    # the union is built channel by channel; it must count the samples of
    # the row-wise all(axis=1), with samples exactly at +-DEFAULT_EPS off
    rng = np.random.default_rng(m)
    n_steps = 4000
    u = rng.uniform(-1.0, 1.0, (n_steps, m)) * rng.choice([0.0, 0.005, 1.0], (n_steps, m))
    edge = rng.random((n_steps, m)) < 0.2
    u[edge] = DEFAULT_EPS * rng.choice([-1.0, 1.0], np.count_nonzero(edge))
    on = np.count_nonzero(~(np.abs(u) <= DEFAULT_EPS).all(axis=1))
    assert 0 < on < n_steps
    assert _union_support_seconds(ControlTrajectory(h=0.01, u=u)) == 0.01 * float(on)


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


def reference_switching_times(control):
    """``switching_times`` as a per-sample loop over each channel."""
    times = set()
    for i in range(control.n_inputs):
        prev = None
        for k in range(control.n_steps):
            v = control.u[k, i]
            if abs(v) <= DEFAULT_EPS:
                c = 0
            elif abs(v - 1.0) <= DEFAULT_EPS:
                c = 1
            elif abs(v + 1.0) <= DEFAULT_EPS:
                c = -1
            else:
                continue  # between the bands: inherits the previous level
            if prev is not None and c != prev:
                times.add(k * control.h)
            prev = c
    return np.array(sorted(times))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_switching_times_match_the_per_sample_loop(m):
    rng = np.random.default_rng(40 + m)
    for trial in range(20):
        n_steps = int(rng.integers(1, 300))
        # runs of levels, with between-band samples and near-level noise
        levels = rng.choice([-1.0, 0.0, 1.0], size=(n_steps, m))
        keep = rng.random((n_steps, m)) < 0.8
        for k in range(1, n_steps):
            levels[k] = np.where(keep[k], levels[k - 1], levels[k])
        u = levels + rng.uniform(-0.008, 0.008, (n_steps, m))
        between = rng.random((n_steps, m)) < 0.15
        u[between] = rng.uniform(-0.98, 0.98, np.count_nonzero(between))
        control = ControlTrajectory(h=float(rng.uniform(0.001, 0.3)), u=np.clip(u, -1, 1))
        got = switching_times(control)
        ref = reference_switching_times(control)
        assert got.dtype == ref.dtype == float, trial
        assert got.tobytes() == ref.tobytes(), trial


def test_bangoffbang_score_counts_ternary_samples():
    assert bangoffbang_score(traj([-1.0, 0.0, 1.0, 1.0])) == 1.0
    assert bangoffbang_score(traj([0.5, 0.5])) == 0.0
    assert bangoffbang_score(traj([0.5, 1.0, 0.0, -1.0])) == pytest.approx(0.75)


def test_off_band_is_closed_at_epsilon_in_every_metric():
    # |u| = eps is off and one ulp above it is on, alike in the per-channel
    # support, the union support and the quantization
    eps = DEFAULT_EPS
    above = np.nextafter(eps, 1.0)
    u = np.array([[eps, -eps], [above, -eps], [-eps, above], [-above, eps]])
    control = ControlTrajectory(h=0.5, u=u)
    active = np.array([[False, False], [True, False], [False, True], [True, False]])
    np.testing.assert_array_equal(l0_per_channel(control), [1.0, 0.5])
    assert _union_support_seconds(control) == 1.5
    assert compute_metrics(control).l0_seconds == 1.5
    np.testing.assert_array_equal(_quantize(u) != 0, active)


def test_derivative_supnorm_of_simple_signals():
    assert derivative_supnorm(traj([0.7] * 10)) == 0.0
    ramp = traj(np.arange(10) * 0.1, h=0.1)
    assert derivative_supnorm(ramp) == pytest.approx(1.0)
    assert derivative_supnorm(traj([1.0])) == 0.0


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
    assert metrics.l0_seconds == pytest.approx(l0_measure(report.u), abs=1e-12)
    assert 0.0 < metrics.l0_seconds < 4.0
    assert metrics.bangoffbang_score >= 0.98
    assert np.all(np.diff(metrics.switching_times) > 0.0)
    assert metrics.max_jump == pytest.approx(metrics.derivative_supnorm * report.u.h)


# ---------------------------------------------------------------------------
# costate consistency


def l1_problem(T=4.0, N=200) -> ControlProblem:
    return ControlProblem(
        plant=double_integrator(), x0=[1.0, 0.0], T=T, N=N, lam=1.0, mode="L1"
    )


def test_costate_accepts_the_zero_control():
    feasible, residual = costate_consistency(
        l1_problem(T=2.0, N=20), traj([0.0] * 20, h=0.1)
    )
    assert feasible
    assert residual <= 1e-9


def test_costate_accepts_a_converged_sparse_solution():
    report = sparse_solution()
    feasible, residual = costate_consistency(l1_problem(), report.u)
    assert feasible
    assert residual <= 1e-2


def test_costate_rejects_dense_alternation():
    # the input-mapped costate of the double integrator is affine in time, so
    # it cannot alternate across the threshold sample by sample
    u = np.tile([1.0, -1.0], 50)
    feasible, residual = costate_consistency(
        l1_problem(T=2.0, N=100), traj(u, h=0.02)
    )
    assert not feasible
    assert residual > 0.1


def test_costate_is_symmetric_under_negation():
    report = sparse_solution()
    control = report.u
    flipped = ControlTrajectory(h=control.h, u=-control.u)
    _, res_a = costate_consistency(l1_problem(), control)
    _, res_b = costate_consistency(l1_problem(), flipped)
    assert res_a == pytest.approx(res_b, abs=1e-8)


def test_costate_input_validation():
    problem = l1_problem(T=0.4, N=4)
    with pytest.raises(ValueError):
        costate_consistency(problem, ControlTrajectory(h=0.1, u=np.ones((4, 2))))
    with pytest.raises(ValueError):
        costate_consistency(problem, traj([1.0] * 5))
    with pytest.raises(ValueError):
        costate_consistency(problem, traj([1.0] * 4, h=0.2))


@pytest.mark.parametrize("mode", ["L1", "L1L2", "L2"])
def test_costate_certifies_each_mode_and_rejects_a_null_space_step(mode):
    problem = ControlProblem(
        plant=double_integrator(), x0=[1.0, 0.0], T=4.0, N=200, lam=1.0, r=1.0,
        mode=mode,
    )
    report = solve_problem(problem)
    assert report.status == "converged"
    assert costate_consistency(problem, report.u)[0]

    # step 1e-3 along a null-space direction of phi on the samples inside the
    # box: same terminal response, higher cost
    u = report.u.u.reshape(-1)
    phi = handsoff.solver.transcribe(problem).phi
    free = np.abs(u) < 0.9
    alternating = np.where(np.arange(u.size) % 2 == 0, 1.0, -1.0)[free]
    d = np.zeros_like(u)
    d[free] = alternating - np.linalg.pinv(phi[:, free]) @ (phi[:, free] @ alternating)
    stepped = u + 1e-3 * d / np.max(np.abs(d))
    assert np.linalg.norm(phi @ (stepped - u)) <= 1e-12
    assert np.max(np.abs(stepped)) <= 1.0
    certified, gap = costate_consistency(
        problem, ControlTrajectory(h=problem.h, u=stepped[:, None])
    )
    assert not certified
    assert gap > handsoff.solver._TOL_DUAL


@pytest.mark.parametrize("mode", ["L1", "L1L2", "L2"])
def test_costate_of_a_solver_output_is_read_off_without_a_solve(monkeypatch, mode):
    # an optimal control carries its costate on the samples inside the bound
    problem = ControlProblem(
        plant=double_integrator(), x0=[1.0, 0.0], T=4.0, N=200, lam=1.0, r=1.0,
        mode=mode,
    )
    report = solve_problem(problem)
    assert report.status == "converged"

    def no_solve(*args, **kwargs):
        raise AssertionError("costate_consistency solved the program")

    monkeypatch.setattr(handsoff.solver, "solve", no_solve)
    certified, gap = costate_consistency(problem, report.u)
    assert certified
    assert 0.0 <= gap <= handsoff.solver._TOL_DUAL


@pytest.mark.parametrize(
    "u, certified",
    [
        (np.zeros(200), True),
        # one sample inside the bound, fewer than n = 2
        (np.r_[0.5, np.zeros(199)], True),
        # +1 everywhere is the only control that reaches its response, and
        # that LP's dual optimum is attained (its primal is feasible): the
        # solve's optimal vertex certifies it, relative gap 3.6e-15
        (np.ones(200), True),
    ],
)
def test_costate_with_fewer_than_n_samples_inside_falls_back_to_a_solve(
    monkeypatch, u, certified
):
    solves = []
    solve = handsoff.solver.solve

    def counted(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(handsoff.solver, "solve", counted)
    verdict, _ = costate_consistency(l1_problem(T=20.0, N=200), traj(u, h=0.1))
    assert verdict == certified
    assert len(solves) == 1


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
# three-state plant with two inputs; the long grids are swept from a coarse
# level (sweep_tradeoff's _COARSE_FROM)
CHAIN = ControlProblem(
    plant=LtiPlant(
        a=[[0, -1, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        b=[[2], [0], [0], [0]],
    ),
    x0=[1.0, 1.0, 1.0, 1.0],
    T=10.0,
    N=1000,
    lam=1.0,
)
TWO_INPUT = ControlProblem(
    plant=LtiPlant(
        a=[[-0.3, 2.0, 0.0], [-2.0, -0.3, 0.0], [0.5, 0.0, -0.8]],
        b=[[1.0, 0.0], [0.2, 0.7], [0.0, 1.0]],
    ),
    x0=[1.0, -0.5, 0.8],
    T=4.0,
    N=600,
    lam=[1.0, 0.5],
)
SWEEP_PROBLEMS = {
    "chain": CHAIN,
    "chain_long": replace(CHAIN, N=8192),
    "two_input": TWO_INPUT,
    "two_input_long": replace(TWO_INPUT, N=4096),
}
# unsorted, non-decade ratios, and one weight twice
SWEEP_R = list(np.logspace(-3.0, 1.0, 9)[::-1]) + [0.1]


def counting(monkeypatch, name):
    """Replace ``handsoff.solver.<name>`` by a wrapper that lists each call's
    first argument and result."""
    original = getattr(handsoff.solver, name)
    calls = []

    def wrapper(arg, *args, **kwargs):
        result = original(arg, *args, **kwargs)
        calls.append((arg, result))
        return result

    monkeypatch.setattr(handsoff.solver, name, wrapper)
    return calls


def assert_matches_cold_solves(problem, points):
    assert [p.r for p in points] == sorted(SWEEP_R)
    cold = [solve_problem(replace(problem, r=p.r, mode="L1L2")) for p in points]
    for point, report in zip(points, cold):
        assert point.status == report.status == "converged", point
        assert point.l0_seconds == compute_metrics(report.u).l0_seconds, point
        assert point.derivative_supnorm == pytest.approx(
            derivative_supnorm(report.u), rel=1e-9
        ), point
    return cold


@pytest.mark.parametrize("name", sorted(SWEEP_PROBLEMS))
def test_sweep_matches_cold_solves_on_one_transcription(name, monkeypatch):
    # one program per grid, built by solver._transcribe; the fine grid's
    # build goes through transcribe, whose Hautus test the coarse one skips
    problem = SWEEP_PROBLEMS[name]
    tested = counting(monkeypatch, "transcribe")
    built = counting(monkeypatch, "_transcribe")
    points = sweep_tradeoff(problem, SWEEP_R)
    grids = [problem.N]
    if problem.N >= _COARSE_FROM:
        grids.append(problem.N // _COARSE_RATIO)
    assert [p.N for p, _ in built] == grids
    assert [p.N for p, _ in tested] == [problem.N]

    cold = assert_matches_cold_solves(problem, points)
    if problem.N < _COARSE_FROM:
        # the largest weight starts from zero, like the cold solve; every
        # other point starts where the one above it converged
        assert points[-1].iterations == cold[-1].iterations
    else:
        # the largest weight starts from the coarse costate at its r
        assert points[-1].iterations < cold[-1].iterations
    assert sum(p.iterations for p in points) < sum(r.iterations for r in cold)


def solved_bytes(report):
    """A report's control, costate, gap, status and steps, as exact bytes."""
    return (report.u.u.tobytes(), report.costate.tobytes(),
            np.float64(report.duality_gap).tobytes(), report.status, report.iterations)


def held_arrays(layout):
    """Every array a ``solver._Layout`` holds, its work rows included."""
    values, arrays = list(vars(layout).values()), []
    while values:
        value = values.pop()
        if isinstance(value, tuple):
            values.extend(value)
        elif isinstance(value, np.ndarray):
            arrays.append(value)
    return arrays


@pytest.mark.parametrize("name", ["chain_long", "two_input_long"])
def test_sweep_solves_on_shared_layouts_are_fresh_solves_bit_for_bit(name, monkeypatch):
    # the solves on each grid share one solver._Layout, whose buffers and
    # work rows each solve overwrites, and one program, whose quadratic
    # weight row each point rewrites: every solve must be the solve from
    # the same start, at the weights it saw, on a program and a layout of
    # its own, and no report may hold the layout's memory, so each report
    # still reads as it was returned once the whole sweep is done
    problem = SWEEP_PROBLEMS[name]
    solve = handsoff.solver.solve
    calls = []

    def recording(program, **kwargs):
        w2 = program.l2_weights.copy()
        report = solve(program, **kwargs)
        calls.append((replace(program, l2_weights=w2), kwargs, report, solved_bytes(report)))
        return report

    monkeypatch.setattr(handsoff.solver, "solve", recording)
    sweep_tradeoff(problem, SWEEP_R)
    monkeypatch.undo()
    grids = {problem.N, problem.N // _COARSE_RATIO}
    assert {program.n_samples for program, *_ in calls} == grids
    assert len(calls) == 2 * len(SWEEP_R)
    # each grid's points in turn, from the largest r down, at r h per sample
    r_seen = sorted(SWEEP_R, reverse=True)
    for i, (program, *_) in enumerate(calls):
        want = np.full(program.phi.shape[1], r_seen[i // 2] * program.h)
        assert program.l2_weights.tobytes() == want.tobytes()
    for program, kwargs, report, returned in calls:
        assert kwargs["_layout"].phi is program.phi
        assert solved_bytes(report) == returned
        for held in held_arrays(kwargs["_layout"]):
            assert not np.shares_memory(report.u.u, held)
            assert not np.shares_memory(report.costate, held)
        fresh = solve(program, _start=kwargs["_start"])
        assert solved_bytes(fresh) == returned, (program.n_samples, report.status)


def test_sweeps_of_one_problem_agree_and_leave_it_unchanged():
    # the quadratic weight row each point rewrites belongs to the sweep:
    # neither the caller's problem nor a second sweep of it sees its writes
    problem = SWEEP_PROBLEMS["chain_long"]
    arrays = (problem.plant.a, problem.plant.b, problem.x0, problem.lam, problem.r)
    before = [a.tobytes() for a in arrays]
    first = sweep_tradeoff(problem, SWEEP_R)
    assert sweep_tradeoff(problem, SWEEP_R) == first
    assert all(p.status == "converged" for p in first)
    assert [a.tobytes() for a in arrays] == before


def test_sweep_below_the_coarse_cut_transcribes_once(monkeypatch):
    problem = ControlProblem(
        plant=double_integrator(), x0=[1.0, 0.0], T=4.0, N=_COARSE_FROM - 1, lam=1.0
    )
    transcribed = counting(monkeypatch, "transcribe")
    assert sweep_tradeoff(problem, [1.0])[0].status == "converged"
    assert [p.N for p, _ in transcribed] == [_COARSE_FROM - 1]


def test_sweep_starts_from_fine_costates_where_the_coarse_grid_cannot_reach(
    monkeypatch,
):
    # an oscillator turning 0.9 pi in each coarse sample: its N // 16 grid
    # reaches less than its N grid, and T = 2 lies between the two grids'
    # minimum times
    N, T = 4096, 2.0
    w = 0.9 * math.pi * (N // _COARSE_RATIO) / T
    problem = ControlProblem(
        plant=LtiPlant(a=[[0.0, w], [-w, 0.0]], b=[[0.0], [1.0]]),
        x0=[1.0, 0.0],
        T=T,
        N=N,
        lam=1.0,
    )
    fine_time = minimum_time(problem.plant, problem.x0, grid_density=N / T)
    coarse_time = minimum_time(
        problem.plant, problem.x0, grid_density=(N // _COARSE_RATIO) / T
    )
    assert fine_time < T < coarse_time

    solved = counting(monkeypatch, "solve")
    points = sweep_tradeoff(problem, SWEEP_R)
    coarse = [report for program, report in solved if program.n_samples < N]
    assert len(coarse) == len(SWEEP_R)
    assert all(report.status != "converged" for report in coarse)
    monkeypatch.undo()
    cold = assert_matches_cold_solves(problem, points)
    # each point still starts where the one above it converged
    assert sum(p.iterations for p in points) < sum(r.iterations for r in cold)
