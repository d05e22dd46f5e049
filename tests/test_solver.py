"""Tests for the transcription, the costate-dual solver, and minimum time."""

import math
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import handsoff.solver
from handsoff import (
    ControlProblem,
    ControlTrajectory,
    DiscreteProgram,
    LtiPlant,
    costate_consistency,
    dead_zone,
    discretize,
    l0_measure,
    min_energy_closed_form,
    minimum_time,
    solve,
    solve_problem,
    sat,
    shrink,
    simulate,
    transcribe,
)
from handsoff.cli import parse_problem_file
from handsoff.plant import hautus_test

DEMO_PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"


def double_integrator() -> LtiPlant:
    return LtiPlant(a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [1.0]])


def oscillator_chain() -> LtiPlant:
    """Fourth-order single-input plant with an undamped oscillatory mode."""
    a = [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    return LtiPlant(a=a, b=[2.0, 0.0, 0.0, 0.0])


def l1_cost(problem: ControlProblem, u: np.ndarray) -> float:
    """lam * h * sum |u| for a single-input stacked control."""
    return problem.lam * problem.h * float(np.sum(np.abs(u)))


def l2_cost(problem: ControlProblem, u: np.ndarray) -> float:
    """(r h / 2) * sum u^2 for a single-input stacked control."""
    return 0.5 * problem.r * problem.h * float(np.sum(u**2))


def lp_l1(program):
    """The weighted-L1 program as a split-variable linear program (HiGHS result).

    Independent oracle: u = up - um with up, um in [0, 1] turns the
    program into an LP solved by an interior-point/simplex code that shares
    nothing with the costate-dual solver.  Each terminal row is scaled by its
    largest entry, which keeps unstable plants well conditioned.
    """
    phi = program.phi
    mn = phi.shape[1]
    scale = np.max(np.abs(phi), axis=1)
    cost = np.concatenate([program.l1_weights, program.l1_weights])
    return linprog(
        cost,
        A_eq=np.hstack([phi, -phi]) / scale[:, None],
        b_eq=program.target / scale,
        bounds=[(0.0, 1.0)] * (2 * mn),
        method="highs",
    )


def lp_l1_optimum(program) -> float:
    """Exact weighted-L1 optimum of a feasible program, from ``lp_l1``."""
    res = lp_l1(program)
    assert res.status == 0, res.message
    return float(res.fun)


# ---------------------------------------------------------------------------
# transcription


def test_transcribe_shapes_and_mode_weights():
    plant = double_integrator()
    base = dict(plant=plant, x0=[1.0, 0.0], T=1.0, N=10)
    h = 0.1

    mixed = transcribe(ControlProblem(**base, lam=2.0, r=3.0, mode="L1L2"))
    assert mixed.phi.shape == (2, 10)
    assert mixed.target.shape == (2,)
    assert mixed.m == 1
    assert mixed.h == pytest.approx(h)
    np.testing.assert_allclose(mixed.l1_weights, 2.0 * h)
    np.testing.assert_allclose(mixed.l2_weights, 3.0 * h)

    sparse = transcribe(ControlProblem(**base, lam=2.0, mode="L1"))
    np.testing.assert_allclose(sparse.l1_weights, 2.0 * h)
    np.testing.assert_allclose(sparse.l2_weights, 0.0)

    smooth = transcribe(ControlProblem(**base, r=3.0, mode="L2"))
    np.testing.assert_allclose(smooth.l1_weights, 0.0)
    np.testing.assert_allclose(smooth.l2_weights, 3.0 * h)


def test_transcribe_target_is_negated_free_response():
    plant = oscillator_chain()
    problem = ControlProblem(
        plant=plant, x0=[1.0, 1.0, 1.0, 1.0], T=2.0, N=40, lam=1.0, mode="L1"
    )
    program = transcribe(problem)
    ad, _ = discretize(plant, problem.h)
    free = np.linalg.matrix_power(ad, 40)
    np.testing.assert_allclose(program.target, -(free @ problem.x0), atol=1e-12)


def test_program_validation_rejects_bad_fields():
    phi = np.eye(2)
    good = dict(phi=phi, target=[1.0, 0.0], l1_weights=[1.0, 1.0], l2_weights=[0.0, 0.0])
    DiscreteProgram(**good)
    with pytest.raises(ValueError):
        DiscreteProgram(**{**good, "target": [1.0, 0.0, 0.0]})
    with pytest.raises(ValueError):
        DiscreteProgram(**{**good, "l1_weights": [1.0]})
    with pytest.raises(ValueError):
        DiscreteProgram(**{**good, "l1_weights": [-1.0, 1.0]})
    with pytest.raises(ValueError):
        DiscreteProgram(**good, h=-0.1)
    with pytest.raises(ValueError):
        DiscreteProgram(**good, m=3)
    with pytest.raises(ValueError):
        DiscreteProgram(**{**good, "phi": [[np.inf, 0.0], [0.0, 1.0]]})
    with pytest.raises(ValueError, match=r"^phi must be 2-d, got shape \(2,\)$"):
        DiscreteProgram(**{**good, "phi": [1.0, 0.0], "target": [1.0]})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("row", ["l1_weights", "l2_weights"])
def test_non_finite_objective_weights_are_refused_at_construction(row, bad):
    # NaN passes the sign test, and would reach a Newton ascent or the
    # refusal of mixed quadratic weights; every such row is refused up front
    good = dict(phi=np.eye(3), target=[0.5] * 3, l1_weights=[1.0] * 3, l2_weights=[1.0] * 3)
    for weights in ([bad] * 3, [bad, 1.0, 1.0], [1.0, 0.0, bad]):
        with pytest.raises(ValueError, match=f"^{row} must be finite$|nonnegative"):
            DiscreteProgram(**{**good, row: weights})


# ---------------------------------------------------------------------------
# solve


def test_zero_initial_state_returns_zero_control():
    problem = ControlProblem(
        plant=double_integrator(), x0=[0.0, 0.0], T=2.0, N=50, lam=1.0, mode="L1"
    )
    report = solve_problem(problem)
    assert report.status == "converged"
    np.testing.assert_array_equal(report.u.u, 0.0)
    assert l0_measure(report.u) == 0.0
    assert report.j1 == 0.0
    assert report.j2 == 0.0


def test_converged_report_satisfies_its_contract():
    base = dict(plant=double_integrator(), x0=[1.0, 0.0], T=4.0, N=200, lam=1.0)
    for problem in (
        ControlProblem(**base, r=1.0, mode="L1L2"),
        ControlProblem(**base, mode="L1"),
    ):
        report = solve_problem(problem)
        program = transcribe(problem)
        assert report.status == "converged"
        u = report.u.u.reshape(-1)
        assert np.max(np.abs(u)) <= 1.0 + 1e-9
        tnorm = max(1.0, float(np.linalg.norm(program.target)))
        assert report.eq_residual <= handsoff.solver._TOL_EQ * tnorm
        assert report.primal_residual <= handsoff.solver._TOL_PRIMAL
        assert report.dual_residual <= handsoff.solver._TOL_DUAL
        assert report.duality_gap <= handsoff.solver._TOL_DUAL
        assert report.u.u.shape == (200, 1)
        assert report.j1 == pytest.approx(l1_cost(problem, u))
        assert report.j2 == pytest.approx(l2_cost(problem, u))

        # the control is the control law at the input-mapped costate, away
        # from the samples tied at the threshold
        c = program.phi.T @ report.costate
        w1, w2 = program.l1_weights, program.l2_weights
        if problem.mode == "L1":
            law = dead_zone(c, w1)
        else:
            law = sat(shrink(c, w1) / w2)
        clear = np.abs(np.abs(c) - w1) > 1e-6 * w1
        assert np.count_nonzero(~clear) <= 2 * program.phi.shape[0]
        np.testing.assert_allclose(u[clear], law[clear], atol=1e-12)


def test_l1_objective_matches_lp_oracle():
    problem = ControlProblem(
        plant=double_integrator(), x0=[1.0, 0.0], T=4.0, N=200, lam=1.0, mode="L1"
    )
    program = transcribe(problem)
    report = solve(program)
    assert report.status == "converged"
    assert abs(report.j1 - lp_l1_optimum(program)) <= 1e-3

    # the chain input on which an earlier splitting solver stopped at max_iter
    problem = ControlProblem(
        plant=oscillator_chain(), x0=[1.04, 1.0914, 0.8752, 0.8221], T=10.0,
        N=2000, lam=1.0, mode="L1",
    )
    program = transcribe(problem)
    report = solve(program)
    assert report.status == "converged"
    optimum = lp_l1_optimum(program)
    assert abs(report.j1 - optimum) <= 1e-9 * optimum
    assert report.eq_residual <= 1e-9


def test_l2_solution_matches_gramian_closed_form():
    # closed-form minimum-energy control for this instance peaks at 0.375,
    # well inside the box, so the constrained and unconstrained optima agree
    plant = double_integrator()
    problem = ControlProblem(
        plant=plant, x0=[1.0, 0.0], T=4.0, N=1000, r=1.0, mode="L2"
    )
    report = solve_problem(problem)
    assert report.status == "converged"
    u_solver = report.u.u.reshape(-1)
    u_exact = min_energy_closed_form(plant, [1.0, 0.0], 4.0, 1000).u.reshape(-1)
    assert np.max(np.abs(u_exact)) <= 0.9
    rel = np.linalg.norm(u_solver - u_exact) / np.linalg.norm(u_exact)
    assert rel <= 1e-3


def test_each_mode_is_optimal_in_its_own_objective():
    base = dict(plant=oscillator_chain(), x0=[1.0, 1.0, 1.0, 1.0], T=10.0, N=250)
    sparse_problem = ControlProblem(**base, lam=1.0, mode="L1")
    smooth_problem = ControlProblem(**base, r=1.0, mode="L2")
    u_sparse = solve_problem(sparse_problem).u.u.reshape(-1)
    u_smooth = solve_problem(smooth_problem).u.u.reshape(-1)

    assert l2_cost(smooth_problem, u_smooth) <= l2_cost(smooth_problem, u_sparse) + 1e-9
    assert l1_cost(sparse_problem, u_sparse) <= l1_cost(sparse_problem, u_smooth) + 1e-9


def test_no_projected_perturbation_beats_a_converged_solution():
    problem = ControlProblem(
        plant=double_integrator(), x0=[1.0, 0.0], T=4.0, N=120, lam=1.0, r=1.0,
        mode="L1L2",
    )
    program = transcribe(problem)
    report = solve(program)
    assert report.status == "converged"
    u = report.u.u.reshape(-1)
    j_u = l1_cost(problem, u) + l2_cost(problem, u)

    phi = program.phi
    # orthogonal projector onto the null space of phi: perturbation directions
    # that keep the terminal constraint exact
    null_proj = np.eye(phi.shape[1]) - phi.T @ np.linalg.solve(phi @ phi.T, phi)
    rng = np.random.default_rng(7)
    tested = 0
    for _ in range(40):
        direction = null_proj @ rng.standard_normal(phi.shape[1])
        # largest step keeping |u + t d| <= 1 componentwise
        with np.errstate(divide="ignore"):
            room = np.where(direction > 0.0, (1.0 - u) / direction,
                            (-1.0 - u) / direction)
        room = room[np.abs(direction) > 1e-12]
        t_max = float(np.min(room)) if room.size else 0.0
        if t_max <= 1e-9:
            continue
        v = u + min(0.9 * t_max, 0.5) * direction
        # the perturbation keeps the terminal residual of the base solution
        assert np.linalg.norm(phi @ v - program.target) <= report.eq_residual + 1e-9
        j_v = l1_cost(problem, v) + l2_cost(problem, v)
        assert j_u <= j_v + 1e-5 * (1.0 + abs(j_v))
        tested += 1
    assert tested >= 20


def test_mixed_solutions_approach_each_pure_limit():
    base = dict(plant=double_integrator(), x0=[1.0, 0.0], T=4.0, N=200)
    u_sparse = solve_problem(ControlProblem(**base, lam=1.0, mode="L1")).u.u.reshape(-1)
    u_smooth = solve_problem(ControlProblem(**base, r=1.0, mode="L2")).u.u.reshape(-1)

    # vanishing quadratic weight: distance to the sparse solution nonincreasing
    gaps = []
    for r in (1.0, 1e-1, 1e-2, 1e-3):
        mixed = solve_problem(ControlProblem(**base, lam=1.0, r=r, mode="L1L2"))
        assert mixed.status == "converged"
        gaps.append(np.max(np.abs(mixed.u.u.reshape(-1) - u_sparse)))
    assert all(gaps[i + 1] <= gaps[i] + 1e-6 for i in range(len(gaps) - 1))

    # vanishing L1 weight: the mixed solution lands on the smooth solution
    mixed = solve_problem(ControlProblem(**base, lam=1e-3, r=1.0, mode="L1L2"))
    assert np.max(np.abs(mixed.u.u.reshape(-1) - u_smooth)) <= 0.05


def test_solver_is_deterministic():
    problem = ControlProblem(
        plant=oscillator_chain(), x0=[1.0, 1.0, 1.0, 1.0], T=10.0, N=250,
        lam=1.0, r=0.1, mode="L1L2",
    )
    first = solve_problem(problem)
    second = solve_problem(problem)
    assert np.array_equal(first.u.u, second.u.u)
    assert first.j1 == second.j1
    assert first.j2 == second.j2
    assert first.iterations == second.iterations
    assert first.status == second.status


@pytest.mark.parametrize(
    "mode, budget",
    # the L1 exchanges take 2 steps here, the L1L2 Newton ascent 4
    [("L1", 1), ("L1L2", 2)],
)
def test_max_iter_status_when_budget_too_small(monkeypatch, mode, budget):
    problem = ControlProblem(
        plant=double_integrator(), x0=[1.0, 0.0], T=4.0, N=100, lam=1.0, r=0.01,
        mode=mode,
    )
    monkeypatch.setattr(handsoff.solver, "_MAX_ITER", budget)
    report = solve_problem(problem)
    assert report.status == "max_iter"
    assert report.iterations == budget


def test_horizon_below_minimum_time_is_flagged():
    problem = ControlProblem(
        plant=oscillator_chain(), x0=[1.0, 1.0, 1.0, 1.0], T=0.1, N=50,
        lam=1.0, mode="L1",
    )
    report = solve_problem(problem)
    assert report.status == "infeasible_suspected"
    # a violated terminal constraint must never be reported as converged
    assert report.eq_residual > 1e-6


def status_battery():
    """Sixteen seeded plants, each with a problem in L1 and in L1L2 mode.

    The rule is fixed before drawing: n in 2..4, m in 1..3, N <= 1000, and
    A shifted so that its largest real eigenvalue part times T is drawn in
    turn from the stable (-3..-0.3), marginal (0) and mildly unstable
    (0..ln 1000) ranges.  No case is re-drawn.
    """
    rng = np.random.default_rng(20131)
    cases = []
    for i in range(16):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        horizon = float(rng.uniform(2.0, 12.0))
        a = 0.7 * rng.standard_normal((n, n))
        growth = (
            rng.uniform(-3.0, -0.3), 0.0, rng.uniform(0.0, np.log(1000.0))
        )[i % 3]
        a -= (np.max(np.linalg.eigvals(a).real) - growth / horizon) * np.eye(n)
        plant = LtiPlant(a=a, b=rng.standard_normal((n, m)))
        x0 = rng.standard_normal(n) * rng.uniform(0.2, 2.0)
        n_steps = int(rng.choice([200, 500, 1000]))
        for mode in ("L1", "L1L2"):
            cases.append(
                ControlProblem(
                    plant=plant, x0=x0, T=horizon, N=n_steps, lam=1.0, r=1e-3,
                    mode=mode,
                )
            )
    return cases


def test_status_never_lies_on_a_seeded_battery():
    outcomes = []
    for problem in status_battery():
        program = transcribe(problem)
        report = solve(program)
        lp = lp_l1(program)
        outcomes.append(report.status)
        if report.status == "converged":
            terminal = simulate(problem.plant, problem.x0, report.u)[-1]
            x0_norm = float(np.linalg.norm(problem.x0))
            assert np.linalg.norm(terminal) <= 1e-4 * max(1.0, x0_norm)
            if problem.mode == "L1":
                assert lp.status == 0
                assert abs(report.j1 - lp.fun) <= 1e-6 * max(1.0, lp.fun)
        elif report.status == "infeasible_suspected":
            p = report.costate
            support = np.sum(np.abs(program.phi.T @ p))
            assert program.target @ p > support
            assert lp.status == 2
        # on these plants no solve may end undecided
        assert report.status in ("converged", "infeasible_suspected"), (
            problem, report.status, report.iterations
        )
    assert "converged" in outcomes and "infeasible_suspected" in outcomes


def b120(seed: int) -> list:
    """The forty problems of one seed of ROADMAP's battery B120.

    Drawn from ``default_rng(seed)`` in this order: ``n`` in 2..4 and ``m``
    in 1..3; ``A`` random (``0.7 standard_normal``) when ``random() < 0.5``,
    else a chain with ones on the superdiagonal and last row ``-0.05
    random(n)``; ``B``, ``T`` in (5, 50), ``N`` of 1000, 2000, 5000 or
    10000, mode L1 or L1L2, then ``x0``; ``lam = 1`` and, in L1L2, ``r =
    0.1``.
    """
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(40):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        if rng.random() < 0.5:
            a = 0.7 * rng.standard_normal((n, n))
        else:
            a = np.eye(n, k=1)
            a[-1] = -0.05 * rng.random(n)
        b = rng.standard_normal((n, m))
        horizon = float(rng.uniform(5.0, 50.0))
        n_steps = int(rng.choice([1000, 2000, 5000, 10000]))
        mode = str(rng.choice(["L1", "L1L2"]))
        problems.append(
            ControlProblem(
                plant=LtiPlant(a=a, b=b), x0=rng.standard_normal(n), T=horizon,
                N=n_steps, lam=1.0, r=0.1 if mode == "L1L2" else 0.0, mode=mode,
            )
        )
    return problems


def problem_text(problem: ControlProblem) -> str:
    """The problem file of ``problem``, every float written by ``repr``.

    A problem file has one scalar ``lambda`` and one scalar ``r``, so the
    weights must be the same on every channel.
    """
    assert np.all(problem.lam == problem.lam[0]) and np.all(problem.r == problem.r[0])

    def row(values) -> str:
        return " ".join(repr(float(v)) for v in values)

    plant = problem.plant
    return "\n".join([
        f"n = {plant.n}",
        f"m = {plant.m}",
        f"A = {'; '.join(map(row, plant.a))}",
        f"B = {'; '.join(map(row, plant.b))}",
        f"x0 = {row(problem.x0)}",
        f"T = {problem.T!r}",
        f"N = {problem.N}",
        f"lambda = {float(problem.lam[0])!r}",
        f"r = {float(problem.r[0])!r}",
        f"mode = {problem.mode}",
        "",
    ])


def test_problem_text_reads_back_bit_for_bit(tmp_path):
    path = tmp_path / "problem.txt"
    for problem in [p for seed in (7, 8, 9) for p in b120(seed)] + status_battery():
        path.write_text(problem_text(problem))
        parsed = parse_problem_file(path)
        for name in ("x0", "lam", "r"):
            assert getattr(parsed, name).tobytes() == getattr(problem, name).tobytes()
        assert parsed.plant.a.tobytes() == problem.plant.a.tobytes()
        assert parsed.plant.b.tobytes() == problem.plant.b.tobytes()
        assert (parsed.T, parsed.N, parsed.mode) == (problem.T, problem.N, problem.mode)


@pytest.mark.parametrize(
    "seed, case",
    [(8, 29), (9, 13), (9, 24), (9, 26), (9, 33), (7, 14), (8, 22), (9, 10), (9, 34)],
)
def test_b120_l1_cases_that_stalled_reach_a_certified_vertex(seed, case):
    # max Re lambda * T of 6.7-18, where HiGHS is inexact, so the duality
    # gap is the certificate.  The first five are L1 and ended max_iter in
    # the Newton ascent, their controls missing the origin by up to 1.5e5;
    # the last four are L1L2 and ended stalled in the smoothing homotopy
    problem = b120(seed)[case]
    program = transcribe(problem)
    report = solve(program)
    assert report.status == "converged"
    rounding = handsoff.solver._rounding(program.phi, program.target, report.costate)
    assert report.duality_gap + rounding <= 1e-6 * (report.j1 + report.j2)
    terminal = simulate(problem.plant, problem.x0, report.u)[-1]
    assert np.linalg.norm(terminal) <= 1e-4 * max(1.0, float(np.linalg.norm(problem.x0)))
    assert costate_consistency(problem, report.u)[0]


def test_l1_target_at_the_rounding_floor_keeps_the_zero_control():
    # B120 seed 7 case 9: |target| ~ 1e-12, where the exact vertex's relative
    # gap would be rounding noise; U = 0 at p = 0 meets the contract as is
    problem = b120(7)[9]
    assert problem.mode == "L1"
    report = solve_problem(problem)
    assert report.status == "converged"
    assert report.iterations == 0
    np.testing.assert_array_equal(report.u.u, 0.0)


def test_exchange_does_not_cycle_on_a_strongly_unstable_plant():
    # b120(15) case 16 (L1, n = 2, m = 3, N = 5000, max Re lambda * T =
    # 22): |phi_j|'|p| dwarfs c_j, and a tie margin as wide as the
    # threshold itself left stale levels that cycled for 50,000 exchanges
    problem = b120(15)[16]
    assert problem.mode == "L1"
    report = solve_problem(problem)
    assert report.status == "converged"
    assert report.iterations <= 50
    terminal = simulate(problem.plant, problem.x0, report.u)[-1]
    assert np.linalg.norm(terminal) <= 1e-4 * max(1.0, float(np.linalg.norm(problem.x0)))


def test_a_stalled_newton_ascent_says_so():
    # B120 seed 9 case 15 (n = 2, N = 2000, L1L2, max Re lambda * T = 45):
    # the ascent stops after a few steps without progress, far from its
    # budget, and reported max_iter before
    problem = b120(9)[15]
    assert problem.mode == "L1L2"
    report = solve_problem(problem)
    assert report.status == "stalled"
    assert report.iterations < handsoff.solver._MAX_ITER


@pytest.mark.parametrize("w2", [0.0, 1.0], ids=["L1", "L1L2"])
def test_rank_deficient_reach_map_is_decided(w2):
    # phi spans only e1: a target on it has an optimum (J1 = 1, at u = [1, 0]
    # in L1 and u = [1/2, 1/2] in L1L2), and one off it is out of reach
    def program(target):
        return DiscreteProgram(
            phi=[[1.0, 1.0], [0.0, 0.0]], target=target, l1_weights=[1.0, 1.0],
            l2_weights=[w2, w2],
        )

    reached = solve(program([1.0, 0.0]))
    assert reached.status == "converged"
    assert reached.j1 == pytest.approx(1.0, rel=1e-12)
    assert reached.j2 == pytest.approx(0.25 * w2, rel=1e-12)
    assert abs(reached.duality_gap) <= 1e-9 * (reached.j1 + reached.j2)
    out_of_reach = program([0.0, 1.0])
    report = solve(out_of_reach)
    assert report.status == "infeasible_suspected"
    p = report.costate
    assert out_of_reach.target @ p > np.sum(np.abs(out_of_reach.phi.T @ p))


def test_an_uncontrollable_pair_is_refused_by_the_hautus_test():
    # both states obey x' = -x + u: [A - mu I, B] has rank 1 at mu = -1
    plant = LtiPlant(a=-np.eye(2), b=[[1.0], [1.0]])
    for mode in ("L1", "L1L2", "L2"):
        problem = ControlProblem(
            plant=plant, x0=[1.0, 0.0], T=2.0, N=50, lam=1.0, r=0.1, mode=mode
        )
        with pytest.raises(np.linalg.LinAlgError, match="eigenvalue mu = -1"):
            solve_problem(problem)


@pytest.mark.parametrize(
    "seed, case",
    [(7, 3), (7, 10), (7, 17), (7, 32), (7, 34), (7, 37), (8, 24), (8, 26), (8, 27),
     (9, 8), (9, 12), (9, 14), (9, 16), (9, 35)],
)
def test_b120_maps_once_refused_as_rank_deficient_are_decided(seed, case):
    # controllable plants (max Re lambda * T up to 87) whose forward maps
    # are rank deficient to rounding; solve used to refuse them.  Three are
    # out of reach and say so with a certificate; the rest are left to a
    # better conditioned transcription
    problem = b120(seed)[case]
    hautus_test(problem.plant)
    program = transcribe(problem)
    report = solve(program)
    assert report.iterations <= 100
    if (seed, case) in ((7, 10), (7, 17), (7, 32)):
        assert report.status == "infeasible_suspected"
        assert handsoff.solver._farkas(program.phi, program.target, report.costate) is not None
    else:
        assert report.status == "stalled"


@pytest.mark.parametrize(
    "plant, x0, n_steps",
    [(oscillator_chain(), np.ones(4), 1), (oscillator_chain(), np.ones(4), 2),
     (oscillator_chain(), np.ones(4), 3), (double_integrator(), [1.0, 0.0], 1)],
    ids=["chain-1", "chain-2", "chain-3", "double-integrator-1"],
)
def test_a_grid_shorter_than_the_state_is_certified_out_of_reach(plant, x0, n_steps):
    # fewer samples than states: the map is rank deficient and misses x0's
    # free response, which solve used to refuse as a singular map
    problem = ControlProblem(plant=plant, x0=x0, T=10.0, N=n_steps, lam=1.0, mode="L1")
    program = transcribe(problem)
    report = solve(program)
    assert report.status == "infeasible_suspected"
    assert handsoff.solver._farkas(program.phi, program.target, report.costate) is not None


def test_farkas_decides_at_its_margin_and_rounding_bound():
    farkas, eps = handsoff.solver._farkas, np.finfo(float).eps
    one = np.array([1.0])
    # a clear certificate: sum |phi' p| = 2 over target' p = 3, or the
    # rounding bound (here eps |target| |p|) when that is larger
    assert farkas(np.array([[1.0, -1.0]]), np.array([3.0]), one) == 2.0 / 3.0
    assert farkas(np.zeros((1, 2)), one, one) == eps
    # past the margin (phi' p cancels to 0) but inside the rounding bound of
    # the 2e10 that |phi|'|p| sums
    phi, target, p = np.array([[1e10], [-1e10]]), np.array([1e-6, 0.0]), np.ones(2)
    assert not np.any(phi.T @ p)
    assert 0.0 < target @ p <= handsoff.solver._rounding(phi, target, p)
    assert farkas(phi, target, p) is None
    # either side of the margin 1e-9, with |phi' p| given or not
    for excess, verdict in ((2e-9, 1.0 / (1.0 + 2e-9)), (5e-10, None)):
        target = np.array([1.0 + excess])
        assert farkas(np.ones((1, 1)), target, one) == verdict
        assert farkas(np.ones((1, 1)), target, one, one) == verdict


def test_a_sample_with_neither_weight_is_refused():
    program = DiscreteProgram(
        phi=np.eye(2), target=[0.5, 0.5], l1_weights=[1.0, 0.0], l2_weights=[0.0, 0.0]
    )
    with pytest.raises(ValueError, match="^every sample needs a positive L1 or quadratic weight$"):
        solve(program)


def test_mixed_zero_and_positive_quadratic_weights_are_refused():
    program = DiscreteProgram(
        phi=np.eye(2), target=[0.5, 0.5], l1_weights=[1.0, 1.0], l2_weights=[0.0, 1.0]
    )
    with pytest.raises(ValueError, match="all zero or all positive"):
        solve(program)
    # a sample with neither weight is named first, when both faults occur
    program = DiscreteProgram(
        phi=np.eye(3), target=[0.5, 0.5, 0.5], l1_weights=[1.0, 0.0, 1.0],
        l2_weights=[0.0, 0.0, 1.0],
    )
    with pytest.raises(ValueError, match="^every sample needs a positive L1 or quadratic weight$"):
        solve(program)


def test_all_zero_quadratic_weights_go_to_the_exchange(monkeypatch):
    calls = []
    for name in ("_ascend", "_exchange"):
        method = getattr(handsoff.solver, name)
        monkeypatch.setattr(
            handsoff.solver, name,
            lambda *args, name=name, method=method: calls.append(name) or method(*args),
        )
    program = DiscreteProgram(
        phi=[[1.0, 2.0, -1.0]], target=[0.5], l1_weights=[1.0] * 3, l2_weights=[0.0] * 3
    )
    assert solve(program).status == "converged"
    assert calls == ["_exchange"]
    assert solve(replace(program, l2_weights=[1.0] * 3)).status == "converged"
    assert calls == ["_exchange", "_ascend"]


def test_line_search_takes_no_step_without_a_finite_slope_at_zero():
    # the slope at 0 is read off the control the ascent already holds; a
    # direction with an inf or NaN entry gives no finite slope there
    c = np.array([0.5, -2.0, 3.0])
    w1, w2 = np.full(3, 1.0), np.full(3, 0.5)
    u = handsoff.solver.saturated_shrink(c, w1, w2)
    rows = np.empty((3, 3))
    for bad in (math.inf, -math.inf, math.nan):
        e = np.array([1.0, bad, 0.0])
        assert handsoff.solver._line_search(c, u, e, 1.0, w1, w2, *rows) == 0.0
    e = np.array([-1.0, 0.0, 0.0])
    assert handsoff.solver._line_search(c, u, e, 1.0, w1, w2, *rows) > 0.0


def demo_problems() -> list:
    """Both demo problem files, each in L1L2 and in L2 mode (``r = 0.1``
    where the file sets no quadratic weight)."""
    cases = []
    for path in sorted(DEMO_PROBLEMS.glob("*.txt")):
        problem = parse_problem_file(path)
        r = problem.r if np.all(problem.r > 0.0) else 0.1
        cases += [replace(problem, mode=mode, r=r) for mode in ("L1L2", "L2")]
    return cases


def test_reported_gap_is_the_gap_recomputed_from_scratch():
    # solve takes the gap from the ascent's own c = phi' p and control; it
    # must be the gap of (u, costate) recomputed from scratch, bit for bit
    mixed = [problem for problem in status_battery() if problem.mode == "L1L2"]
    cases = mixed + [replace(problem, mode="L2") for problem in mixed] + demo_problems()
    assert len(cases) == 36
    for problem in cases:
        program = transcribe(problem)
        report = solve(program)
        phi, target = program.phi, program.target
        w1, w2 = program.l1_weights, program.l2_weights
        u = report.u.u.reshape(-1)
        j1, j2, gap = handsoff.solver._gap(u, report.costate, phi, target, w1, w2)
        # the costs are the gap's own terms, and those of the control alone
        assert (report.j1, report.j2) == (j1, j2)
        assert (j1, j2) == (float(w1 @ np.abs(u)), 0.5 * float(w2 @ u**2))
        if report.status == "infeasible_suspected":
            assert math.isnan(report.duality_gap)
        else:
            assert report.duality_gap == gap, (problem, report.status)
            assert report.dual_residual == abs(gap) / (j1 + j2)
    # status_battery()[5] (L1L2, n = 4, N = 200) returns through the run-on's
    # kept restore: its costate is the point before the ascent's last step,
    # which the same ascent stopped one step earlier returns
    program = transcribe(status_battery()[5])
    phi, target = program.phi, program.target
    w1, w2 = program.l1_weights, program.l2_weights
    report = solve(program)
    assert report.status == "converged"
    p, c, u, steps, outcome = handsoff.solver._ascend(
        handsoff.solver._Layout(phi), target, w1, w2, np.zeros(phi.shape[0]),
        report.iterations - 1,
    )
    assert (outcome, steps) == ("converged", report.iterations - 1)
    assert p.tobytes() == report.costate.tobytes()
    assert u.tobytes() == report.u.u.reshape(-1).tobytes()
    assert c.tobytes() == (phi.T @ p).tobytes()
    _, _, gap = handsoff.solver._gap(u, p, phi, target, w1, w2)
    assert report.duality_gap == gap


@pytest.mark.parametrize("m", [1, 2, 3])
def test_band_curvature_by_row_gathers_is_the_column_gather_bit_for_bit(m):
    # the Newton system's curvature gathers rows of row-major copies of phi'
    # and (phi / w2)'; its bits rest on their transposes having the
    # column-major layout of phi[:, band].  One layout serves a sequence of
    # weights, uniform and per sample, as the solves of a sweep share it
    rng = np.random.default_rng(m)
    maps = [next(transcribe(p).phi for p in status_battery() if p.plant.m == m)]
    for n, n_samples in ((1, 7), (2, 60), (3, 500), (4, 4000)):
        scale = 10.0 ** rng.integers(-3, 4, (n, 1))
        maps.append(rng.standard_normal((n, m * n_samples)) * scale)
    for phi in maps:
        mn = phi.shape[1]
        layout = handsoff.solver._Layout(phi)
        for w2 in (
            rng.uniform(0.5, 2.0, mn) * 10.0 ** rng.integers(-6, 2, mn),
            np.full(mn, 10.0 ** rng.uniform(-4.0, 1.0)),
            rng.uniform(0.5, 2.0, mn) * 10.0 ** rng.integers(-6, 2, mn),
            np.full(mn, 10.0 ** rng.uniform(-4.0, 1.0)),
        ):
            reg, curvature = handsoff.solver._band_curvature(layout, w2)
            fresh_reg, fresh = handsoff.solver._band_curvature(
                handsoff.solver._Layout(phi), w2
            )
            want_reg = handsoff.solver._REG * ((phi / w2) @ phi.T)
            assert reg.tobytes() == fresh_reg.tobytes() == want_reg.tobytes()
            half = np.zeros(mn, dtype=bool)
            half[rng.permutation(mn)[: mn // 2]] = True
            one = np.zeros(mn, dtype=bool)
            one[rng.integers(mn)] = True
            for band in (np.zeros(mn, dtype=bool), one, half, np.ones(mn, dtype=bool)):
                phi_b = phi[:, band]
                want = (phi_b / w2[band]) @ phi_b.T
                got = curvature(np.flatnonzero(band))
                assert got.shape == want.shape == (phi.shape[0],) * 2
                assert got.tobytes() == want.tobytes(), (phi.shape, np.count_nonzero(band))
                assert got.tobytes() == fresh(np.flatnonzero(band)).tobytes()


def test_every_outcome_of_an_ascent_returns_its_own_point_bit_for_bit():
    # c and u come back as work rows of the layout, which the steps after a
    # kept point write past: whichever way the ascent ends, including the
    # run-on's restore of the point it kept, they are phi' p and its control
    battery, budget = status_battery(), handsoff.solver._MAX_ITER
    cases = [
        (battery[1], budget, "converged", 12),  # past the stopping rule
        (battery[5], budget, "converged", 13),  # the kept point, restored
        (battery[5], 12, "converged", 12),  # stopped at that point
        (battery[3], budget, "unbounded", 1),
        (battery[1], 3, "max_iter", 3),
        (b120(8)[25], budget, "stalled", 67),
    ]
    costates = []
    for problem, steps, outcome, taken in cases:
        program = transcribe(problem)
        phi, target = program.phi, program.target
        w1, w2 = program.l1_weights, program.l2_weights
        p, c, u, *end = handsoff.solver._ascend(
            handsoff.solver._Layout(phi), target, w1, w2, np.zeros(phi.shape[0]), steps
        )
        assert end == [taken, outcome], problem
        assert c.tobytes() == (phi.T @ p).tobytes(), outcome
        assert u.tobytes() == handsoff.solver.saturated_shrink(c, w1, w2).tobytes()
        costates.append(p.tobytes())
    assert costates[1] == costates[2]


def test_an_ascent_on_a_built_layout_allocates_under_two_rows():
    # once its layout exists an ascent's steps write c = phi' p, the
    # control, phi' d and the line search's probes into the layout's work
    # rows; what it still allocates (w1 + w2 once, the band's masks and
    # gathered rows) peaks under two entries per sample, where the
    # per-step arrays the rows replace peaked at 8.0
    rng = np.random.default_rng(0)
    n, mn = 3, 16000
    phi = rng.standard_normal((n, mn))
    target = phi @ rng.uniform(-0.5, 0.5, mn)
    w1, w2 = np.full(mn, 1e-3), np.full(mn, 1e-4)
    layout = handsoff.solver._Layout(phi)
    first = handsoff.solver._ascend(layout, target, w1, w2, np.zeros(n), 100)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        second = handsoff.solver._ascend(layout, target, w1, w2, np.zeros(n), 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first[3:] == second[3:] == (5, "converged")
    assert first[0].tobytes() == second[0].tobytes()
    assert peak - start < 2 * mn * 8


def layout_arrays(layout):
    """Every array of a layout: its map's absolute values and copies, and
    its eight work rows."""
    (c, u), (kept_c, kept_u) = layout.points
    rows = [c, u, kept_c, kept_u, layout.e, layout.probe, layout.control, layout.scratch]
    return [layout.abs_phi, layout.phi_t, layout.phi_w2, *rows]


def block_address(layout):
    """The address of the block that a layout's arrays are views of."""
    return layout.abs_phi.base.__array_interface__["data"][0]


def test_two_live_layouts_share_no_memory(monkeypatch):
    # the first takes the spare a collected layout left, the second a new
    # block; within a layout no two arrays overlap
    monkeypatch.setattr(handsoff.solver, "_spare", None)
    phi = np.random.default_rng(0).standard_normal((3, 201))
    handsoff.solver._Layout(phi)
    assert handsoff.solver._spare is not None
    first = handsoff.solver._Layout(phi)
    second = handsoff.solver._Layout(np.hstack([phi, phi]))
    assert handsoff.solver._spare is None
    assert not np.shares_memory(first.abs_phi.base, second.abs_phi.base)
    arrays = layout_arrays(first)
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)
    del second, first
    # of the two blocks given back, second's first, only that larger one is
    # kept: 3 copies of its map and 8 rows
    assert handsoff.solver._spare.size == (3 * 3 + 8) * 402


@pytest.mark.parametrize("order", ["C", "F"])
def test_a_layout_reuses_a_collected_larger_block_and_solves_bit_for_bit(order, monkeypatch):
    # a solve on a block another map's ascent wrote, taken with no new
    # allocation, reports the bits of the same solve on new memory; the
    # layout's copies of |phi| and phi / w2 keep phi's memory order
    monkeypatch.setattr(handsoff.solver, "_spare", None)
    rng = np.random.default_rng(1)
    n, mn = 3, 4000
    phi = np.asarray(rng.standard_normal((n, mn)), order=order)
    program = DiscreteProgram(
        phi=phi, target=phi @ rng.uniform(-0.5, 0.5, mn),
        l1_weights=np.full(mn, 1e-3), l2_weights=np.full(mn, 1e-4),
    )
    fresh = solve(program)
    other = rng.standard_normal((4, 2 * mn))
    larger = handsoff.solver._Layout(other)
    handsoff.solver._ascend(
        larger, other @ rng.uniform(-0.5, 0.5, 2 * mn), np.full(2 * mn, 1e-3),
        np.full(2 * mn, 1e-4), np.zeros(4), 100,
    )
    address = block_address(larger)
    del larger
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        layout = handsoff.solver._Layout(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block_address(layout) == address
    assert peak - start < mn * 8
    assert layout.abs_phi.strides == np.abs(phi).strides
    assert layout.phi_w2.strides == np.empty_like(phi).strides
    reused = solve(program, _layout=layout)
    assert reused.status == fresh.status == "converged"
    for field in ("j1", "j2", "iterations", "primal_residual", "dual_residual",
                  "eq_residual", "duality_gap"):
        assert repr(getattr(reused, field)) == repr(getattr(fresh, field)), field
    assert reused.u.u.tobytes() == fresh.u.u.tobytes()
    assert reused.costate.tobytes() == fresh.costate.tobytes()
    assert not np.shares_memory(reused.u.u, layout.abs_phi.base)


def test_a_block_above_the_bound_is_not_kept(monkeypatch):
    monkeypatch.setattr(handsoff.solver, "_spare", None)
    rng = np.random.default_rng(2)
    phi = rng.standard_normal((3, 100))
    handsoff.solver._Layout(phi)
    bound = handsoff.solver._spare.nbytes
    monkeypatch.setattr(handsoff.solver, "_SPARE_BYTES", bound)
    # a block at the bound is kept ...
    handsoff.solver._Layout(phi)
    assert handsoff.solver._spare.nbytes == bound
    # ... and a larger one drops it and is not kept itself
    handsoff.solver._Layout(rng.standard_normal((3, 102)))
    assert handsoff.solver._spare is None


def test_layouts_made_on_several_threads_never_share_memory(monkeypatch):
    # four threads on two cores, switching every microsecond, each fill the
    # writable arrays of their own layouts with their own mark: a block two
    # live layouts shared would show another thread's mark, or a copy of
    # the map written over
    monkeypatch.setattr(handsoff.solver, "_spare", None)
    phi = np.random.default_rng(4).standard_normal((2, 300))
    abs_phi, phi_t = np.abs(phi), phi.T.copy()
    errors = []

    def work(mark):
        try:
            for _ in range(300):
                layout = handsoff.solver._Layout(phi)
                rows = layout_arrays(layout)[2:]
                for row in rows:
                    row.fill(mark)
                if not (
                    all((row == mark).all() for row in rows)
                    and (layout.abs_phi == abs_phi).all()
                    and (layout.phi_t == phi_t).all()
                ):
                    errors.append(mark)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(float(i),)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_a_block_that_a_view_outlives_its_layout_in_is_not_reused(monkeypatch):
    monkeypatch.setattr(handsoff.solver, "_spare", None)
    phi = np.random.default_rng(3).standard_normal((2, 50))
    layout = handsoff.solver._Layout(phi)
    row = layout.scratch
    del layout
    assert np.shares_memory(handsoff.solver._spare, row)
    assert not np.shares_memory(handsoff.solver._Layout(phi).abs_phi.base, row)


# ---------------------------------------------------------------------------
# minimum time


def test_minimum_time_zero_state_is_immediate():
    assert minimum_time(double_integrator(), [0.0, 0.0], tol_t=0.01) <= 0.01


@pytest.mark.parametrize(
    "plant, x0",
    [(double_integrator, [1.0, 0.0]), (oscillator_chain, [1.0] * 4)],
    ids=["double_integrator", "chain"],
)
@pytest.mark.parametrize("scale", [1e-20, 1e-100])
def test_minimum_time_of_a_state_inside_the_reach_floor_is_within_tol_t(plant, x0, scale):
    # below n samples the gauge is s = 0, and the floor test ran only at
    # s > 0: the Farkas test's rounding bound, which grows like 1 / |target|,
    # decided nothing, so every such state raised "minimum time undecided".
    # The zero control misses by |target|, inside the floor
    t_star = minimum_time(plant(), scale * np.array(x0), grid_density=100.0, tol_t=0.01)
    assert t_star <= 0.01


def test_minimum_time_double_integrator_bang_bang():
    # analytic optimum from [1, 0]: full brake then full thrust, switch at
    # t = 1, arrival at t = 2
    t_star = minimum_time(double_integrator(), [1.0, 0.0], grid_density=200.0,
                          tol_t=0.01)
    assert abs(t_star - 2.0) <= 0.05


def test_minimum_time_oscillator_chain_fits_in_ten_seconds():
    t_star = minimum_time(
        oscillator_chain(), [1.0, 1.0, 1.0, 1.0], grid_density=20.0, tol_t=0.05
    )
    assert 1.0 < t_star < 10.0


def test_minimum_time_uncontrollable_pair_raises():
    plant = LtiPlant(a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        minimum_time(plant, [1.0, 0.0])


@pytest.mark.parametrize(
    "a, b",
    [
        ([[1.0]], [[1.0]]),  # unstable real mode, |B'v|_1 / mu = 1
        ([[0.3, 1.0], [-1.0, 0.3]], [[0.0], [1.0]]),  # unstable pair, bound 1/0.3
        ([[0.5, 0.0], [0.0, -1.0]], [[0.25, 0.0], [0.3, 1.0]]),  # two inputs, 0.5
    ],
)
def test_minimum_time_beyond_an_unstable_mode_has_no_finite_horizon(a, b):
    # |v'x0| at 1.01 times the bound: no |u| <= 1 brings that mode to rest
    plant = LtiPlant(a=a, b=b)
    eigvals, left = np.linalg.eig(plant.a.T)
    k = int(np.argmax(eigvals.real))
    v = left[:, k]
    bound = np.sum(np.abs(plant.b.T @ v)) / eigvals[k].real
    x0 = np.real(np.conj(v))
    x0 *= 1.01 * bound / abs(v @ x0)
    with pytest.raises(RuntimeError, match="no finite minimum time"):
        minimum_time(plant, x0, grid_density=1.0)
    # at half the bound each of these plants is within reach (for a real
    # mode the bound is exact); the scalar plant takes ln(1 / (1 - 0.5))
    t_star = minimum_time(plant, 0.5 * x0 / 1.01, grid_density=500.0, tol_t=0.005)
    assert np.isfinite(t_star)
    if plant.n == 1:
        assert abs(t_star - np.log(2.0)) <= 0.01


def reach_map(plant, x0, horizon, n_steps):
    """``(phi, target)`` of the reach condition ``phi U = target`` on N steps."""
    x0 = np.asarray(x0, dtype=float)
    return handsoff.solver._reach_condition(plant, x0, horizon, n_steps)[:2]


def lp_gauge(phi, target) -> float:
    """``max{sigma : phi v = sigma target, |v| <= 1}`` by HiGHS (rows scaled)."""
    n, mn = phi.shape
    rows = np.column_stack([phi, -target])
    cost = np.zeros(mn + 1)
    cost[-1] = -1.0
    res = linprog(
        cost,
        A_eq=rows / np.max(np.abs(rows), axis=1)[:, None],
        b_eq=np.zeros(n),
        bounds=[(-1.0, 1.0)] * mn + [(0.0, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return -float(res.fun)


def seeded_plants(seed, count, m_max=3, n_min=1):
    """``count`` seeded ``(plant, x0)`` pairs with n in ``n_min..4`` and m
    in ``1..m_max``: stable, oscillatory (an undamped pair, or an
    integrator when n = 1) and unstable plants in turn; an unstable plant's
    x0 is scaled to half the reach of its unstable modes.  Only the unstable
    class is scaled: an undamped pair's eigenvalues round to real parts of
    either sign.  No case is re-drawn."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        n = int(rng.integers(n_min, 5))
        m = int(rng.integers(1, m_max + 1))
        a = 0.7 * rng.standard_normal((n, n))
        if i % 3 == 1:
            w = rng.uniform(0.5, 3.0)
            core = np.diag(-rng.uniform(0.2, 2.0, n))
            if n == 1:
                core[0, 0] = 0.0
            else:
                core[:2, :2] = [[0.0, w], [-w, 0.0]]
            s = np.eye(n) + 0.4 * rng.standard_normal((n, n))
            a = s @ core @ np.linalg.inv(s)
        else:
            growth = rng.uniform(-1.5, -0.2) if i % 3 == 0 else rng.uniform(0.2, 1.0)
            a -= (np.max(np.linalg.eigvals(a).real) - growth) * np.eye(n)
        plant = LtiPlant(a=a, b=rng.standard_normal((n, m)))
        x0 = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
        eigvals, left = np.linalg.eig(plant.a.T)
        reach = [
            abs(v @ x0) * mu.real / np.sum(np.abs(plant.b.T @ v))
            for mu, v in zip(eigvals, left.T)
            if mu.real > 0.0 and i % 3 == 2
        ]
        if reach:
            x0 *= 0.5 / max(reach)
        cases.append((plant, x0))
    return cases


def gauge_battery():
    """Seeded ``(plant, x0)`` pairs for the reach gauge.

    The rule is fixed before drawing: twelve ``seeded_plants`` with n in
    1..4 and m in 1..3.  Then the two-input diagonal plant whose unstable
    mode only the first input moves, so that every sample of the second
    input is tied at the optimum, and x0 = 0.
    """
    cases = seeded_plants(20260, 12)
    diagonal = LtiPlant(a=[[0.5, 0.0], [0.0, -1.0]], b=[[0.25, 0.0], [0.3, 1.0]])
    cases.append((diagonal, np.array([0.25, 0.0])))
    cases.append((oscillator_chain(), np.zeros(4)))
    return cases


def test_gauge_matches_the_lp_and_its_control_reaches_the_origin(monkeypatch):
    density, tol = 40.0, 0.02
    complete_q = handsoff.solver._complete_q
    qr_calls = []

    def counted_qr(a):
        qr_calls.append(1)
        return complete_q(a)

    monkeypatch.setattr(handsoff.solver, "_complete_q", counted_qr)
    for plant, x0 in gauge_battery():
        t_star = minimum_time(plant, x0, grid_density=density, tol_t=tol)
        x0_norm = max(1.0, float(np.linalg.norm(x0)))
        for horizon in (0.6 * t_star, t_star, 1.5 * t_star):
            n_steps = max(1, int(np.ceil(horizon * density)))
            phi, target = reach_map(plant, x0, horizon, n_steps)
            if not np.any(target):
                u = np.zeros(phi.shape[1])
            else:
                found = handsoff.solver._gauge(phi, target)
                assert found is not None, (plant, x0, horizon)
                s, v, p, basis, _ = found
                lp = lp_gauge(phi, target)
                assert abs(s - lp) <= 1e-8 * lp, (plant, x0, horizon, s, lp)
                assert target @ p == pytest.approx(1.0)
                assert handsoff.solver._certified_gauge(phi, target, basis) is not None
                u = v / max(s, 1.0)
                # started at the optimal basis of a neighbouring horizon,
                # moved to this grid, the exchanges take no projected
                # gradient step and end at the same gauge, also where the
                # vertex is degenerate (every sample of one input tied)
                for near in (0.9 * horizon, 1.1 * horizon):
                    near_steps = max(1, int(np.ceil(near * density)))
                    near_phi, near_target = reach_map(plant, x0, near, near_steps)
                    near_basis = handsoff.solver._gauge(near_phi, near_target)[3]
                    assert len(near_basis) == plant.n - 1, (plant, x0, horizon, near)
                    vertex = (near / near_steps, near_steps, near_basis)
                    start = handsoff.solver._mapped_vertex(
                        plant.m, n_steps, horizon / n_steps, vertex
                    )
                    assert len(start) == plant.n - 1, (plant, x0, horizon, near)
                    del qr_calls[:]
                    warm = handsoff.solver._gauge(phi, target, start)
                    assert not qr_calls, (plant, x0, horizon, near)
                    assert abs(warm[0] - s) <= 1e-8 * s, (plant, x0, horizon, near)
                    assert abs(warm[0] - lp) <= 1e-8 * lp, (plant, x0, horizon, near)
                    assert handsoff.solver._certified_gauge(phi, target, start) is not None
            if horizon == t_star:
                assert np.max(np.abs(u)) <= 1.0
                control = ControlTrajectory(h=horizon / n_steps, u=u.reshape(n_steps, -1))
                terminal = simulate(plant, x0, control)[-1]
                assert np.linalg.norm(terminal) <= 1e-6 * x0_norm, (plant, x0)


@pytest.mark.filterwarnings("error")
def test_gauge_starts_cold_when_its_start_is_dependent_to_rounding():
    # a start whose moved columns and target are not independent to rounding
    # is refused before any solve, and the exchanges run cold: a duplicated
    # column, a column parallel to target, and an all-zero column (its unit
    # basis is exactly singular, so the test must not divide by a zero
    # singular value)
    checked = 0
    for plant, x0 in gauge_battery():
        if plant.n < 2 or not np.any(x0):
            continue
        phi, target = reach_map(plant, x0, 1.0, 40)
        tied = handsoff.solver._gauge(phi, target)[3]
        assert len(tied) == plant.n - 1, (plant, x0)
        parallel, zero = phi.copy(), phi.copy()
        parallel[:, tied[0]] = 2.0 * target
        zero[:, tied[0]] = 0.0
        starts = [(parallel, tied), (zero, tied)]
        if plant.n > 2:
            starts.append((phi, [tied[0]] * (plant.n - 1)))
        for start_phi, start in starts:
            s, v, p, basis, _ = handsoff.solver._gauge(start_phi, target, start)
            cold = handsoff.solver._gauge(start_phi, target)
            # bit for bit the cold gauge
            assert (s, v.tobytes(), p.tobytes(), basis) == (
                cold[0], cold[1].tobytes(), cold[2].tobytes(), cold[3]
            ), (plant, x0, start)
            checked += 1
    assert checked >= 10


def blas_builds() -> str:
    """The OpenBLAS builds of numpy and scipy, which ``solver._solve``'s
    bits depend on."""
    import scipy

    return "; ".join(
        f"{pkg.__name__} {pkg.__version__}: "
        + pkg.show_config(mode="dicts")["Build Dependencies"]["blas"].get("openblas configuration", "?")
        for pkg in (np, scipy)
    )


def test_basis_solves_are_numpys_bit_for_bit():
    # _solve runs LAPACK's dgesv as np.linalg.solve does: the same bits on
    # seeded systems of 1 to 4 columns scaled over 20 decades, and on their
    # transposes, and the same refusal of a singular basis.  The bits are
    # the same only while scipy's OpenBLAS computes dgesv as numpy's does,
    # which neither package promises: a failure names both builds
    rng = np.random.default_rng(5)
    for _ in range(2000):
        k = int(rng.integers(1, 5))
        a = rng.standard_normal((k, k)) * 10.0 ** rng.integers(-10, 10, size=(1, k))
        b = rng.standard_normal(k)
        for basis in (a, a.T):
            x = handsoff.solver._solve(basis, b)
            assert x.tobytes() == np.linalg.solve(basis, b).tobytes(), (basis, blas_builds())
    # the ascent's Newton systems, curvature(band) + reg on seeded maps of
    # 1 to 4 rows, at quadratic weights over several decades
    for _ in range(100):
        n, mn = int(rng.integers(1, 5)), int(rng.integers(1, 400))
        phi = rng.standard_normal((n, mn)) * 10.0 ** rng.integers(-3, 4, (n, 1))
        w2 = np.full(mn, 10.0 ** rng.uniform(-6.0, 2.0))
        if rng.integers(2):
            w2 *= 10.0 ** rng.uniform(-3.0, 3.0, mn)
        reg, curvature = handsoff.solver._band_curvature(handsoff.solver._Layout(phi), w2)
        band = np.flatnonzero(rng.random(mn) < rng.random())
        hess, grad = curvature(band) + reg, rng.standard_normal(n)
        x = handsoff.solver._solve(hess, grad)
        assert x.tobytes() == np.linalg.solve(hess, grad).tobytes(), (hess, blas_builds())
    with pytest.raises(np.linalg.LinAlgError):
        handsoff.solver._solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))


def test_complete_q_is_numpys_bit_for_bit():
    # _complete_q runs LAPACK's dgeqrf and dorgqr as np.linalg.qr(mode=
    # "complete") does: the same bits, in C order (the exchange's products
    # with a Fortran-order Q differ in their last bits), on seeded bases of
    # n = 1 to 4 rows and k < n columns scaled from 1e-8 to 1e8, the empty
    # basis included.  As for _solve, a failure names both builds
    rng = np.random.default_rng(6)
    for _ in range(2000):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(0, n))
        a = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(1, k))
        q = handsoff.solver._complete_q(a)
        assert q.flags.c_contiguous, a
        assert q.tobytes() == np.linalg.qr(a, mode="complete")[0].tobytes(), (a, blas_builds())


def test_a_singular_newton_system_is_solved_by_least_squares(monkeypatch):
    # a map with a zero row gives a Newton matrix with a zero row and
    # column, which dgesv refuses; the ascent takes the least-squares
    # direction, which leaves the unreached costate entry at 0
    phi = np.array([[1.0, -0.5, 2.0, 0.3], [0.0, 0.0, 0.0, 0.0]])
    program = DiscreteProgram(
        phi=phi, target=[0.4, 0.0], l1_weights=np.full(4, 0.1), l2_weights=np.full(4, 0.2)
    )
    lstsq, calls = np.linalg.lstsq, []

    def counting(a, b, rcond=None):
        calls.append(a.shape)
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    report = solve(program)
    assert calls and set(calls) == {(2, 2)}
    assert len(calls) == report.iterations
    assert report.status == "converged"
    assert report.costate[1] == 0.0


def test_gauge_from_its_optimal_basis_returns_at_once(monkeypatch):
    # an optimal start at a vertex that ties no other sample takes no
    # exchange: one solve for the vertex, one for its multipliers, and no
    # projected gradient step or least squares
    calls = []

    def counted(name, call):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return call(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", np.linalg.lstsq))
    for name in ("_complete_q", "_solve"):
        monkeypatch.setattr(handsoff.solver, name, counted(name, getattr(handsoff.solver, name)))
    checked = 0
    for plant, x0 in gauge_battery():
        if not np.any(x0):
            continue
        phi, target = reach_map(plant, x0, 1.0, 40)
        cold = handsoff.solver._gauge(phi, target)
        c, size = phi.T @ cold[2], np.abs(phi).T @ np.abs(cold[2])
        if np.sum(np.abs(c) <= 1e-9 * size) > len(cold[3]):
            continue  # a degenerate vertex, whose warm start may exchange
        del calls[:]
        outcome, p, v, s, steps, tied, _ = handsoff.solver._exchange(
            phi, target, 0.0, handsoff.solver._MAX_EXCHANGES, cold[3]
        )
        assert (outcome, steps) == ("optimal", 0), (plant, x0)
        assert set(calls) <= {"_solve"} and len(calls) <= 2, (plant, x0, calls)
        assert abs(s - cold[0]) <= 1e-12 * cold[0], (plant, x0)
        checked += 1
    assert checked >= 10


def test_one_more_sample_is_the_map_built_on_one_more_sample():
    # more(p) on N samples prices the first sample's columns and the target
    # of the reach condition built directly on N + 1 samples of the same step
    rng = np.random.default_rng(21)
    build = handsoff.solver._reach_condition
    for plant, x0 in gauge_battery():
        for h, n_steps in ((0.5, 1), (0.025, 40), (0.02, 150)):
            p = rng.standard_normal(plant.n)
            extra, grown = build(plant, x0, h * n_steps, n_steps)[2](p)
            phi, target, _ = build(plant, x0, h * (n_steps + 1), n_steps + 1)
            first = phi[:, : plant.m]
            scale = np.sum(np.abs(p) @ np.abs(first))
            assert abs(extra - np.sum(np.abs(p @ first))) <= 1e-12 * scale, (plant, n_steps)
            scale = np.abs(p) @ np.abs(target)
            assert abs(grown - p @ target) <= 1e-12 * scale, (plant, n_steps)


def test_gauge_slope_is_the_envelope_of_one_more_sample():
    # the vertex p of N samples stays feasible when one sample is added at
    # the far end, so the slope bounds the one-sample rise of log s; where p
    # stays optimal (the premise of the envelope theorem) it is that rise,
    # and then within 5% of a central difference of log s on the same grid
    density = 40.0

    def gauge_at(plant, x0, h, n_steps):
        phi, target, more = handsoff.solver._reach_condition(plant, x0, h * n_steps, n_steps)
        s, _, p, _, _ = handsoff.solver._gauge(phi, target)
        support = float(np.sum(np.abs(phi.T @ p)))
        return s, handsoff.solver._gauge_slope(support, p, more, n_steps)

    matched = 0
    for plant, x0 in gauge_battery():
        if not np.any(x0):
            continue
        t_star = minimum_time(plant, x0, grid_density=density, tol_t=0.02)
        for horizon in (0.5 * t_star, 0.75 * t_star, t_star, 1.5 * t_star, 2.0 * t_star):
            n_steps = math.ceil(horizon * density)
            h = horizon / n_steps
            s, slope = gauge_at(plant, x0, h, n_steps)
            rise = math.log(gauge_at(plant, x0, h, n_steps + 1)[0] / s)
            bound = slope * math.log1p(1.0 / n_steps)
            assert rise <= bound + 1e-12, (plant, x0, horizon)
            if bound - rise > 1e-9 * bound:
                continue
            matched += 1
            d = 1e-6
            difference = math.log(
                gauge_at(plant, x0, h * (1.0 + d), n_steps)[0]
                / gauge_at(plant, x0, h * (1.0 - d), n_steps)[0]
            ) / math.log((1.0 + d) / (1.0 - d))
            assert abs(slope - difference) <= 0.05 * difference, (plant, x0, horizon)
    assert matched >= 40


def record_horizons(monkeypatch) -> list:
    """``[T, reachable]`` of every horizon ``minimum_time`` evaluates, in order.

    Each evaluation builds its reach condition once, with the exact ``T`` as
    its ``horizon``; the verdict is the sign of the certified log gauge.
    The support each certified gauge returns for the slope must be ``sum
    |phi' p|`` at its vertex, bit for bit.
    """
    seen = []
    reach_condition = handsoff.solver._reach_condition
    certified_gauge = handsoff.solver._certified_gauge

    def counted(plant, x0, horizon, n_steps):
        seen.append([horizon, None])
        return reach_condition(plant, x0, horizon, n_steps)

    def verdict(phi, target, tied):
        found = certified_gauge(phi, target, tied)
        seen[-1][1] = found is not None and found[0] >= 0.0
        if found is not None:
            support = float(np.sum(np.abs(phi.T @ found[1])))
            assert found[2].hex() == support.hex(), (found[2], support)
        return found

    monkeypatch.setattr(handsoff.solver, "_reach_condition", counted)
    monkeypatch.setattr(handsoff.solver, "_certified_gauge", verdict)
    return seen


def test_minimum_time_closes_its_bracket_at_exactly_tol_t(monkeypatch):
    # a probe tol_t across an interpolated horizon t can leave a computed
    # bracket width of tol_t plus one rounding; the search must then not
    # spend a horizon on it: no horizon is evaluated once the bracket is
    # within rounding of tol_t, and the returned T* is at most tol_t, as
    # computed, above a horizon certified unreachable
    seen = record_horizons(monkeypatch)
    density, tol = 40.0, 0.02
    for plant, x0 in gauge_battery():
        del seen[:]
        t_star = minimum_time(plant, x0, grid_density=density, tol_t=tol)
        if not np.any(x0):
            assert not seen
            continue
        lo, hi = 0.0, math.inf
        for horizon, reachable in seen:
            assert hi - lo > tol * (1.0 + 1e-12), (plant, x0, seen)
            if reachable:
                hi = min(hi, horizon)
            else:
                lo = max(lo, horizon)
        assert t_star == hi
        assert t_star - lo <= tol, (plant, x0, seen)


@pytest.mark.parametrize("x0, t_exact", [([1.0, 0.0], 2.0), ([0.25, 0.0], 1.0)])
def test_minimum_time_crosses_a_stretch_of_zero_log_gauge_in_few_horizons(
    monkeypatch, x0, t_exact
):
    # at density 100 the double integrator reaches the origin exactly at a
    # grid horizon, and log s is 0 (a miss within the reach floor) on a
    # stretch about 1e-8 s below it.  Steps of tol_t / 2 crossed it in 2156
    # horizons (from [1, 0], ending in ZeroDivisionError) and 39998 horizons
    # (from [0.25, 0], whose first horizon lands on the stretch)
    seen = record_horizons(monkeypatch)
    tol = 1e-12
    t_star = minimum_time(double_integrator(), x0, grid_density=100.0, tol_t=tol)
    assert len(seen) <= 40
    assert t_star == min(horizon for horizon, reachable in seen if reachable)
    assert 0.0 < t_star - max(horizon for horizon, reachable in seen if not reachable) <= tol
    assert abs(t_star - t_exact) <= 1e-7


def test_minimum_time_decides_a_jump_of_the_sample_count(monkeypatch):
    # at 100 samples per second log s jumps from about -2.2e-4 (58 samples)
    # to +2.5e-5 (59 samples) at T = 0.58, and the root lies at the jump;
    # regula falsi crept down the 59-sample side and took 67 horizons
    plant = LtiPlant(
        a=[
            [-0.727043317546176, -0.11268902622207475, -0.6805729160778526],
            [2.187930112517281, -0.8636408117338313, -2.966077882406045],
            [-0.26082503216629466, 2.8608480758259125, 0.41703020110066386],
        ],
        b=[
            [-0.40118460558290003, -2.701204555783338],
            [0.25070133064239036, -0.8431258465119923],
            [0.022973877811125868, 2.8792830210903633],
        ],
    )
    x0 = [0.42069806698731815, 0.13516030185813482, -1.188538511775104]
    seen = record_horizons(monkeypatch)
    density, tol = 100.0, 1e-10
    t_star = minimum_time(plant, x0, grid_density=density, tol_t=tol)
    assert len(seen) <= 15
    assert t_star == min(horizon for horizon, reachable in seen if reachable)
    below = max(horizon for horizon, reachable in seen if not reachable)
    assert 0.0 < t_star - below <= tol
    assert (math.ceil(below * density), math.ceil(t_star * density)) == (58, 59)


@pytest.mark.parametrize(
    "x0, density, tol",
    [
        ([((7 - 0.05) / 100 / 2) ** 2, 0.0], 100.0, 1e-6),
        ([((3.4 + 0.03) / 2) ** 2, 0.0], 10.0, 1e-5),
    ],
    ids=["edge-stepped-down", "edge-stepped-up"],
)
def test_minimum_time_moves_the_edge_of_a_sample_count_to_the_last_horizon_with_it(
    monkeypatch, x0, density, tol
):
    # k / density need not have k samples: 0.07 * 100 = 7.000000000000001,
    # so the last horizon with 7 samples is the double below 0.07 (T* =
    # 0.07); at density 10 the edge of 34 samples is stepped up instead
    # (T* = 3.4314)
    seen = record_horizons(monkeypatch)
    t_star = minimum_time(double_integrator(), x0, grid_density=density, tol_t=tol)
    assert t_star == min(horizon for horizon, reachable in seen if reachable)
    below = max(horizon for horizon, reachable in seen if not reachable)
    assert 0.0 < t_star - below <= tol


def test_minimum_time_keeps_twofold_steps_up_under_a_wide_tol_t(monkeypatch):
    # the last clamp, to lo + tol_t / 2, used to lift the horizon past the
    # Newton step's cap of 2 lo while none was known reachable: at tol_t =
    # 1e7 it searched past 1e6 s
    seen = record_horizons(monkeypatch)
    assert minimum_time(double_integrator(), [1.0, 0.0], tol_t=1e7) == 2.0
    assert seen == [[1.0, False], [2.0, True]]


@pytest.mark.parametrize("tol", [1e-17, 1e-300, 5e-324])
def test_minimum_time_returns_when_tol_t_is_below_the_spacing_of_doubles(
    monkeypatch, tol
):
    # near T* = 1.2 no bracket can be narrower than one ulp (2.2e-16); the
    # search ran on without end below that, and at 5e-324 the step down of
    # a zero log gauge, tol_t / 2, rounded to 0.  A cap on the horizons
    # turns a regression into a failure instead of a hang
    reach = handsoff.solver.reachability_matrix
    calls = []

    def capped(ad, bd, n_steps):
        calls.append(n_steps)
        if len(calls) > 100:
            pytest.fail("minimum_time evaluated more than 100 horizons")
        return reach(ad, bd, n_steps)

    monkeypatch.setattr(handsoff.solver, "reachability_matrix", capped)
    seen = record_horizons(monkeypatch)
    t_star = minimum_time(double_integrator(), [0.3, 0.1], grid_density=100.0, tol_t=tol)
    assert len(seen) == len({horizon for horizon, _ in seen})
    assert t_star == min(horizon for horizon, reachable in seen if reachable)
    below = max(horizon for horizon, reachable in seen if not reachable)
    assert math.nextafter(below, math.inf) == t_star
    assert abs(t_star - 1.2045808580048927) <= 1e-15


def test_minimum_time_evaluates_fewer_horizons_on_the_gauge_battery(monkeypatch):
    # 87 horizons when each horizon started from the last costate alone and
    # the regula falsi ran on s against T, 69 with secant steps on log s
    # (slope 2 until two horizons gave one) instead of the envelope slope,
    # 54 when each search started at 1 s instead of at its modes' bound
    seen = record_horizons(monkeypatch)
    for plant, x0 in gauge_battery():
        minimum_time(plant, x0, grid_density=40.0, tol_t=0.02)
    assert len(seen) <= 46


def test_minimum_time_on_plants_shaped_like_the_benchmark_batch(monkeypatch):
    # n in 2..4 and m in 1..2 at 100 samples per second, as the benchmark's
    # minimum-time batch draws its plants; record_horizons checks each
    # horizon's support.  Rounding leaves one horizon of one strongly
    # unstable plant with neither certificate (the 18th, at T = 68.259 s and
    # lambda T = 44.4), and no other
    seen = record_horizons(monkeypatch)
    refused = []
    for i, (plant, x0) in enumerate(seeded_plants(31, 24, m_max=2, n_min=2)):
        try:
            minimum_time(plant, x0, grid_density=100.0, tol_t=0.01)
        except RuntimeError as exc:
            assert "undecided" in str(exc) and "T = 68.259 " in str(exc), exc
            refused.append(i)
    assert refused == [17]
    reachable = [verdict for _, verdict in seen]
    assert len(seen) >= 100 and any(reachable) and not all(reachable)


def test_minimum_time_starts_at_a_lower_bound_on_its_modes(monkeypatch):
    # under |u| <= 1 a mode z = v'x has d|z|/dt >= Re mu |z| - |B'v|_1, so it
    # cannot come to rest sooner than its bound; no sampled control does
    # better than a continuous one, so the first horizon, max(1, the largest
    # bound), is at most T*.  It equals T* where one scalar mode decides
    # (an integrator, the diagonal plant), and the horizons stay Python floats
    seen = record_horizons(monkeypatch)
    decided = above = 0
    for cases, density, tol in (
        (gauge_battery(), 40.0, 0.02),
        (seeded_plants(31, 24, m_max=2, n_min=2), 100.0, 0.01),
    ):
        for plant, x0 in cases:
            del seen[:]
            try:
                t_star = minimum_time(plant, x0, grid_density=density, tol_t=tol)
            except RuntimeError:
                t_star = None  # the undecided 18th seeded plant
            assert all(type(horizon) is float for horizon, _ in seen), seen
            if t_star is None or not seen:
                continue
            start = seen[0][0]
            assert start <= max(1.0, t_star), (plant, x0, start, t_star)
            decided += 1
            above += start > 1.0
    assert (decided, above) == (36, 14)


def test_minimum_time_refuses_a_far_target_before_building_a_map(monkeypatch):
    # from 6.7e16 out, the undamped plant's modes need about 2.5e16 s to come
    # to rest, so the search starts above its 1e6-s limit and refuses at
    # once.  Started at 1 s, it doubled through maps of millions of columns
    plant = seeded_plants(31, 24, m_max=2, n_min=2)[4][0]
    seen = record_horizons(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="no feasible horizon found below 1e6 seconds"):
        minimum_time(plant, [-1.43e16, 6.52e16], grid_density=100.0, tol_t=0.01)
    assert time.perf_counter() - start < 0.5
    assert seen == []


def two_input_short_chain() -> LtiPlant:
    """A triple integrator on the first input beside a lag on the second.

    At two samples its reach map has four columns but rank 3.
    """
    a = [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0]]
    return LtiPlant(a=a, b=[[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize(
    "plant, target_in_range, n_steps",
    [
        (oscillator_chain(), False, 1),  # m N < n - 1
        (oscillator_chain(), False, 2),  # m N < n - 1
        (oscillator_chain(), False, 3),  # m N = n - 1
        (oscillator_chain(), True, 2),
        (double_integrator(), False, 1),  # m N = n - 1
        (two_input_short_chain(), False, 2),  # m N = n, rank n - 1
        (two_input_short_chain(), True, 2),
    ],
    ids=["chain-1", "chain-2", "chain-3", "chain-2-in-span", "double-integrator-1",
         "two-input-2", "two-input-2-in-span"],
)
def test_gauge_of_a_reach_map_that_does_not_span_the_state_space(
    plant, target_in_range, n_steps
):
    # outside the span of phi the gauge is 0 and its costate a Farkas
    # certificate; inside it the gauge is positive and found within the span
    phi, _ = reach_map(plant, np.ones(plant.n), 1.0 * n_steps, n_steps)
    if target_in_range:
        target = phi @ np.linspace(1.0, 2.0, phi.shape[1])
    else:
        target = -np.linalg.matrix_power(discretize(plant, 1.0)[0], n_steps) @ np.ones(plant.n)
    found = handsoff.solver._gauge(phi, target)
    assert found is not None
    s, v, p, basis, _ = found
    lp = lp_gauge(phi, target)
    assert abs(s - lp) <= 1e-8 * max(lp, 1.0), (s, lp)
    assert (lp > 0.1) == target_in_range
    assert target @ p == pytest.approx(1.0)
    assert np.max(np.abs(v)) <= 1.0 + 1e-12
    assert np.allclose(phi @ v, s * target, atol=1e-12 * np.linalg.norm(target))
    certified = handsoff.solver._certified_gauge(phi, target, basis)
    assert certified is not None and math.isfinite(certified[0])
    assert (certified[0] < 0.0) == (s < 1.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("where", ["phi", "target"])
def test_certified_gauge_of_a_non_finite_map_or_target_is_none(monkeypatch, where, bad):
    # an overflowed map or target backs no certificate, so the gauge is not
    # taken on it; minimum_time's "neither certificate verifies" rests on this
    phi, target = reach_map(double_integrator(), [1.0, 0.0], 4.0, 8)
    if where == "phi":
        phi[1, 3] = bad
    else:
        target[0] = bad

    def unreached(phi, target, tied):
        pytest.fail("the gauge was taken on a non-finite input")

    monkeypatch.setattr(handsoff.solver, "_gauge", unreached)
    assert handsoff.solver._certified_gauge(phi, target) is None


@pytest.mark.parametrize(
    "plant, x0, expected",
    [
        (oscillator_chain(), np.ones(4), 6.62),
        (oscillator_chain(), 1e-3 * np.ones(4), 3.01),
        (two_input_short_chain(), np.array([1.0, 0.5, 0.2, 1.0]), 4.5),
        (two_input_short_chain(), 1e-3 * np.array([1.0, 0.5, 0.2, 1.0]), 2.01),
    ],
    ids=["chain", "chain-small-x0", "two-input", "two-input-small-x0"],
)
def test_minimum_time_on_a_coarse_grid(plant, x0, expected):
    # one sample per second: the first horizons tried have fewer samples
    # than the state has dimensions (or a rank deficient map), where the
    # origin is out of reach; expected is the doubling-and-bisection answer
    # of the BVLS feasibility test this search replaced
    tol = 0.01
    t_star = minimum_time(plant, x0, grid_density=1.0, tol_t=tol)
    assert abs(t_star - expected) <= tol
    n_steps = math.ceil(t_star)
    phi, target = reach_map(plant, x0, t_star, n_steps)
    assert lp_gauge(phi, target) >= 1.0 - 1e-9


def test_minimum_time_of_the_double_integrator_on_a_coarse_grid():
    # at one sample per second, T = 2 is reachable (two samples of length 1,
    # u = -1 then +1) while T just below it (two shorter samples) and just
    # above it (three samples) are not; the search starts at T = 1, where
    # the map has one column and the gauge is 0 up to rounding
    assert minimum_time(double_integrator(), [1.0, 0.0], grid_density=1.0) == 2.0


def test_minimum_time_raises_when_no_certificate_verifies(monkeypatch):
    # a gauge that reads 1e-5 of its value, as rounding can make it do on a
    # strongly unstable plant, leaves the reachable horizons with neither a
    # control that hits the target nor a Farkas costate
    gauge = handsoff.solver._gauge

    def misread(phi, target, tied):
        s, v, p, tied, support = gauge(phi, target, tied)
        return 1e-5 * s, v, p, tied, support

    monkeypatch.setattr(handsoff.solver, "_gauge", misread)
    plant = LtiPlant(a=[[0.92]], b=[[1.0]])
    with pytest.raises(RuntimeError, match=r"T = .*max Re lambda \* T = "):
        minimum_time(plant, [0.5], grid_density=20.0)


def test_minimum_time_of_a_complex_pair_out_of_reach_raises():
    # x0 at 0.8 of the bound |B'v|_1 / Re mu of the pair 0.3 +- 1i: the bound
    # is only necessary for a complex pair, and the gauge levels off at 0.76,
    # certified below 1 up to T ~ 1000 s; further up the map overflows, and
    # no horizon may then count as reachable
    plant = LtiPlant(a=[[0.3, 1.0], [-1.0, 0.3]], b=[[0.0], [1.0]])
    eigvals, left = np.linalg.eig(plant.a.T)
    k = int(np.argmax(eigvals.real))
    v = left[:, k]
    x0 = np.real(np.conj(v))
    x0 *= 0.8 * np.sum(np.abs(plant.b.T @ v)) / eigvals[k].real / abs(v @ x0)
    with pytest.raises(RuntimeError, match="neither certificate verifies"):
        minimum_time(plant, x0, grid_density=20.0)


def test_minimum_time_of_a_controllable_pair_with_a_tiny_gramian_eigenvalue():
    # a stable 4-state plant whose controllability Gramian over 1 s has an
    # eigenvalue ratio of 9.4e-13; the Hautus test finds it controllable
    plant = LtiPlant(
        a=[
            [-1.294979100750277, 0.6418669850004759, -0.44003372436601157, -0.8415538015713844],
            [0.008624372296130963, -1.1453842077934806, 0.13325924438727335, 0.21148260065212907],
            [0.12107831467953468, -0.5159857991428918, -0.42631702805913363, 0.9206734513893161],
            [-0.33781856707342645, 0.681204726725577, -0.28427825606097473, -1.6768687640006592],
        ],
        b=[[-1.4045111498754397], [-0.6947696164052466], [1.670838954380576], [0.637486246971306]],
    )
    x0 = [0.18324522016416792, -0.29587475490332427, 1.2478565894097946, -0.42334950925657155]
    density, tol = 100.0, 0.01
    t_star = minimum_time(plant, x0, grid_density=density, tol_t=tol)
    assert 8.3 < t_star < 8.6
    # the LP agrees: reachable at T*, not at T* - tol
    for horizon, reachable in ((t_star, True), (t_star - tol, False)):
        phi, target = reach_map(plant, x0, horizon, int(np.ceil(horizon * density)))
        assert (lp_gauge(phi, target) >= 1.0 - 1e-9) == reachable


def test_minimum_time_input_validation():
    with pytest.raises(ValueError):
        minimum_time(double_integrator(), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        minimum_time(double_integrator(), [1.0, 0.0], grid_density=0.0)
    with pytest.raises(ValueError):
        minimum_time(double_integrator(), [1.0, 0.0], tol_t=0.0)
    # an infinite tol_t returned inf
    with pytest.raises(ValueError, match="tol_t must be positive and finite, got inf"):
        minimum_time(double_integrator(), [1.0, 0.0], tol_t=math.inf)


@pytest.mark.parametrize(
    "x0, density",
    [([1.0, 0.0], math.inf), ([1.0, 0.0], math.nan), ([math.inf, 0.0], 100.0)],
    ids=["inf-density", "nan-density", "inf-x0"],
)
def test_minimum_time_rejects_non_finite_inputs_before_building_a_map(monkeypatch, x0, density):
    # an infinite density passed the positivity check and then overflowed
    # math.ceil; an infinite x0 ended in "minimum time undecided"
    def unreached(plant, h):
        pytest.fail("minimum_time built a map")

    monkeypatch.setattr(handsoff.solver, "discretize", unreached)
    with pytest.raises(ValueError, match="finite"):
        minimum_time(double_integrator(), x0, grid_density=density)


def test_minimum_time_gives_up_above_1e6_seconds(monkeypatch):
    # a double integrator a million times slower, T* about 2e6 s: the search
    # doubles past 1e6 s on coarse grids (at most 83 samples) and stops there
    reach = handsoff.solver.reachability_matrix
    calls = []

    def counted(ad, bd, n_steps):
        calls.append(n_steps)
        return reach(ad, bd, n_steps)

    monkeypatch.setattr(handsoff.solver, "reachability_matrix", counted)
    plant = LtiPlant(a=[[0.0, 1e-6], [0.0, 0.0]], b=[[0.0], [1e-6]])
    with pytest.raises(RuntimeError, match="no feasible horizon found below 1e6 seconds"):
        minimum_time(plant, [1.0, 0.0], grid_density=1e-4)
    assert len(calls) <= 30 and max(calls) <= 100
