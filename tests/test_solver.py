"""Tests for the transcription, the costate-dual solver, and minimum time."""

import numpy as np
import pytest
from scipy.optimize import linprog

import handsoff.solver
from handsoff import (
    ControlProblem,
    DiscreteProgram,
    LtiPlant,
    dead_zone,
    min_energy_closed_form,
    minimum_time,
    solve,
    solve_l1,
    solve_l1l2,
    solve_l2,
    solve_problem,
    sat,
    shrink,
    simulate,
    transcribe,
)


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
    from handsoff import discretize, reachability_matrix

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


# ---------------------------------------------------------------------------
# solve


def test_zero_initial_state_returns_zero_control():
    problem = ControlProblem(
        plant=double_integrator(), x0=[0.0, 0.0], T=2.0, N=50, lam=1.0, mode="L1"
    )
    report = solve_l1(problem)
    assert report.status == "converged"
    np.testing.assert_array_equal(report.u.u, 0.0)
    assert report.j0 == 0.0
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
    report = solve_l2(problem)
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
    u_sparse = solve_l1(sparse_problem).u.u.reshape(-1)
    u_smooth = solve_l2(smooth_problem).u.u.reshape(-1)

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
    u_sparse = solve_l1(ControlProblem(**base, lam=1.0, mode="L1")).u.u.reshape(-1)
    u_smooth = solve_l2(ControlProblem(**base, r=1.0, mode="L2")).u.u.reshape(-1)

    # vanishing quadratic weight: distance to the sparse solution nonincreasing
    gaps = []
    for r in (1.0, 1e-1, 1e-2, 1e-3):
        mixed = solve_l1l2(ControlProblem(**base, lam=1.0, r=r, mode="L1L2"))
        assert mixed.status == "converged"
        gaps.append(np.max(np.abs(mixed.u.u.reshape(-1) - u_sparse)))
    assert all(gaps[i + 1] <= gaps[i] + 1e-6 for i in range(len(gaps) - 1))

    # vanishing L1 weight: the mixed solution lands on the smooth solution
    mixed = solve_l1l2(ControlProblem(**base, lam=1e-3, r=1.0, mode="L1L2"))
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


def test_max_iter_status_when_budget_too_small(monkeypatch):
    problem = ControlProblem(
        plant=double_integrator(), x0=[1.0, 0.0], T=4.0, N=100, lam=1.0, mode="L1"
    )
    monkeypatch.setattr(handsoff.solver, "_MAX_ITER", 3)
    report = solve_problem(problem)
    assert report.status == "max_iter"
    assert report.iterations == 3


def test_horizon_below_minimum_time_is_flagged():
    problem = ControlProblem(
        plant=oscillator_chain(), x0=[1.0, 1.0, 1.0, 1.0], T=0.1, N=50,
        lam=1.0, mode="L1",
    )
    report = solve_l1(problem)
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
            terminal = simulate(problem.plant, problem.x0, report.u).final_state
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
        assert report.status != "max_iter", (problem, report.iterations)
    assert "converged" in outcomes and "infeasible_suspected" in outcomes


def test_rank_deficient_reach_map_raises():
    program = DiscreteProgram(
        phi=[[1.0, 1.0], [0.0, 0.0]],
        target=[1.0, 0.0],
        l1_weights=[1.0, 1.0],
        l2_weights=[0.0, 0.0],
    )
    with pytest.raises(np.linalg.LinAlgError):
        solve(program)


# ---------------------------------------------------------------------------
# minimum time


def test_minimum_time_zero_state_is_immediate():
    assert minimum_time(double_integrator(), [0.0, 0.0], tol_t=0.01) <= 0.01


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


def test_minimum_time_input_validation():
    with pytest.raises(ValueError):
        minimum_time(double_integrator(), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        minimum_time(double_integrator(), [1.0, 0.0], grid_density=0.0)
    with pytest.raises(ValueError):
        minimum_time(double_integrator(), [1.0, 0.0], tol_t=0.0)
