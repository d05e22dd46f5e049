"""Discretization, simulation, reachability, and minimum-energy tests.

Oracles: a 30-term truncated Taylor series for the matrix exponential, and
hand-derived closed forms for the double integrator
(A = [[0,1],[0,0]], B = [0,1]'):

    Ad(h) = [[1, h], [0, 1]],   Bd(h) = [h^2/2, h]'
    Gramian W_T = [[T^3/3, T^2/2], [T^2/2, T]]
    min-energy u(t) is affine in t.
"""

import numpy as np
import pytest

from handsoff.plant import (
    ControlProblem,
    ControlTrajectory,
    LtiPlant,
    controllability_gramian,
    discretize,
    expm,
    hautus_test,
    min_energy_closed_form,
    reachability_matrix,
    simulate,
)
from handsoff.solver import minimum_time

DOUBLE_INTEGRATOR = LtiPlant(a=[[0.0, 1.0], [0.0, 0.0]], b=[0.0, 1.0])


def sequential_reachability(ad, bd, n_steps):
    """Reference ``[Ad^(N-1) Bd, ..., Ad Bd, Bd]``, one product per step."""
    n, m = bd.shape
    phi = np.empty((n, m * n_steps))
    block = bd
    for k in range(n_steps - 1, -1, -1):
        phi[:, k * m : (k + 1) * m] = block
        block = ad @ block
    return phi


def sequential_states(ad, bd, x0, u):
    """Reference recurrence ``x[k+1] = Ad x[k] + Bd u[k]``, one step at a time."""
    states = np.empty((u.shape[0] + 1, ad.shape[0]))
    states[0] = x0
    for k in range(u.shape[0]):
        states[k + 1] = ad @ states[k] + bd @ u[k]
    return states


def kernel_battery():
    """Seeded ``(plant, T)`` pairs: stable, oscillatory and unstable in turn.

    n is 2..4 and m 1..2; the unstable plants have max Re(lambda) * T in
    (5, 20].
    """
    rng = np.random.default_rng(2024)
    battery = []
    for i in range(12):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        a = rng.standard_normal((n, n))
        kind = i % 3
        if kind == 1:
            # lightly damped: eigenvalues just left of the imaginary axis
            a = a - a.T - 0.01 * np.eye(n)
        else:
            lead = float(np.max(np.linalg.eigvals(a).real))
            shift = -rng.uniform(0.1, 1.5) if kind == 0 else rng.uniform(0.2, 2.0)
            a = a + (shift - lead) * np.eye(n)
        lead = float(np.max(np.linalg.eigvals(a).real))
        horizon = rng.uniform(5.0, 20.0) / lead if kind == 2 else rng.uniform(1.0, 20.0)
        battery.append((LtiPlant(a=a, b=rng.standard_normal((n, m))), horizon))
    return battery


def taylor_expm(m, terms=30):
    """Truncated exponential series; accurate to ~1e-15 for ||m|| <= 1."""
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms + 1):
        term = term @ m / k
        out = out + term
    return out


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_nilpotent_closed_form(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(expm(m), [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)

    def test_matches_taylor_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = rng.uniform(-1, 1, size=(3, 3))
            m *= min(1.0, 1.0 / np.linalg.norm(m, 2))
            assert np.allclose(expm(m), taylor_expm(m), atol=1e-10)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            expm(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            expm(np.array([[np.nan, 0.0], [0.0, 0.0]]))


class TestDiscretize:
    def test_integrator_bank(self):
        # A = 0, B = I: Ad = I, Bd = h I
        plant = LtiPlant(a=np.zeros((2, 2)), b=np.eye(2))
        ad, bd = discretize(plant, 0.1)
        assert np.allclose(ad, np.eye(2), atol=1e-14)
        assert np.allclose(bd, 0.1 * np.eye(2), atol=1e-14)

    def test_double_integrator_closed_form(self):
        ad, bd = discretize(DOUBLE_INTEGRATOR, 1.0)
        assert np.allclose(ad, [[1.0, 1.0], [0.0, 1.0]], atol=1e-12)
        assert np.allclose(bd, [[0.5], [1.0]], atol=1e-12)

    def test_semigroup_property(self):
        # Ad(h) = Ad(h/2)^2 and Bd(h) = Ad(h/2) Bd(h/2) + Bd(h/2)
        rng = np.random.default_rng(11)
        for _ in range(10):
            plant = LtiPlant(a=rng.uniform(-1, 1, (3, 3)), b=rng.uniform(-1, 1, (3, 2)))
            h = rng.uniform(0.05, 1.0)
            ad, bd = discretize(plant, h)
            ad2, bd2 = discretize(plant, h / 2)
            assert np.allclose(ad, ad2 @ ad2, atol=1e-10)
            assert np.allclose(bd, ad2 @ bd2 + bd2, atol=1e-10)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            discretize(DOUBLE_INTEGRATOR, 0.0)


class TestSimulate:
    def test_zero_control_is_free_response(self):
        plant = DOUBLE_INTEGRATOR
        u = ControlTrajectory(h=0.5, u=np.zeros((4, 1)))
        states = simulate(plant, [1.0, -2.0], u)
        assert isinstance(states, np.ndarray) and states.shape == (5, 2)
        ad, _ = discretize(plant, 0.5)
        expected = [1.0, -2.0]
        for k in range(4):
            assert np.allclose(states[k], expected, atol=1e-12)
            expected = ad @ expected
        assert np.allclose(states[4], expected, atol=1e-12)

    def test_step_identity_random(self):
        rng = np.random.default_rng(12)
        plant = LtiPlant(a=rng.uniform(-1, 1, (3, 3)), b=rng.uniform(-1, 1, (3, 2)))
        u = ControlTrajectory(h=0.2, u=rng.uniform(-1, 1, (25, 2)))
        states = simulate(plant, rng.uniform(-1, 1, 3), u)
        ad, bd = discretize(plant, 0.2)
        for k in range(25):
            assert np.allclose(states[k + 1], ad @ states[k] + bd @ u.u[k], atol=1e-9)

    def test_rejects_channel_mismatch(self):
        u = ControlTrajectory(h=0.1, u=np.zeros((5, 2)))
        with pytest.raises(ValueError):
            simulate(DOUBLE_INTEGRATOR, [0.0, 0.0], u)

    def test_rejects_overflowed_states(self):
        # exp(800) overflows a double, so the state after one step is not finite
        plant = LtiPlant(a=[[800.0]], b=[[1.0]])
        u = ControlTrajectory(h=1.0, u=[[0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=r"^states must be finite$"):
                simulate(plant, [1.0], u)


class TestReachability:
    def test_single_step_is_bd(self):
        ad, bd = discretize(DOUBLE_INTEGRATOR, 0.3)
        phi, free = reachability_matrix(ad, bd, 1)
        assert np.allclose(phi, bd, atol=1e-14)
        assert np.allclose(free, ad, atol=1e-14)

    def test_double_integrator_two_steps(self):
        ad, bd = discretize(DOUBLE_INTEGRATOR, 1.0)
        phi, free = reachability_matrix(ad, bd, 2)
        assert np.allclose(phi, [[1.5, 0.5], [1.0, 1.0]], atol=1e-12)
        assert np.allclose(free, np.linalg.matrix_power(ad, 2), atol=1e-12)

    def test_consistent_with_simulation(self):
        # x[N] = free x0 + phi vec(U) must equal the stepped simulation
        rng = np.random.default_rng(13)
        plant = LtiPlant(a=rng.uniform(-1, 1, (3, 3)), b=rng.uniform(-1, 1, (3, 2)))
        h, n_steps = 0.15, 12
        ad, bd = discretize(plant, h)
        phi, free = reachability_matrix(ad, bd, n_steps)
        x0 = rng.uniform(-1, 1, 3)
        u = rng.uniform(-1, 1, (n_steps, 2))
        terminal = simulate(plant, x0, ControlTrajectory(h=h, u=u))[-1]
        assert np.allclose(terminal, free @ x0 + phi @ u.reshape(-1), atol=1e-9)

    def test_free_response_is_bit_for_bit_matrix_power(self):
        # free reuses the squares that fill phi, multiplied in the order of
        # np.linalg.matrix_power (its N <= 3 shortcuts included), so it is
        # the same array to the last bit on every sample count
        for plant, horizon in kernel_battery()[:3]:
            for n_steps in range(1, 601):
                ad, bd = discretize(plant, horizon / n_steps)
                _, free = reachability_matrix(ad, bd, n_steps)
                assert np.array_equal(free, np.linalg.matrix_power(ad, n_steps)), n_steps

    def test_rejects_malformed_inputs(self):
        with pytest.raises(ValueError, match=r"^ad must be square, got shape \(2, 3\)$"):
            reachability_matrix(np.zeros((2, 3)), np.zeros((2, 1)), 4)
        with pytest.raises(ValueError, match=r"^bd must have 2 rows, got shape \(3, 1\)$"):
            reachability_matrix(np.eye(2), np.zeros((3, 1)), 4)
        with pytest.raises(ValueError, match=r"^n_steps must be >= 1, got 0$"):
            reachability_matrix(np.eye(2), np.zeros((2, 1)), 0)

    def test_promotes_a_vector_bd_to_one_column(self):
        ad, bd = discretize(DOUBLE_INTEGRATOR, 0.1)
        phi, free = reachability_matrix(ad, bd[:, 0], 5)
        expected_phi, expected_free = reachability_matrix(ad, bd, 5)
        assert phi.shape == (2, 5)
        assert phi.tobytes() == expected_phi.tobytes()
        assert free.tobytes() == expected_free.tobytes()


class TestDoublingAgainstSequentialLoops:
    """The loop-free N-step maps against the one-step-at-a-time recurrences."""

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 1000, 4097])
    def test_battery(self, n_steps):
        rng = np.random.default_rng(n_steps)
        for plant, horizon in kernel_battery():
            h = horizon / n_steps
            ad, bd = discretize(plant, h)
            phi, free = reachability_matrix(ad, bd, n_steps)
            ref = sequential_reachability(ad, bd, n_steps)
            col_err = np.linalg.norm(phi - ref, axis=0) / np.linalg.norm(ref, axis=0)
            assert np.max(col_err) <= 1e-11, (plant, horizon)

            x0 = rng.standard_normal(plant.n)
            u = rng.uniform(-1.0, 1.0, (n_steps, plant.m))
            states = simulate(plant, x0, ControlTrajectory(h=h, u=u))
            ref = sequential_states(ad, bd, x0, u)
            state_err = np.linalg.norm(states - ref, axis=1) / np.linalg.norm(ref, axis=1)
            assert np.max(state_err) <= 1e-11, (plant, horizon)

            terminal = free @ x0 + phi @ u.reshape(-1)
            assert np.linalg.norm(states[-1] - terminal) <= 1e-11 * np.linalg.norm(
                terminal
            ), (plant, horizon)


class TestGramian:
    def test_double_integrator_closed_form(self):
        for horizon in [0.5, 1.0, 4.0]:
            w = controllability_gramian(DOUBLE_INTEGRATOR, horizon)
            expected = np.array(
                [
                    [horizon**3 / 3.0, horizon**2 / 2.0],
                    [horizon**2 / 2.0, horizon],
                ]
            )
            assert np.allclose(w, expected, atol=1e-10)

    def test_rejects_a_nonpositive_horizon(self):
        with pytest.raises(ValueError, match=r"^horizon must be positive, got 0.0$"):
            controllability_gramian(DOUBLE_INTEGRATOR, 0.0)

    def test_quadrature_oracle_random(self):
        rng = np.random.default_rng(14)
        plant = LtiPlant(a=rng.uniform(-1, 1, (3, 3)), b=rng.uniform(-1, 1, (3, 1)))
        horizon = 2.0
        # fine midpoint quadrature of the defining integral
        k = 4000
        dt = horizon / k
        acc = np.zeros((3, 3))
        for i in range(k):
            e = expm(plant.a * ((i + 0.5) * dt))
            v = e @ plant.b
            acc += v @ v.T * dt
        w = controllability_gramian(plant, horizon)
        assert np.allclose(w, acc, atol=1e-6)


class TestMinEnergy:
    def test_double_integrator_affine_closed_form(self):
        # from x0 = [1, 0] over T = 4: u(t) = -3/8 + (3/16) t
        u = min_energy_closed_form(DOUBLE_INTEGRATOR, [1.0, 0.0], 4.0, 400)
        t_mid = (np.arange(400) + 0.5) * (4.0 / 400)
        assert np.allclose(u.u[:, 0], -3.0 / 8.0 + 3.0 / 16.0 * t_mid, atol=1e-10)

    def test_unstable_plant_matches_per_sample_formula(self):
        # eigenvalues 0.84 +- 0.58i and -0.17: max Re(lambda) * T ~ 5
        plant = LtiPlant(
            a=[[0.6, 1.0, 0.0], [0.0, 0.4, 1.0], [-0.3, 0.0, 0.5]], b=[0.0, 0.0, 1.0]
        )
        x0, horizon, n_steps = np.array([1.0, -0.5, 0.25]), 6.0, 3000
        u = min_energy_closed_form(plant, x0, horizon, n_steps).u
        eta = np.linalg.solve(
            controllability_gramian(plant, horizon), expm(plant.a * horizon) @ x0
        )
        h = horizon / n_steps
        exact = np.array(
            [
                -(expm(plant.a * (horizon - (k + 0.5) * h)) @ plant.b).T @ eta
                for k in range(n_steps)
            ]
        )
        assert np.max(np.abs(u - exact)) <= 1e-10 * np.max(np.abs(exact))

    def test_reaches_origin_on_fine_grid(self):
        plant = DOUBLE_INTEGRATOR
        x0 = [1.0, 0.5]
        u = min_energy_closed_form(plant, x0, 4.0, 4000)
        terminal = simulate(plant, x0, u)[-1]
        assert np.linalg.norm(terminal) <= 1e-4 * max(1.0, np.linalg.norm(x0))

    def test_reaches_origin_oscillatory_plant(self):
        a = np.array(
            [
                [0.0, -1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        plant = LtiPlant(a=a, b=[2.0, 0.0, 0.0, 0.0])
        x0 = np.ones(4)
        u = min_energy_closed_form(plant, x0, 10.0, 5000)
        terminal = simulate(plant, x0, u)[-1]
        assert np.linalg.norm(terminal) <= 1e-4 * max(1.0, np.linalg.norm(x0))

    def test_zero_initial_state_gives_zero_control(self):
        u = min_energy_closed_form(DOUBLE_INTEGRATOR, [0.0, 0.0], 2.0, 50)
        assert np.allclose(u.u, 0.0, atol=1e-14)

    def test_rejects_a_bad_grid(self):
        with pytest.raises(ValueError, match=r"^horizon must be positive, got -1.0$"):
            min_energy_closed_form(DOUBLE_INTEGRATOR, [1.0, 0.0], -1.0, 100)
        with pytest.raises(ValueError, match=r"^n_steps must be >= 1, got 0$"):
            min_energy_closed_form(DOUBLE_INTEGRATOR, [1.0, 0.0], 2.0, 0)

    def test_uncontrollable_pair_raises(self):
        plant = LtiPlant(a=[[0.0, 1.0], [0.0, 0.0]], b=[1.0, 0.0])
        with pytest.raises(np.linalg.LinAlgError):
            min_energy_closed_form(plant, [1.0, 0.0], 2.0, 100)

    def test_ill_conditioned_gramian_of_a_controllable_pair_raises_by_its_ratio(self):
        # a stable plant that passes the Hautus test, but whose Gramian over
        # 1 s has an eigenvalue ratio of 9.4e-13; the closed form refuses it
        # for its conditioning, not as an uncontrollable pair
        plant = LtiPlant(
            a=[
                [-1.294979100750277, 0.6418669850004759, -0.44003372436601157, -0.8415538015713844],
                [0.008624372296130963, -1.1453842077934806, 0.13325924438727335, 0.21148260065212907],
                [0.12107831467953468, -0.5159857991428918, -0.42631702805913363, 0.9206734513893161],
                [-0.33781856707342645, 0.681204726725577, -0.28427825606097473, -1.6768687640006592],
            ],
            b=[-1.4045111498754397, -0.6947696164052466, 1.670838954380576, 0.637486246971306],
        )
        hautus_test(plant)
        with pytest.raises(np.linalg.LinAlgError) as raised:
            min_energy_closed_form(plant, [1.0, 0.0, 0.0, 0.0], 1.0, 100)
        message = str(raised.value)
        assert "eigenvalue ratio 9.4" in message
        assert "controllab" not in message


class TestTypes:
    def test_plant_promotes_vector_b(self):
        plant = LtiPlant(a=np.zeros((2, 2)), b=[1.0, 2.0])
        assert plant.b.shape == (2, 1)
        assert plant.m == 1

    def test_plant_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            LtiPlant(a=np.zeros((2, 3)), b=[1.0, 0.0])
        with pytest.raises(ValueError):
            LtiPlant(a=np.zeros((2, 2)), b=np.zeros((3, 1)))

    def test_problem_validation(self):
        plant = DOUBLE_INTEGRATOR
        with pytest.raises(ValueError):
            ControlProblem(plant=plant, x0=[1.0], T=1.0, N=10)
        with pytest.raises(ValueError):
            ControlProblem(plant=plant, x0=[1.0, 0.0], T=0.0, N=10)
        with pytest.raises(ValueError):
            ControlProblem(plant=plant, x0=[1.0, 0.0], T=1.0, N=0)
        with pytest.raises(ValueError):
            ControlProblem(plant=plant, x0=[1.0, 0.0], T=1.0, N=10, mode="L3")
        with pytest.raises(ValueError):
            ControlProblem(plant=plant, x0=[1.0, 0.0], T=1.0, N=10, lam=0.0, mode="L1")
        with pytest.raises(ValueError):
            ControlProblem(plant=plant, x0=[1.0, 0.0], T=1.0, N=10, r=0.0, mode="L2")
        for weights in (dict(lam=-1.0), dict(r=[-0.5])):
            with pytest.raises(ValueError, match=r"^lam and r must be nonnegative$"):
                ControlProblem(plant=plant, x0=[1.0, 0.0], T=1.0, N=10, **weights)

    def test_problem_broadcasts_weights(self):
        plant = LtiPlant(a=np.zeros((2, 2)), b=np.eye(2))
        prob = ControlProblem(plant=plant, x0=[1.0, 0.0], T=2.0, N=10, lam=1.0, r=0.5, mode="L1L2")
        assert prob.lam.shape == (2,)
        assert prob.r.shape == (2,)
        assert prob.h == pytest.approx(0.2)

    def test_trajectory_validation(self):
        with pytest.raises(ValueError, match=r"^h must be positive, got 0.0$"):
            ControlTrajectory(h=0.0, u=np.zeros((4, 1)))
        with pytest.raises(ValueError):
            ControlTrajectory(h=0.1, u=np.zeros((0, 1)))
        traj = ControlTrajectory(h=0.5, u=np.zeros(4))
        assert traj.u.shape == (4, 1)
        assert traj.duration == pytest.approx(2.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda x0: ControlProblem(plant=DOUBLE_INTEGRATOR, x0=x0, T=1.0, N=10),
        lambda x0: simulate(DOUBLE_INTEGRATOR, x0, ControlTrajectory(h=0.1, u=np.zeros(10))),
        lambda x0: min_energy_closed_form(DOUBLE_INTEGRATOR, x0, 1.0, 10),
        lambda x0: minimum_time(DOUBLE_INTEGRATOR, x0),
    ],
    ids=["ControlProblem", "simulate", "min_energy_closed_form", "minimum_time"],
)
def test_every_initial_state_check_says_the_same(call):
    with pytest.raises(ValueError, match=r"^x0 must have length 2, got 3$"):
        call([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"^x0 must be finite$"):
        call([np.nan, 0.0])
