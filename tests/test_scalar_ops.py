"""Pointwise map tests.

Oracle: brute-force grid search over u in [-1, 1] with step 1e-5.  The frozen
values asserted below were produced by that oracle and are checked against it
again on every run.  ``control_law`` is tested in its two classical forms: the
saturated soft threshold ``sat(shrink(v, lam / r))``, which is
``control_law(r*v, lam, r)``, and the box-restricted proximal map of
``lam*|u| + (r/2)*u**2`` with penalty ``rho`` at ``a``, which is
``control_law(rho*a, lam, r + rho)``.
"""

import numpy as np
import pytest

from handsoff.scalar_ops import control_law, dead_zone, sat, shrink

GRID = np.arange(-1.0, 1.0 + 1e-5, 1e-5)


def grid_argmin_linear(a, lam, r):
    """argmin over u in [-1,1] of lam*|u| + (r/2)*u**2 + a*u, grid step 1e-5."""
    obj = lam * np.abs(GRID) + 0.5 * r * GRID**2 + a * GRID
    return GRID[np.argmin(obj)]


def grid_argmin_prox(a, lam, r, rho):
    """argmin over u in [-1,1] of lam*|u| + (r/2)*u**2 + (rho/2)*(u-a)**2."""
    obj = lam * np.abs(GRID) + 0.5 * r * GRID**2 + 0.5 * rho * (GRID - a) ** 2
    return GRID[np.argmin(obj)]


class TestDeadZone:
    def test_frozen_values(self):
        assert dead_zone(0.5, 1.0) == 0.0
        assert dead_zone(2.0, 1.0) == 1.0
        assert dead_zone(-3.0, 1.0) == -1.0

    def test_boundary_maps_to_zero(self):
        assert dead_zone(1.0, 1.0) == 0.0
        assert dead_zone(-1.0, 1.0) == 0.0

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            dead_zone(0.5, 0.0)
        with pytest.raises(ValueError):
            dead_zone(0.5, -1.0)

    def test_odd(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(-5, 5, size=200)
        assert np.array_equal(dead_zone(-w, 1.3), -dead_zone(w, 1.3))


class TestShrink:
    def test_frozen_values(self):
        assert shrink(2.0, 0.5) == pytest.approx(1.5)
        assert shrink(0.3, 0.5) == 0.0
        assert shrink(-2.0, 0.5) == pytest.approx(-1.5)

    def test_zero_kappa_is_identity(self):
        v = np.linspace(-3, 3, 41)
        assert np.allclose(shrink(v, 0.0), v)

    def test_rejects_negative_kappa(self):
        with pytest.raises(ValueError):
            shrink(1.0, -0.1)

    def test_odd(self):
        rng = np.random.default_rng(1)
        v = rng.uniform(-5, 5, size=200)
        assert np.allclose(shrink(-v, 0.7), -shrink(v, 0.7))


class TestSat:
    def test_frozen_values(self):
        assert sat(0.4) == pytest.approx(0.4)
        assert sat(7.0) == 1.0
        assert sat(-7.0) == -1.0

    def test_odd(self):
        rng = np.random.default_rng(2)
        v = rng.uniform(-5, 5, size=200)
        assert np.allclose(sat(-v), -sat(v))


def sat_shrink(v, lam, r):
    """Saturated soft threshold ``sat(shrink(v, lam / r))`` as a control law."""
    return control_law(r * v, lam, r)


def prox(a, lam, r, rho):
    """argmin over u in [-1,1] of lam*|u| + (r/2)*u**2 + (rho/2)*(u-a)**2."""
    return control_law(rho * a, lam, r + rho)


class TestSatShrink:
    def test_frozen_values_match_grid_oracle(self):
        # argmin of lam*|u| + (r/2)u^2 + a*u with a = -r*v
        for v, lam, r, expected in [
            (0.5, 1.0, 1.0, 0.0),
            (3.0, 1.0, 1.0, 1.0),
            (1.5, 1.0, 1.0, 0.5),
        ]:
            got = sat_shrink(v, lam, r)
            assert got == pytest.approx(expected, abs=1e-12)
            assert got == pytest.approx(grid_argmin_linear(-r * v, lam, r), abs=1e-4)

    def test_matches_grid_oracle_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = rng.uniform(-4, 4)
            lam = rng.uniform(0.1, 2.0)
            r = rng.uniform(0.1, 2.0)
            assert sat_shrink(v, lam, r) == pytest.approx(
                grid_argmin_linear(-r * v, lam, r), abs=1e-4
            )

    def test_rejects_nonpositive_weights(self):
        # a sample with neither an L1 nor a quadratic weight has no minimizer
        # to select; a zero weight beside a positive one is a valid program
        with pytest.raises(ValueError):
            control_law(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            control_law([1.0, 2.0], [1.0, 0.0], 0.0)

    def test_odd(self):
        rng = np.random.default_rng(4)
        v = rng.uniform(-5, 5, size=200)
        assert np.allclose(sat_shrink(-v, 0.8, 0.5), -sat_shrink(v, 0.8, 0.5))


class TestProxBoxL1Quad:
    def test_matches_grid_oracle_1000_draws(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            a = rng.uniform(-3, 3)
            lam = rng.uniform(0.0, 2.0)
            r = rng.uniform(0.0, 2.0)
            rho = rng.uniform(0.1, 3.0)
            assert prox(a, lam, r, rho) == pytest.approx(
                grid_argmin_prox(a, lam, r, rho), abs=1e-4
            )

    def test_odd_in_a(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(-4, 4, size=300)
        assert np.allclose(prox(-a, 0.4, 0.9, 1.1), -prox(a, 0.4, 0.9, 1.1))

    def test_nonexpansive_in_a(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            lam = rng.uniform(0.0, 2.0)
            r = rng.uniform(0.0, 2.0)
            rho = rng.uniform(0.1, 3.0)
            a1, a2 = rng.uniform(-4, 4, size=2)
            d = abs(prox(a1, lam, r, rho) - prox(a2, lam, r, rho))
            assert d <= abs(a1 - a2) + 1e-12

    def test_param_validation(self):
        with pytest.raises(ValueError):
            control_law(1.0, -0.1, 1.0)
        with pytest.raises(ValueError):
            control_law(1.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            control_law([1.0, 1.0], [1.0, -0.1], [1.0, 1.0])


class TestLimits:
    def test_sat_shrink_approaches_dead_zone_as_r_vanishes(self):
        # error at each w with |w -+ lam| >= 0.1 decreases monotonically in r
        # and is below 1e-6 by r = 1e-6
        lam = 1.0
        w_vals = [-2.5, -1.5, -1.1, -0.9, -0.4, 0.0, 0.4, 0.9, 1.1, 1.5, 2.5]
        w_vals = [w for w in w_vals if abs(abs(w) - lam) >= 0.1]
        r_list = [10.0**-k for k in range(0, 7)]
        for w in w_vals:
            errs = [abs(sat_shrink(w / r, lam, r) - dead_zone(w, lam)) for r in r_list]
            for e0, e1 in zip(errs, errs[1:]):
                assert e1 <= e0 + 1e-15
            assert errs[-1] <= 1e-6

    def test_sat_shrink_approaches_sat_as_lam_vanishes(self):
        v = np.linspace(-3, 3, 61)
        r = 1.0
        prev = None
        for lam in [10.0**-k for k in range(1, 9)]:
            err = np.max(np.abs(sat_shrink(v, lam, r) - sat(v)))
            assert err <= lam / r + 1e-15
            if prev is not None:
                assert err <= prev + 1e-15
            prev = err
        assert prev <= 1e-8 + 1e-12
