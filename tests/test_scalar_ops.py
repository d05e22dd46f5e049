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

from handsoff.scalar_ops import control_law, dead_zone, sat, saturated_shrink, shrink

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


def reference_control_law(c, w1, w2):
    """``control_law`` as the composition of the pointwise maps, sample by sample."""
    c, w1, w2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (c, w1, w2)))
    u = np.empty(c.shape)
    for j in np.ndindex(c.shape):
        if w2[j] > 0.0:
            u[j] = sat(shrink(c[j], w1[j]) / w2[j])
        else:
            u[j] = dead_zone(c[j], w1[j])
    return u


def law_draws(seed, size):
    """Seeded ``(c, w1, w2)`` with ties ``|c| == w1``, signed zeros in ``c`` and
    ``w1``, saturated and dead-zone samples, and some samples with ``w2 = 0``."""
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(0.0, 2.0, size)
    zero_w1 = rng.random(size) < 0.1
    w1[zero_w1] = rng.choice([-0.0, 0.0], np.count_nonzero(zero_w1))
    w2 = rng.uniform(0.0, 2.0, size) * 10.0 ** rng.integers(-12, 2, size)
    c = rng.uniform(-5.0, 5.0, size)
    tie = rng.random(size) < 0.2
    c[tie] = w1[tie] * rng.choice([-1.0, 1.0], np.count_nonzero(tie))
    zero = rng.random(size) < 0.1
    c[zero] = rng.choice([-0.0, 0.0], np.count_nonzero(zero))
    dead = (w2 == 0.0) | (rng.random(size) < 0.1)
    w2[dead] = 0.0
    w1[dead & (w1 == 0.0)] = 1.0  # a sample with w2 = 0 needs w1 > 0
    return c, w1, w2


def with_specials(c, w1, specials=(np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0)):
    """``c`` with each special value on a few seeded samples, and NaN in ``w1``
    on a few others."""
    rng = np.random.default_rng(c.size)
    c, w1 = c.copy(), w1.copy()
    for value in specials:
        c[rng.integers(c.size, size=3)] = value
    w1[rng.integers(w1.size, size=3)] = np.nan
    return c, w1


def assert_kernel_bits(c, w1, w2, ref):
    """``saturated_shrink`` alone, into ``out``, with its sign pass in
    ``scratch``, or both: the bits of ``ref``."""
    rows = np.empty((2,) + c.shape)
    for out in (None, rows[0]):
        for scratch in (None, rows[1]):
            rows.fill(np.nan)
            got = saturated_shrink(c, w1, w2, out=out, scratch=scratch)
            assert out is None or got is out
            assert got.tobytes() == ref.tobytes(), (out is None, scratch is None)


class TestAgainstComposition:
    """``control_law`` and ``saturated_shrink`` bit for bit against the
    composition of ``sat``, ``shrink`` and ``dead_zone`` (signed zeros count)."""

    def test_mixed_weights(self):
        for seed in range(10):
            c, w1, w2 = law_draws(seed, 500)
            assert np.any(w2 == 0.0) and np.any(np.signbit(c) & (c == 0.0))
            got = control_law(c, w1, w2)
            assert got.tobytes() == reference_control_law(c, w1, w2).tobytes(), seed

    def test_kernel_where_every_w2_is_positive(self):
        for seed in range(10, 20):
            c, w1, w2 = law_draws(seed, 500)
            w2[w2 == 0.0] = 0.5
            ref = reference_control_law(c, w1, w2)
            assert control_law(c, w1, w2).tobytes() == ref.tobytes(), seed
            assert_kernel_bits(c, w1, w2, ref)

    def test_dead_zone_keeps_the_sign_of_c(self):
        got = control_law([-0.5, 0.5, -0.0, 0.0, -1.0, 1.0], 1.0, 1.0)
        assert np.signbit(got).tolist() == [True, False, False, False, True, False]
        assert not np.any(got)

    def test_scalar_and_broadcast_input(self):
        c, w1, w2 = law_draws(30, 200)
        for j in range(200):
            got = control_law(float(c[j]), float(w1[j]), float(w2[j]))
            assert isinstance(got, float)
            ref = reference_control_law(c[j], w1[j], w2[j])
            assert np.float64(got).tobytes() == ref.tobytes(), j
        # a column of costates against a row of weights, and the reverse
        col = c[:, None]
        got = control_law(col, w1[:3], w2[:3])
        assert got.shape == (200, 3)
        assert got.tobytes() == reference_control_law(col, w1[:3], w2[:3]).tobytes()
        got = control_law(c[:3], w1[:, None], 1.0)
        assert got.tobytes() == reference_control_law(c[:3], w1[:, None], 1.0).tobytes()


class TestUniformWeights:
    """``control_law`` where every ``w2`` is positive or every one is 0, and
    on the NaN, infinite and signed zero costates of ``with_specials``: its
    bits are the per-sample composition's, signed zeros and NaN included, and
    it raises where a sample has no minimizer to select."""

    def test_mixed_weights(self):
        for seed in range(40, 45):
            c, w1, w2 = law_draws(seed, 500)
            c, _ = with_specials(c, w1)
            assert np.isnan(c).any() and np.isinf(c).any()
            assert np.any(w2 == 0.0) and np.any(w2 > 0.0)
            got = control_law(c, w1, w2)
            assert got.tobytes() == reference_control_law(c, w1, w2).tobytes(), seed

    def test_every_w2_positive(self):
        # NaN in w1 too, through control_law and the kernel's out and scratch rows
        for seed in range(45, 50):
            c, w1, w2 = law_draws(seed, 500)
            w2[w2 == 0.0] = 0.5
            c, w1 = with_specials(c, w1)
            ref = reference_control_law(c, w1, w2)
            got = control_law(c, w1, w2)
            assert np.isnan(got).any() and np.any(np.signbit(got) & (got == 0.0))
            assert got.tobytes() == ref.tobytes(), seed
            assert_kernel_bits(c, w1, w2, ref)

    def test_every_w2_zero(self):
        # NaN quadratic weights select the dead zone, like zeros
        for seed in range(50, 55):
            c, w1, _ = law_draws(seed, 500)
            w1[w1 == 0.0] = 1.0
            c, _ = with_specials(c, w1)
            for w2 in (np.zeros(500), np.where(np.arange(500) % 2, np.nan, 0.0)):
                ref = reference_control_law(c, w1, w2)
                assert control_law(c, w1, w2).tobytes() == ref.tobytes(), seed

    def test_scalars(self):
        for c in (np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -1.5):
            for w1, w2 in ((1.0, 0.5), (1.0, 0.0), (np.nan, 0.5)):
                got = control_law(c, w1, w2)
                assert isinstance(got, float)
                ref = reference_control_law(c, w1, w2)
                assert np.float64(got).tobytes() == ref.tobytes(), (c, w1, w2)

    def test_errors_are_kept(self):
        for w1, w2 in (([1.0, -0.1], [1.0, 1.0]), ([1.0, 1.0], [0.5, -0.1]),
                       ([1.0, 1.0], [0.0, -0.1])):
            with pytest.raises(ValueError, match="nonnegative"):
                control_law([1.0, 2.0], w1, w2)
        # w2 = 0 needs w1 > 0, NaN included
        for w1 in ([1.0, 0.0], [1.0, np.nan]):
            with pytest.raises(ValueError, match="lam must be positive"):
                control_law([1.0, 2.0], w1, [0.0, 0.0])
