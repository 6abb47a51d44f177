"""Scaled-activation sandwich: construction, application, margin check."""

import numpy as np
import pytest

import compnet as cn


@pytest.fixture
def wide_outputs(rng):
    return rng.uniform(-990.0, 990.0, size=400)


class TestConstruct:
    def test_wide_logistic_recipe(self, wide_outputs):
        """Logistic with |g*| < 1000: inverse slope 4 at the center, the
        curvature bound stays under 50, and gamma = 1e-5 * eps works."""
        assert cn.LOGISTIC.inverse_d1(0.5) == 4.0
        assert cn.curvature_supremum(cn.LOGISTIC) < 50.0
        for eps in (1.0, 0.1, 0.01):
            w = cn.construct_wrapper(wide_outputs, cn.LOGISTIC, eps, gamma=1e-5 * eps)
            assert w.m0 < 2e3 / w.gamma
            assert w.m0 * w.m1 * w.gamma**2 < eps
            err = np.max(np.abs(np.asarray(cn.apply_wrapper(w, wide_outputs)) - wide_outputs))
            assert err < eps

    def test_linear_degenerates_to_identity(self, rng):
        g = 7.0 * rng.normal(size=200)
        w = cn.construct_wrapper(g, cn.LINEAR, 0.5)
        out = np.asarray(cn.apply_wrapper(w, g))
        assert np.max(np.abs(out - g)) == 0.0

    def test_tanh_error_under_epsilon(self, rng):
        g = rng.uniform(-5.0, 5.0, size=300)
        w = cn.construct_wrapper(g, cn.TANH, 0.1)
        err = np.max(np.abs(np.asarray(cn.apply_wrapper(w, g)) - g))
        assert err < 0.1

    def test_every_activation_bound_holds(self, rng):
        g = rng.uniform(-3.0, 3.0, size=100)
        for act in (cn.LINEAR, cn.LOGISTIC, cn.TANH, cn.SL):
            w = cn.construct_wrapper(g, act, 0.05)
            assert w.m0 * w.m1 * w.gamma**2 < 0.05
            err = np.max(np.abs(np.asarray(cn.apply_wrapper(w, g)) - g))
            assert err < 0.05

    def test_relu_refused(self, rng):
        with pytest.raises(cn.ScaledActivationError, match="A3"):
            cn.construct_wrapper(rng.normal(size=10), cn.RELU, 0.1)

    def test_epsilon_range_enforced(self, rng):
        g = rng.normal(size=10)
        for eps in (0.0, -1.0, 1.5):
            with pytest.raises(cn.ScaledActivationError):
                cn.construct_wrapper(g, cn.LOGISTIC, eps)

    def test_oversized_gamma_rejected(self, rng):
        g = 100.0 * rng.normal(size=50)
        with pytest.raises(cn.ScaledActivationError, match="gamma"):
            cn.construct_wrapper(g, cn.LOGISTIC, 0.01, gamma=0.9)

    def test_error_decreases_with_epsilon(self, rng):
        g = rng.uniform(-50.0, 50.0, size=250)
        errs = []
        for eps in (1e-1, 1e-2, 1e-3):
            w = cn.construct_wrapper(g, cn.LOGISTIC, eps)
            errs.append(np.max(np.abs(np.asarray(cn.apply_wrapper(w, g)) - g)))
        assert errs[0] > errs[1] > errs[2]


class TestApply:
    def test_center_fixed_point(self):
        w = cn.construct_wrapper(np.array([1.0, -1.0]), cn.LOGISTIC, 0.5)
        assert cn.apply_wrapper(w, 0.0) == 0.0

    def test_taylor_remainder_at_half_interval(self):
        g = np.array([500.0, -500.0])
        eps = 0.01
        w = cn.construct_wrapper(g, cn.LOGISTIC, eps)
        v = w.m0 * w.gamma / 2.0
        got = cn.apply_wrapper(w, v)
        assert abs(got - v) < eps

    def test_strictly_increasing_on_calibrated_interval(self, rng):
        g = rng.uniform(-100.0, 100.0, size=100)
        w = cn.construct_wrapper(g, cn.LOGISTIC, 0.1)
        xs = np.linspace(-0.99 * w.m0 * w.gamma, 0.99 * w.m0 * w.gamma, 501)
        # m0 * gamma = 2 max|g|, so the sweep runs past the calibrated range
        with pytest.warns(cn.CalibrationRangeWarning):
            ys = np.asarray(cn.apply_wrapper(w, xs))
        assert np.all(np.diff(ys) > 0)

    def test_out_of_range_warns_but_computes(self, rng):
        g = rng.uniform(-1.0, 1.0, size=20)
        w = cn.construct_wrapper(g, cn.LOGISTIC, 0.1)
        with pytest.warns(cn.CalibrationRangeWarning):
            out = cn.apply_wrapper(w, 2.0)
        assert np.isfinite(out)

    def test_matches_uncentred_formula(self, rng):
        g = rng.uniform(-10.0, 10.0, size=60)
        w = cn.construct_wrapper(g, cn.TANH, 0.05)
        direct = w.outer_slope * w.activation.value(g / w.m0) + w.outer_bias
        np.testing.assert_allclose(np.asarray(cn.apply_wrapper(w, g)), direct, atol=1e-9)


class TestCenteredValue:
    GRID = np.array([-50.0, -3.0, -1.0, -1e-3, -1e-8, -1e-300, 0.0, 1e-300, 1e-8, 1e-3, 1.0, 50.0])

    @pytest.mark.parametrize("act", [cn.LINEAR, cn.TANH, cn.RELU, cn.SL], ids=lambda a: a.tag)
    def test_is_the_value_where_value_of_zero_is_zero(self, act):
        np.testing.assert_array_equal(act.centered_value(self.GRID), act.value(self.GRID))

    def test_logistic_is_value_minus_half_without_cancellation(self):
        """``value - 0.5`` matches to 1e-15 relative, past the half ulp of
        0.5 (2**-54) that the subtraction may lose; where it cancels to 0
        the centered value still carries delta / 4."""
        got, value = cn.LOGISTIC.centered_value(self.GRID), cn.LOGISTIC.value(self.GRID)
        np.testing.assert_allclose(got, value - 0.5, rtol=1e-15, atol=2.0**-54)
        cancelled = (value - 0.5 == 0.0) & (self.GRID != 0.0)
        assert cancelled.any()
        np.testing.assert_allclose(got[cancelled], self.GRID[cancelled] / 4.0, rtol=1e-15)


class TestVerifyMargin:
    def test_perfect_combiner_gets_positive_epsilon(self):
        y = np.array([1.0, 2.0, 3.0])
        g = y.copy()
        w = cn.construct_wrapper(g, cn.LOGISTIC, 0.5)
        rep = cn.verify_margin(w, g, y, best_component_loss=0.7)
        assert rep.epsilon_needed > 0.0

    def test_hand_computed_symmetric_instance(self):
        # N=2, residuals (1, -1): M2 = 1, eps = gap / (4*2*(2*1+1)) = gap/24
        y = np.array([0.0, 0.0])
        g = np.array([1.0, -1.0])
        w = cn.construct_wrapper(g, cn.LOGISTIC, 1e-3)
        best = 25.0
        rep = cn.verify_margin(w, g, y, best_component_loss=best)
        gap = best - 1.0  # combiner loss is (1 + 1)/2 = 1
        assert rep.m2 == 1.0
        assert rep.epsilon_needed == pytest.approx(gap / 24.0, abs=1e-15)

    def test_precondition_violation_reported_not_raised(self):
        y = np.zeros(4)
        g = np.ones(4)
        w = cn.construct_wrapper(g, cn.LOGISTIC, 0.5)
        rep = cn.verify_margin(w, g, y, best_component_loss=0.5)
        assert not rep.ok
        assert "margin" in rep.reason or "beat" in rep.reason

    def test_approved_wrapper_beats_best_component(self, rng):
        y = rng.normal(size=64)
        cols = y[:, None] + 0.6 * rng.normal(size=(64, 3))
        theta = cn.solve_theta_star(cn.build_gram(cols, y))
        g = cn.predict(theta, cols)
        best = float(np.min(cn.component_losses(cols, y)))
        g_loss = float(np.mean((g - y) ** 2))
        probe = cn.construct_wrapper(g, cn.LOGISTIC, 1e-3)
        needed = cn.verify_margin(probe, g, y, best, g_star_loss=g_loss).epsilon_needed
        eps = min(1.0, needed)
        w = cn.construct_wrapper(g, cn.LOGISTIC, eps)
        rep = cn.verify_margin(w, g, y, best, g_star_loss=g_loss)
        assert rep.ok
        wrapped = np.asarray(cn.apply_wrapper(w, g))
        assert float(np.mean((wrapped - y) ** 2)) < best

    def test_per_sample_loss_chain(self, rng):
        """Measured wrapped loss stays within eps*(2*M2+1) of the
        combiner loss, per the quadratic expansion of the residuals."""
        y = rng.normal(size=50)
        g = y + 0.3 * rng.normal(size=50)
        eps = 0.01
        w = cn.construct_wrapper(g, cn.LOGISTIC, eps)
        wrapped = np.asarray(cn.apply_wrapper(w, g))
        g_loss = float(np.mean((g - y) ** 2))
        wrapped_loss = float(np.mean((wrapped - y) ** 2))
        m2 = float(np.max(np.abs(g - y)))
        assert wrapped_loss < g_loss + eps * (2.0 * m2 + 1.0)
