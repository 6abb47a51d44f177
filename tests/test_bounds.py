"""Monte Carlo bound verification lab."""

import numpy as np
import pytest

import compnet as cn


class TestTrialSpec:
    def test_invariants(self):
        with pytest.raises(ValueError):
            cn.TrialSpec(n=3, k=1, trials=200)
        with pytest.raises(ValueError):
            cn.TrialSpec(n=10, k=1, trials=50)
        with pytest.raises(ValueError):
            cn.TrialSpec(n=10, k=1, trials=200, component_noise=0.0)


class TestOrthogonality:
    def test_high_dimension_rate(self):
        spec = cn.TrialSpec(n=10_000, k=0, trials=20_000, seed=3)
        report = cn.verify_orthogonality(spec)
        assert report.bound == pytest.approx(0.99)
        assert report.empirical_rate >= report.bound
        assert report.satisfied
        assert report.details["c"] > 0

    def test_equal_vectors_excluded(self):
        u = np.array([1.0, 2.0, 3.0, 4.0])
        assert not cn.near_perpendicular(u, u, eta=0.5)
        v = np.array([-2.0, 1.0, 0.0, 0.0])  # orthogonal to u's first two coords
        assert cn.near_perpendicular(u, v, eta=0.1)

    def test_small_n_flagged(self):
        report = cn.verify_orthogonality(cn.TrialSpec(n=4, k=0, trials=500, seed=1))
        assert "large N required" in report.details["flags"]

    def test_rate_matches_exact_distribution_at_n4(self):
        """For N = 4, P(|cos| <= s) = (2/pi)(s sqrt(1 - s^2) + arcsin s)."""
        trials = 200_000
        report = cn.verify_orthogonality(cn.TrialSpec(n=4, k=0, trials=trials, seed=21))
        s = np.sin(report.details["eta"])
        p = 2.0 / np.pi * (s * np.sqrt(1.0 - s * s) + np.arcsin(s))
        assert abs(report.empirical_rate - p) <= 5.0 * np.sqrt(p * (1.0 - p) / trials)

    def test_seed_determinism(self):
        spec = cn.TrialSpec(n=256, k=0, trials=2000, seed=11)
        a = cn.verify_orthogonality(spec)
        b = cn.verify_orthogonality(spec)
        assert a.empirical_rate == b.empirical_rate
        assert a.details["c"] == b.details["c"]


@pytest.mark.parametrize(
    "verify",
    [
        cn.verify_strict_improvement,
        cn.verify_add_width,
        lambda spec: cn.verify_depth_compounding(spec, h=2),
    ],
    ids=["theorem1", "prop1", "theorem2"],
)
def test_degenerate_spec_exhausts_budget(verify):
    """Noise far below one ulp of the labels leaves every component equal
    to the labels, so A2 fails on every draw."""
    from compnet.bounds import DegenerateSpecError

    with pytest.raises(DegenerateSpecError):
        verify(cn.TrialSpec(n=8, k=2, trials=100, component_noise=1e-300))


class TestStrictImprovement:
    def test_rate_exceeds_bound(self):
        report = cn.verify_strict_improvement(cn.TrialSpec(n=400, k=3, trials=300, seed=5))
        assert report.bound == pytest.approx(1.0 - 4.0 / 20.0)
        assert report.empirical_rate >= report.bound
        assert report.satisfied

    def test_components_near_labels_still_improve(self):
        spec = cn.TrialSpec(n=256, k=3, trials=200, seed=8, component_noise=0.05)
        report = cn.verify_strict_improvement(spec)
        assert report.empirical_rate >= report.bound

    def test_k0_exact_scalar_criterion(self):
        """Bias-only combination: improvement iff fitting the mean beats
        the all-ones predictor, checked against a closed-form count."""
        spec = cn.TrialSpec(n=64, k=0, trials=400, seed=13)
        report = cn.verify_strict_improvement(spec)
        rng = np.random.default_rng(13)
        wins = 0
        for _ in range(400):
            y = rng.standard_normal(64)
            mean_loss = float(np.mean((y.mean() - y) ** 2))
            ones_loss = float(np.mean((1.0 - y) ** 2))
            if mean_loss < ones_loss - 1e-12:
                wins += 1
        assert report.empirical_rate == pytest.approx(wins / 400)

    def test_report_invariant(self):
        report = cn.verify_strict_improvement(cn.TrialSpec(n=100, k=2, trials=200, seed=2))
        half = (report.ci95[1] - report.ci95[0]) / 2.0
        assert report.satisfied == (report.empirical_rate >= report.bound - half - 1e-15)

    def test_seed_determinism(self):
        spec = cn.TrialSpec(n=100, k=2, trials=150, seed=77)
        assert (
            cn.verify_strict_improvement(spec).empirical_rate
            == cn.verify_strict_improvement(spec).empirical_rate
        )


class TestAddWidth:
    def test_rate_exceeds_bound(self):
        report = cn.verify_add_width(cn.TrialSpec(n=100, k=2, trials=300, seed=4))
        assert report.bound == pytest.approx(0.8)
        assert report.empirical_rate >= report.bound

    def test_requires_two_components(self):
        with pytest.raises(ValueError, match="two"):
            cn.verify_add_width(cn.TrialSpec(n=100, k=3, trials=200, seed=0))

    def test_exact_complement_reaches_zero(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(16)
        f1 = rng.standard_normal(16)
        f0 = y - f1
        gram = np.array([[f0 @ f0, f0 @ f1], [f0 @ f1, f1 @ f1]])
        alpha = np.linalg.solve(gram, np.array([f0 @ y, f1 @ y]))
        np.testing.assert_allclose(alpha, [1.0, 1.0], atol=1e-9)
        assert np.mean((alpha[0] * f0 + alpha[1] * f1 - y) ** 2) < 1e-18

    def test_orthogonal_residual_boundary_event(self):
        """When the residual of f1 is orthogonal to both columns, the pair
        optimum is exactly f1: no strict improvement."""
        f1 = np.array([1.0, 0.0, 0.0, 0.0])
        resid = np.array([0.0, 1.0, 0.0, 0.0])
        y = f1 - resid
        f0 = np.array([0.0, 0.0, 1.0, 0.0])
        gram = np.array([[f0 @ f0, f0 @ f1], [f0 @ f1, f1 @ f1]])
        alpha = np.linalg.solve(gram, np.array([f0 @ y, f1 @ y]))
        np.testing.assert_allclose(alpha, [0.0, 1.0], atol=1e-12)
        pair_loss = np.mean((alpha[0] * f0 + alpha[1] * f1 - y) ** 2)
        f1_loss = np.mean((f1 - y) ** 2)
        assert pair_loss == pytest.approx(f1_loss, abs=1e-15)


class TestDepthCompounding:
    def test_h1_equals_strict_improvement_event(self):
        spec = cn.TrialSpec(n=400, k=3, trials=150, seed=9)
        depth = cn.verify_depth_compounding(spec, h=1)
        strict = cn.verify_strict_improvement(spec)
        assert depth.bound == pytest.approx(strict.bound)
        assert depth.empirical_rate == pytest.approx(strict.empirical_rate, abs=0.05)

    def test_h3_rate_exceeds_bound(self):
        report = cn.verify_depth_compounding(cn.TrialSpec(n=400, k=3, trials=150, seed=10), h=3)
        assert report.bound == pytest.approx(0.8**3)
        assert report.empirical_rate >= report.bound
        assert report.satisfied

    def test_h_bounded_by_k(self):
        with pytest.raises(ValueError, match="h"):
            cn.verify_depth_compounding(cn.TrialSpec(n=100, k=2, trials=100, seed=0), h=5)

    def test_perfect_layer_kills_the_chain(self):
        """A perfect intermediate combiner leaves no margin for the next
        layer: the all-layers-decrease event must fail."""
        from compnet.bounds import STRICT_SLACK

        y = np.arange(1.0, 9.0)
        g1 = y.copy()  # perfect previous layer
        f = np.tile([1.0, 0.0], 4)
        cols = np.column_stack([g1, f])
        theta = cn.solve_theta_star(cn.build_gram(cols, y))
        lin = theta[0] + cols @ theta[1:]
        margin = float(np.mean((g1 - y) ** 2) - np.mean((lin - y) ** 2))
        assert margin <= STRICT_SLACK

    def test_seed_determinism(self):
        spec = cn.TrialSpec(n=144, k=3, trials=120, seed=3)
        a = cn.verify_depth_compounding(spec, h=2)
        b = cn.verify_depth_compounding(spec, h=2)
        assert a.empirical_rate == b.empirical_rate
