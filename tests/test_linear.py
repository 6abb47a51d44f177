"""Closed-form combiner: gram assembly, solve, assumption checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import compnet as cn


def _gd_least_squares(cols, y, tol=1e-10, max_iter=500_000):
    """Independent oracle: gradient descent on the mean squared error of
    theta0 + sum theta_j f_j, doubling/halving step on an Armijo check."""
    n = y.size
    full = np.column_stack([np.ones(n), cols])
    theta = np.zeros(full.shape[1])
    step = 1.0
    resid = full @ theta - y
    loss = resid @ resid / n
    for _ in range(max_iter):
        grad = 2.0 * (full.T @ resid) / n
        gnorm = np.linalg.norm(grad)
        if gnorm < tol:
            break
        while True:
            cand = theta - step * grad
            r2 = full @ cand - y
            l2 = r2 @ r2 / n
            if l2 <= loss - 0.5 * step * gnorm * gnorm:
                theta, resid, loss = cand, r2, l2
                step *= 2.0
                break
            step *= 0.5
            if step < 1e-18:
                return theta
    return theta


class TestBuildGram:
    def test_k1_direct_inner_products(self):
        sys = cn.build_gram(np.array([[1.0], [1.0]]), np.array([2.0, 2.0]))
        np.testing.assert_array_equal(sys.gram, [[2.0, 2.0], [2.0, 2.0]])
        np.testing.assert_array_equal(sys.rhs, [4.0, 4.0])
        assert sys.k == 1 and sys.n == 2

    def test_gram_entries_match_dot_product_oracle(self, rng):
        cols = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        sys = cn.build_gram(cols, y)
        full = [np.ones(20), cols[:, 0], cols[:, 1]]
        for i in range(3):
            for j in range(3):
                oracle = sum(full[i][t] * full[j][t] for t in range(20))
                assert sys.gram[i, j] == pytest.approx(oracle, abs=1e-12)
            assert sys.rhs[i] == pytest.approx(sum(full[i][t] * y[t] for t in range(20)), abs=1e-12)

    def test_gram_00_is_exactly_n(self, rng):
        sys = cn.build_gram(rng.normal(size=(37, 3)), rng.normal(size=37))
        assert sys.gram[0, 0] == 37.0

    def test_symmetry(self, rng):
        sys = cn.build_gram(rng.normal(size=(15, 4)), rng.normal(size=15))
        np.testing.assert_array_equal(sys.gram, sys.gram.T)

    def test_duplicate_of_bias_column_flagged_by_solve(self):
        sys = cn.build_gram(np.ones((6, 1)), np.arange(6.0))
        with pytest.raises(cn.SingularGramError, match="ridge"):
            cn.solve_theta_star(sys)

    def test_length_mismatch(self):
        with pytest.raises(cn.SolverError):
            cn.build_gram(np.ones((3, 1)), np.ones(4))

    def test_nonfinite_rejected(self):
        with pytest.raises(cn.SolverError):
            cn.build_gram(np.array([[np.inf], [1.0]]), np.ones(2))


class TestSolve:
    def test_perfect_component(self):
        y = np.array([1.0, -2.0, 3.0, 0.5])
        theta = cn.solve_theta_star(cn.build_gram(y[:, None], y))
        np.testing.assert_allclose(theta, [0.0, 1.0], atol=1e-12)
        assert cn.combination_loss(theta, y[:, None], y) == pytest.approx(0.0, abs=1e-24)

    def test_bias_only_constant_labels(self):
        y = np.full(5, 3.25)
        theta = cn.solve_theta_star(cn.build_gram(np.empty((5, 0)), y))
        np.testing.assert_allclose(theta, [3.25], atol=1e-14)

    def test_hand_elimination_oracle(self):
        # columns (1,0,0,0) and (0,1,0,0) with y=(1,2,0,0):
        # 4a + b + c = 3; a + b = 1; a + c = 2  =>  (a,b,c) = (0,1,2)
        cols = np.zeros((4, 2))
        cols[0, 0] = 1.0
        cols[1, 1] = 1.0
        y = np.array([1.0, 2.0, 0.0, 0.0])
        theta = cn.solve_theta_star(cn.build_gram(cols, y))
        np.testing.assert_allclose(theta, [0.0, 1.0, 2.0], atol=1e-10)

    def test_ridge_must_be_nonnegative(self, rng):
        sys = cn.build_gram(rng.normal(size=(5, 1)), rng.normal(size=5))
        with pytest.raises(cn.SolverError):
            cn.solve_theta_star(sys, ridge=-1.0)

    def test_ridge_recovers_singular_system(self):
        cols = np.column_stack([np.arange(6.0), 2.0 * np.arange(6.0)])
        sys = cn.build_gram(cols, np.arange(6.0))
        with pytest.raises(cn.SingularGramError):
            cn.solve_theta_star(sys)
        theta = cn.solve_theta_star(sys, ridge=1e-6)
        assert np.all(np.isfinite(theta))


class TestSolverProperties:
    def test_never_worse_than_best_component(self):
        for seed in range(40):
            r = np.random.default_rng(seed)
            y = r.normal(size=32)
            cols = y[:, None] + 0.7 * r.normal(size=(32, 3))
            rep = cn.check_assumptions(cols, y)
            if not (rep.a1.holds and rep.a2.holds):
                continue
            theta = cn.solve_theta_star(cn.build_gram(cols, y))
            best = min(
                float(np.min(cn.component_losses(cols, y))),
                float(np.mean((1.0 - y) ** 2)),
            )
            assert cn.combination_loss(theta, cols, y) <= best + 1e-9

    def test_combination_loss_is_residual_loss_of_prediction(self):
        r = np.random.default_rng(7)
        for k in [0] + [3] * 200:
            y = r.normal(size=400)
            cols = y[:, None] + 0.5 * r.normal(size=(400, k))
            theta = r.normal(size=k + 1)
            assert cn.combination_loss(theta, cols, y) == cn.residual_loss(
                cn.predict(theta, cols), y
            )

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 600),
        k=st.integers(0, 6),
        scale=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_component_losses_are_residual_losses(self, seed, n, k, scale):
        r = np.random.default_rng(seed)
        y = scale * r.normal(size=n)
        cols = y[:, None] + scale * r.normal(size=(n, k))
        losses = cn.component_losses(cols, y)
        assert losses.shape == (k,)
        for j in range(k):
            assert losses[j] == cn.residual_loss(cols[:, j], y)

    def test_matches_iterative_descent_oracle(self):
        for seed in range(5):
            r = np.random.default_rng(100 + seed)
            y = r.normal(size=48)
            cols = y[:, None] + 0.5 * r.normal(size=(48, 3))
            theta = cn.solve_theta_star(cn.build_gram(cols, y))
            oracle = _gd_least_squares(cols, y)
            np.testing.assert_allclose(theta, oracle, atol=1e-6)

    def test_stationarity_of_solution(self, rng):
        y = rng.normal(size=30)
        cols = y[:, None] + 0.4 * rng.normal(size=(30, 4))
        sys = cn.build_gram(cols, y)
        theta = cn.solve_theta_star(sys)
        # for every s: sum_j theta_j <f_s, f_j> - <f_s, y> = 0
        residual = sys.gram @ theta - sys.rhs
        assert np.max(np.abs(residual)) < 1e-8

    @given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_output_scaling_invariance(self, seed, scale):
        r = np.random.default_rng(seed)
        y = r.normal(size=24)
        cols = y[:, None] + 0.5 * r.normal(size=(24, 2))
        theta = cn.solve_theta_star(cn.build_gram(cols, y))
        theta_scaled = cn.solve_theta_star(cn.build_gram(scale * cols, y))
        np.testing.assert_allclose(theta_scaled[1:] * scale, theta[1:], atol=1e-9 * max(1, scale))
        np.testing.assert_allclose(
            cn.predict(theta_scaled, scale * cols), cn.predict(theta, cols), atol=1e-9
        )


class TestAssumptions:
    def test_duplicated_column_breaks_a1(self, rng):
        col = rng.normal(size=12)
        rep = cn.check_assumptions(np.column_stack([col, col]), rng.normal(size=12))
        assert not rep.a1.holds

    def test_perfect_component_breaks_a2(self, rng):
        y = rng.normal(size=10)
        cols = np.column_stack([y, y + rng.normal(size=10)])
        rep = cn.check_assumptions(cols, y)
        assert not rep.a2.holds
        assert rep.a2.min_l1_error == 0.0

    def test_a4_boundary(self, rng):
        # K=3, N=4: bound 2*sqrt(4)-1 = 3, and K < 3 fails at K = 3
        cols = rng.normal(size=(4, 3))
        rep = cn.check_assumptions(cols, rng.normal(size=4))
        assert rep.a4.bound == 3.0
        assert not rep.a4.holds
        rep2 = cn.check_assumptions(cols[:, :2], rng.normal(size=4))
        assert rep2.a4.holds

    def test_reports_not_exceptions(self, rng):
        y = rng.normal(size=8)
        rep = cn.check_assumptions(np.column_stack([y, y]), y)
        assert not rep.a1.holds and not rep.a2.holds

    def test_a1_report_agrees_with_solver(self):
        # singular-value ratio 1.4e-9, below the A1 criterion's ~1e-7
        rng = np.random.default_rng(0)
        y = rng.normal(size=50)
        c1 = y + 0.5 * rng.normal(size=50)
        c2 = c1 + 3e-9 * rng.normal(size=50)
        cols = np.column_stack([c1, c2])
        assert not cn.check_assumptions(cols, y).a1.holds
        with pytest.raises(cn.SingularGramError):
            cn.solve_theta_star(cn.build_gram(cols, y))
