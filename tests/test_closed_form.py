"""Closed-form merges and best-row returns, checked on what construction
builds: theta* at frozen merges, the A1 fallback, the SL Taylor bound,
monotone chains, chains never below Theorem 1's width theta*, and
``train`` never ending above its start."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import compnet as cn
from compnet.construct import _component_state, _fit, _operand_splits

from conftest import linear_mix_network, train_columns

RTOL = 1e-12  # rounding slack on "never above"


def _criterion_7_task(seed):
    spec = cn.SyntheticTaskSpec(
        n=240, d=5, m=1, true_function="mlp-teacher", noise_sd=0.02,
        component_quality=(0.1, 0.18, 0.28, 0.4, 0.55), seed=seed,
    )
    return cn.generate_synthetic(spec)


def _cfg(**kw):
    tc = cn.TrainConfig(max_epochs=20, early_stop_patience=5, seed=3)
    return cn.ConstructionConfig(train_cfg=tc, **kw)


def _winner(step):
    return next(c for c in step.candidates if c.description == step.front_runner)


class TestMonotoneChain:
    @pytest.mark.parametrize("seed", [1000, 1001, 1002])
    @pytest.mark.parametrize(
        "algorithm", ["dbcn", "bbcn", "exhaustive"], ids=["dbcn", "bbcn-k0-4", "exhaustive-chain"]
    )
    def test_train_loss_never_rises_with_depth(self, seed, algorithm):
        """Under train selection with ``linear`` among the activations,
        every chain merge offers the frozen L candidate, which is theta*
        and so no worse than passing the previous depth through."""
        data, comps = _criterion_7_task(seed)
        cfg = _cfg(k0=4)
        if algorithm == "bbcn":
            report = cn.bbcn(comps, data, cfg)
            chain = [_winner(s).train_loss for s in report.steps[cfg.k0 - 2 :]]
        else:
            build = cn.dbcn if algorithm == "dbcn" else cn.exhaustive
            report = build(comps, data, _cfg(k0=1))  # dbcn reads no k0
            first = next(c for c in comps if c.id == report.order[0])
            chain = [cn.component_loss(first, data), *(_winner(s).train_loss for s in report.steps)]
        assert len(chain) >= 2
        for shallow, deep in zip(chain, chain[1:]):
            assert deep <= shallow * (1 + RTOL)


def _states(m, extra_width_one=False):
    spec = cn.SyntheticTaskSpec(
        n=160, d=5, m=m, true_function="mlp-teacher", noise_sd=0.02,
        component_quality=(0.1, 0.3), seed=11,
    )
    data, comps = cn.generate_synthetic(spec)
    if extra_width_one:
        comps[1] = cn.Component.mlp("w1", [5, 3, 1], np.random.default_rng(4))
    return data, [_component_state(c, data) for c in comps]


def _fit_frozen(left, right, activation, data):
    state, record, err = _fit(
        left, right, activation, itertools.count(1), f"{activation.label}(a,b)", "k",
        set(), data, _cfg(), _operand_splits(left, right, data),
    )
    assert err is None
    return state, record


class TestFrozenLinearMerge:
    @pytest.mark.parametrize(
        "m, width_one", [(1, False), (2, False), (2, True)], ids=["m1", "m2", "m2-width-one"]
    )
    def test_is_theta_star_and_beats_both_operands(self, m, width_one):
        data, (left, right) = _states(m, width_one)
        state, record = _fit_frozen(left, right, cn.LINEAR, data)
        assert record.history and len(record.history) == 1  # row 0 only: not trained
        best_operand = min(left.history[0].train_loss, right.history[0].train_loss)
        assert record.train_loss <= best_operand * (1 + RTOL)
        # theta is shared by the label columns: least squares over the stacked rows
        x, y = data.inputs[data.train_idx], data.labels[data.train_idx]
        cols = [
            np.broadcast_to(cn.evaluate(s.net, s.components, x), y.shape).ravel()
            for s in (left, right)
        ]
        design = np.column_stack([np.ones(y.size), *cols])
        expected = np.linalg.lstsq(design, y.ravel(), rcond=None)[0]
        (mix,) = state.net.combine_nodes()
        np.testing.assert_allclose(mix.theta, expected, rtol=1e-7, atol=1e-10)
        # the reported losses are the built network's
        assert cn.loss_l2(state.net, state.components, data, "train") == record.train_loss
        assert cn.loss_l2(state.net, state.components, data, "test") == record.test_loss


class TestFrozenSlMerge:
    @pytest.mark.parametrize("m", [1, 2])
    def test_within_taylor_bound_of_linear_sibling(self, m):
        """SL(0) = 0, SL'(0) = 1, SL''(0) = 0 and |SL'''| <= 2e-6, so
        e = |SL(z) - z| <= 2e-6 |z|^3 / 6, and the two losses differ by at
        most mean(e (2 |z - y| + e))."""
        data, (left, right) = _states(m)
        lin_state, lin = _fit_frozen(left, right, cn.LINEAR, data)
        _, sl = _fit_frozen(left, right, cn.SL, data)
        assert len(sl.history) == 1
        z = cn.evaluate(lin_state.net, lin_state.components, data.inputs[data.train_idx])
        y = data.labels[data.train_idx]
        e = 2e-6 * np.abs(z) ** 3 / 6
        bound = float(np.sum(e * (2 * np.abs(z - y) + e)) / y.shape[0])
        assert abs(sl.train_loss - lin.train_loss) <= bound + RTOL * lin.train_loss


class TestOtherActivation:
    def test_frozen_merge_trains_from_theta_star(self):
        data, (left, right) = _states(1)
        lin_state, _ = _fit_frozen(left, right, cn.LINEAR, data)
        _, tanh = _fit_frozen(left, right, cn.TANH, data)
        assert len(tanh.history) > 1  # trained
        z = cn.evaluate(lin_state.net, lin_state.components, data.inputs[data.train_idx])
        start = cn.residual_loss(np.tanh(z), data.labels[data.train_idx])
        assert tanh.history[0].train_loss == pytest.approx(start, rel=1e-12)
        assert tanh.train_loss <= start


class TestA1Fallback:
    def test_twin_components_pass_the_left_operand_through(self):
        data, comps = _criterion_7_task(1000)
        twin = cn.Component.from_dict({**comps[0].to_dict(), "id": "twin"})
        report = cn.dbcn([comps[0], twin], data, _cfg(delta=-np.inf))  # no pruning
        (mix,) = report.final.combine_nodes()
        np.testing.assert_array_equal(mix.theta, [0.0, 1.0, 0.0])
        for act in ("L", "SL"):
            note = (
                f"depth 2: {act}(g1,twin): operand outputs are linearly dependent "
                "(A1 fails); left operand passed through"
            )
            assert note in report.notes


class TestWidthReference:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(40, 300),
        qualities=st.lists(st.floats(0.05, 0.6), min_size=2, max_size=7),
        algorithm=st.sampled_from(["dbcn", "bbcn"]),
        selection=st.sampled_from(["train_loss", "validation_loss"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_chain_never_below_width_theta_star(self, seed, n, qualities, algorithm, selection):
        """A chain of frozen L merges is an affine combination of pool
        outputs, so its train loss is never below that of theta* over all K
        pool outputs at once (Theorem 1's width reference).  The slack
        is float64 rounding: the lowest ratio seen is 1 - 3e-16."""
        spec = cn.SyntheticTaskSpec(
            n=n, d=5, noise_sd=0.02, component_quality=tuple(qualities), seed=seed
        )
        data, comps = cn.generate_synthetic(spec)
        cfg = _cfg(activations=(cn.LINEAR,), selection_metric=selection)
        report = getattr(cn, algorithm)(comps, data, cfg)
        cols, y = train_columns(data, comps)
        width = cn.combination_loss(cn.solve_theta_star(cn.build_gram(cols, y)), cols, y)
        assert report.final_train_loss >= width * (1 - 1e-9)


_TASK = cn.generate_synthetic(
    cn.SyntheticTaskSpec(n=120, d=5, component_quality=(0.1, 0.2, 0.3), seed=42, noise_sd=0.02)
)


class TestTrainReturn:
    @given(
        seed=st.integers(0, 10_000),
        lr=st.floats(1e-4, 0.3),
        patience=st.integers(0, 4),
        start=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_never_above_row_zero(self, seed, lr, patience, start):
        data, comps = _TASK
        net = linear_mix_network(comps, start)
        reg = cn.registry(comps)
        cfg = cn.TrainConfig(
            learning_rate=lr, batch_size=16, max_epochs=6, seed=seed, early_stop_patience=patience
        )
        result = cn.train(net, reg, data, cfg)
        row = result.history[result.best]
        assert row.train_loss <= result.history[0].train_loss
        assert result.history[0].epoch == 0
        assert cn.loss_l2(result.net, result.components, data, "train") == row.train_loss
        if result.best == 0:
            np.testing.assert_array_equal(result.net.node("mix").theta, start)
