"""Trainer: gradient exactness, freezing, determinism, convergence."""

import numpy as np
import pytest

import compnet as cn

from conftest import linear_mix_network, train_columns


def _sandwich_net(comps):
    """Combine -> scaled-logistic -> combine, exercising every node kind."""
    refs = [cn.ComponentRef(f"r{i}", c.id) for i, c in enumerate(comps)]
    inner = cn.Combine("inner", [r.id for r in refs], np.array([0.1, 0.4, 0.3, 0.3]))
    act = cn.Activate("act", "inner", cn.SL)
    outer = cn.Combine("outer", ["act"], np.array([0.05, 1.1]))
    return cn.CompositeNetwork(refs + [inner, act, outer], "outer")


class TestGradients:
    def test_matches_central_differences_all_node_kinds(self, small_task):
        data, comps = small_task
        reg = cn.registry(comps)
        # open one component so component blocks appear in the gradient
        reg["f3"] = reg["f3"].opened_copy()
        net = _sandwich_net(comps)
        x = data.inputs[data.train_idx][:16]
        y = data.labels[data.train_idx][:16]
        layout = cn.parameter_layout(net, reg)
        grad = cn.gradients(net, reg, x, y)
        w0 = cn.get_parameters(net, reg, layout)

        def loss_at(w):
            cn.set_parameters(net, reg, layout, w)
            pred = cn.evaluate(net, reg, x)
            return float(np.sum((pred - y) ** 2) / x.shape[0])

        picks = np.random.default_rng(0).choice(layout.size, size=20, replace=False)
        h = 1e-5
        for i in picks:
            wp, wm = w0.copy(), w0.copy()
            wp[i] += h
            wm[i] -= h
            num = (loss_at(wp) - loss_at(wm)) / (2 * h)
            assert grad[i] == pytest.approx(num, rel=1e-5, abs=1e-7)
        cn.set_parameters(net, reg, layout, w0)

    def test_frozen_blocks_have_no_gradient_entries(self, small_task):
        data, comps = small_task
        reg = cn.registry(comps)
        net = linear_mix_network(comps)
        layout = cn.parameter_layout(net, reg)
        # all components are pre-trained: only the combine weights remain
        assert layout.size == len(comps) + 1
        assert layout.blocks == []

    def test_gradient_norm_small_at_closed_form(self, small_task):
        data, comps = small_task
        cols, y = train_columns(data, comps)
        theta = cn.solve_theta_star(cn.build_gram(cols, y))
        net = linear_mix_network(comps, theta)
        grad = cn.gradients(
            net, cn.registry(comps), data.inputs[data.train_idx], data.labels[data.train_idx]
        )
        assert np.linalg.norm(grad) < 1e-6

    def test_flat_layout_is_stable(self, small_task):
        data, comps = small_task
        reg = cn.registry(comps)
        net = _sandwich_net(comps)
        layout = cn.parameter_layout(net, reg)
        w = cn.get_parameters(net, reg, layout)
        cn.set_parameters(net, reg, layout, w)
        np.testing.assert_array_equal(w, cn.get_parameters(net, reg, layout))


class TestTrain:
    def test_linear_composite_reaches_closed_form(self, small_task):
        data, comps = small_task
        cols, y = train_columns(data, comps)
        optimum = cn.combination_loss(cn.solve_theta_star(cn.build_gram(cols, y)), cols, y)
        net = linear_mix_network(comps)
        result = cn.train(net, cn.registry(comps), data, cn.TrainConfig(seed=7))
        assert result.history[-1].train_loss == pytest.approx(optimum, abs=1e-4)

    def test_zero_learning_rate_is_identity(self, small_task):
        data, comps = small_task
        reg = cn.registry(comps)
        reg["f2"] = reg["f2"].opened_copy()
        net = _sandwich_net(comps)
        cfg = cn.TrainConfig(learning_rate=0.0, max_epochs=3, seed=0)
        result = cn.train(net, reg, data, cfg)
        layout = cn.parameter_layout(net, reg)
        np.testing.assert_array_equal(
            cn.get_parameters(net, reg, layout),
            cn.get_parameters(result.net, result.components, layout),
        )

    def test_perfect_component_drives_loss_to_zero(self, rng):
        teacher = cn.Component.mlp("t", [3, 1], rng)
        x = rng.normal(size=(64, 3))
        y = teacher.forward(x)
        data = cn.Dataset(x, y, np.arange(64))
        net = cn.CompositeNetwork(
            [cn.ComponentRef("r", "t"), cn.Combine("mix", ["r"], np.array([0.3, 0.5]))], "mix"
        )
        result = cn.train(net, {"t": teacher}, data, cn.TrainConfig(seed=2))
        assert result.history[-1].train_loss < 1e-6

    def test_frozen_weights_bit_identical_after_training(self, small_task):
        data, comps = small_task
        reg = cn.registry(comps)
        reg["f1"] = reg["f1"].opened_copy()
        net = _sandwich_net(comps)
        before = {cid: reg[cid].to_dict() for cid in ("f2", "f3")}
        result = cn.train(net, reg, data, cn.TrainConfig(max_epochs=30, seed=4))
        for cid, snapshot in before.items():
            assert result.components[cid].to_dict() == snapshot
        # and the opened component actually moved
        assert result.components["f1"].to_dict() != reg["f1"].to_dict()

    def test_seed_determinism(self, small_task):
        data, comps = small_task
        net = linear_mix_network(comps)
        cfg = cn.TrainConfig(max_epochs=40, seed=99)
        a = cn.train(net, cn.registry(comps), data, cfg)
        b = cn.train(net, cn.registry(comps), data, cfg)
        assert [(h.train_loss, h.test_loss) for h in a.history] == [
            (h.train_loss, h.test_loss) for h in b.history
        ]
        layout = cn.parameter_layout(a.net, a.components)
        np.testing.assert_array_equal(
            cn.get_parameters(a.net, a.components, layout),
            cn.get_parameters(b.net, b.components, layout),
        )

    def test_no_trainable_parameters_rejected(self, small_task):
        data, comps = small_task
        net = cn.single_component_network(comps[0].id)
        with pytest.raises(cn.TrainingError, match="trainable"):
            cn.train(net, cn.registry(comps), data, cn.TrainConfig())

    def test_trainable_nodes_filter(self, small_task):
        data, comps = small_task
        reg = cn.registry(comps)
        net = _sandwich_net(comps)
        result = cn.train(
            net, reg, data, cn.TrainConfig(max_epochs=20, seed=1), trainable_nodes={"outer"}
        )
        np.testing.assert_array_equal(result.net.node("inner").theta, net.node("inner").theta)
        assert not np.array_equal(result.net.node("outer").theta, net.node("outer").theta)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_reports_epoch(self, small_task):
        data, comps = small_task
        net = linear_mix_network(comps)
        cfg = cn.TrainConfig(learning_rate=1e6, max_epochs=50, seed=0)
        with pytest.raises(cn.TrainingError, match="diverged at epoch"):
            cn.train(net, cn.registry(comps), data, cfg)

    def test_batch_size_validated_against_split(self, small_task):
        data, comps = small_task
        net = linear_mix_network(comps)
        cfg = cn.TrainConfig(batch_size=10_000)
        with pytest.raises(cn.TrainingError, match="batch"):
            cn.train(net, cn.registry(comps), data, cfg)

    def test_history_csv_shape(self, small_task):
        from compnet.training import history_csv

        data, comps = small_task
        net = linear_mix_network(comps)
        result = cn.train(net, cn.registry(comps), data, cn.TrainConfig(max_epochs=5, seed=0))
        text = history_csv(result.history)
        lines = text.strip().splitlines()
        assert lines[0] == "epoch,train_loss,test_loss"
        assert len(lines) == len(result.history) + 1
