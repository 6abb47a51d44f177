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


def _chain(leaves, inner, root):
    """Left-deep chain: merge j mixes the previous merge with leaf j; every
    merge but the last ends in ``inner``, the last in ``root``."""
    nodes = [cn.ComponentRef(f"r{i}", cid) for i, cid in enumerate(leaves)]
    prev = "r0"
    for j in range(1, len(leaves)):
        nodes.append(cn.Combine(f"mix{j}", [prev, f"r{j}"], np.array([0.05, 0.6, 0.4])))
        prev = f"mix{j}"
        act = inner if j < len(leaves) - 1 else root
        if act.tag != "linear":
            nodes.append(cn.Activate(f"act{j}", prev, act))
            prev = f"act{j}"
    return cn.CompositeNetwork(nodes, prev)


def _reference_train(net, reg, data, cfg, trainable_nodes):
    """``train`` with nothing cached: every batch runs the whole network
    through the public ``gradients`` and every epoch loss is ``loss_l2``."""
    net = net.copy()
    reg = {k: c.copy() for k, c in reg.items()}
    layout = cn.parameter_layout(net, reg, trainable_nodes)
    x, y = data.inputs[data.train_idx], data.labels[data.train_idx]
    rng = np.random.default_rng(cfg.seed)
    velocity = np.zeros(layout.size)
    history, best, stale = [], np.inf, 0
    for epoch in range(cfg.max_epochs):
        lr = cfg.lr_at(epoch)
        perm = rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            grad = cn.gradients(net, reg, x[idx], y[idx], layout=layout)
            velocity = cn.training.MOMENTUM * velocity - lr * grad
            cn.set_parameters(net, reg, layout, cn.get_parameters(net, reg, layout) + velocity)
        train_loss = cn.loss_l2(net, reg, data, "train")
        history.append((train_loss, cn.loss_l2(net, reg, data, "test")))
        if train_loss < best - 1e-12:
            best, stale = train_loss, 0
        else:
            stale += 1
            if stale >= cfg.early_stop_patience:
                break
    return history, cn.get_parameters(net, reg, layout)


def _oracle_case(name, comps):
    reg = cn.registry(comps)
    chain = ["f1", "f2", "f3", "f1"]
    if name == "frozen-chain-linear":
        return _chain(chain, cn.SL, cn.LINEAR), reg, {"mix3"}
    if name == "frozen-chain-sl":
        return _chain(chain, cn.SL, cn.SL), reg, {"mix3"}
    if name == "cached-and-open-merge":
        reg["f3"] = reg["f3"].opened_copy()
        nodes = [*_chain(["f1", "f2"], cn.SL, cn.SL).nodes, cn.ComponentRef("ro", "f3")]
        nodes.append(cn.Combine("top", ["act1", "ro"], np.array([0.0, 0.5, 0.5])))
        return cn.CompositeNetwork(nodes, "top"), reg, {"top", "ro"}
    if name == "non-instantiated":
        layers = [
            cn.AffineLayer(np.full((5, 4), 0.1), np.zeros(4), cn.TANH),
            cn.AffineLayer(np.full((4, 1), 0.2), np.zeros(1), cn.LINEAR),
        ]
        reg["n"] = cn.Component("n", cn.KIND_OPEN, cn.ROLE_AUX, layers, frozen=[True, False])
        return _chain(["f1", "f2", "n"], cn.SL, cn.LINEAR), reg, {"mix2", "r2"}
    return _chain(["f1", "f2", "f3"], cn.SL, cn.SL), reg, None  # every combine trains


class TestCachedTraining:
    @pytest.mark.parametrize(
        "case",
        [
            "frozen-chain-linear",
            "frozen-chain-sl",
            "cached-and-open-merge",
            "non-instantiated",
            "all-trainable",
        ],
    )
    def test_matches_uncached_reference_bit_for_bit(self, small_task, case):
        data, comps = small_task
        net, reg, trainable = _oracle_case(case, comps)
        cfg = cn.TrainConfig(max_epochs=12, early_stop_patience=3, seed=5)
        result = cn.train(net, reg, data, cfg, trainable_nodes=trainable)
        history, params = _reference_train(net, reg, data, cfg, trainable)
        assert [(h.train_loss, h.test_loss) for h in result.history] == history
        layout = cn.parameter_layout(result.net, result.components, trainable)
        np.testing.assert_array_equal(
            cn.get_parameters(result.net, result.components, layout), params
        )

    def test_frozen_subtrees_run_once_per_split(self, small_task, monkeypatch):
        data, comps = small_task
        net = _chain(["f1", "f2", "f3", "f1", "f2"], cn.SL, cn.SL)  # depth 4
        forward = cn.Component.forward
        calls = []

        def counting_forward(self, x, trace=None):
            calls.append(self.id)
            return forward(self, x, trace)

        monkeypatch.setattr(cn.Component, "forward", counting_forward)
        counts = []
        for epochs in (2, 6):
            calls.clear()
            cfg = cn.TrainConfig(max_epochs=epochs, early_stop_patience=0, seed=1)
            result = cn.train(net, cn.registry(comps), data, cfg, trainable_nodes={"mix4"})
            assert len(result.history) == epochs
            counts.append(len(calls))
        # one forward per component reference per split, however long training runs
        assert counts[0] == counts[1] <= 2 * len(net.ref_nodes())
