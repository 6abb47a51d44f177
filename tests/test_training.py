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

    def test_matches_central_differences_with_shared_nodes(self, rng):
        """Fan-out (``act`` feeds both combines), a width-1 child in a
        width-2 combine, and one opened component referenced twice; a
        trained combine under ``act`` makes its adjoint count."""
        x = rng.normal(size=(24, 3))
        y = rng.normal(size=(24, 2))
        reg = {
            "a": cn.Component.mlp("a", [3, 4, 2], rng, kind=cn.KIND_OPEN, role=cn.ROLE_AUX),
            "b": cn.Component.mlp("b", [3, 1], rng),
        }
        net = cn.CompositeNetwork(
            [
                cn.ComponentRef("ra1", "a"),
                cn.ComponentRef("rb", "b"),
                cn.Combine("inner", ["rb"], np.array([0.3, -0.8])),
                cn.Activate("act", "inner", cn.TANH),
                cn.Combine("mix1", ["ra1", "act"], np.array([0.1, 0.7, -0.4])),
                cn.ComponentRef("ra2", "a"),
                cn.Combine("mix2", ["mix1", "ra2", "act"], np.array([-0.2, 0.9, 0.3, 0.5])),
            ],
            "mix2",
        )
        layout = cn.parameter_layout(net, reg)
        assert [(cid, li) for cid, li, *_ in layout.blocks] == [("a", 0), ("a", 1)]
        grad = cn.gradients(net, reg, x, y)
        w0 = cn.get_parameters(net, reg, layout)

        def loss_at(w):
            cn.set_parameters(net, reg, layout, w)
            return float(np.sum((cn.evaluate(net, reg, x) - y) ** 2) / x.shape[0])

        h = 1e-6
        num = np.empty(layout.size)
        for i in range(layout.size):
            wp, wm = w0.copy(), w0.copy()
            wp[i] += h
            wm[i] -= h
            num[i] = (loss_at(wp) - loss_at(wm)) / (2 * h)
        np.testing.assert_allclose(grad, num, rtol=1e-6, atol=1e-8)

    def test_width_one_root_against_two_labels(self, rng):
        """A width-1 root broadcasts to the label width, as the loss
        broadcasts it, so its adjoint sums over the label columns; any other
        width mismatch is an error."""
        x = rng.normal(size=(24, 3))
        y = rng.normal(size=(24, 2))
        reg = {
            "a": cn.Component.mlp("a", [3, 4, 1], rng, kind=cn.KIND_OPEN, role=cn.ROLE_AUX),
            "b": cn.Component.mlp("b", [3, 1], rng),
        }
        net = cn.CompositeNetwork(
            [
                cn.ComponentRef("ra", "a"),
                cn.ComponentRef("rb", "b"),
                cn.Combine("mix", ["ra", "rb"], np.array([0.1, 0.7, -0.4])),
                cn.Activate("out", "mix", cn.TANH),
            ],
            "out",
        )
        layout = cn.parameter_layout(net, reg)
        grad = cn.gradients(net, reg, x, y)
        w0 = cn.get_parameters(net, reg, layout)

        def loss_at(w):
            cn.set_parameters(net, reg, layout, w)
            return cn.residual_loss(cn.evaluate(net, reg, x), y)

        h = 1e-6
        num = np.empty(layout.size)
        for i in range(layout.size):
            wp, wm = w0.copy(), w0.copy()
            wp[i] += h
            wm[i] -= h
            num[i] = (loss_at(wp) - loss_at(wm)) / (2 * h)
        np.testing.assert_allclose(grad, num, rtol=1e-6, atol=1e-8)
        wide = cn.Component.mlp("w", [3, 2], rng, kind=cn.KIND_OPEN, role=cn.ROLE_AUX)
        wide_net = cn.single_component_network("w")
        with pytest.raises(cn.GradientError, match=r"\(24, 2\) != label shape \(24, 3\)"):
            cn.gradients(wide_net, {"w": wide}, x, rng.normal(size=(24, 3)))

    def test_frozen_blocks_have_no_gradient_entries(self, small_task):
        data, comps = small_task
        reg = cn.registry(comps)
        net = linear_mix_network(comps)
        layout = cn.parameter_layout(net, reg)
        # all components are pre-trained: only the combine weights remain
        assert layout.size == len(comps) + 1
        assert layout.blocks == {}

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

    def test_unresolved_component_named(self, small_task):
        data, comps = small_task
        net = cn.single_component_network("f1")
        with pytest.raises(cn.EvaluationError, match="node 'ref:f1': unresolved component 'f1'"):
            cn.train(net, {}, data, cn.TrainConfig())

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf, -1e-3])
    def test_learning_rate_must_be_finite_and_non_negative(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            cn.TrainConfig(learning_rate=lr)

    def test_trainable_nodes_filter(self, small_task):
        data, comps = small_task
        reg = cn.registry(comps)
        net = _sandwich_net(comps)
        layout = cn.parameter_layout(net, reg, {"outer"})
        result = cn.train(net, reg, data, cn.TrainConfig(max_epochs=20, seed=1), layout=layout)
        np.testing.assert_array_equal(result.net.node("inner").theta, net.node("inner").theta)
        assert not np.array_equal(result.net.node("outer").theta, net.node("outer").theta)

    def test_divergence_reports_epoch(self, small_task):
        data, comps = small_task
        net = linear_mix_network(comps)
        cfg = cn.TrainConfig(learning_rate=1e6, max_epochs=50, seed=0)
        with pytest.raises(cn.TrainingError, match="diverged at epoch"):
            cn.train(net, cn.registry(comps), data, cfg)

    @pytest.mark.parametrize("n_big", [1, 5], ids=["inf", "nan"])
    def test_non_finite_frozen_node_reported_as_divergence(self, small_task, n_big):
        """A frozen node that overflows is found from the values cached
        before the first batch, and named as ``evaluate`` names it.  Its
        inf rows saturate in the activation above it and leave the
        gradients finite; its nan rows do not."""
        data, _ = small_task
        # one non-zero weight overflows rows to +-inf; with five, +inf
        # and -inf terms also meet and give nan
        weights = np.zeros((5, 1))
        weights[:n_big] = 1e308
        big = cn.Component(
            "big", cn.KIND_PRETRAINED, cn.ROLE_BASE, [cn.AffineLayer(weights, np.zeros(1), cn.LINEAR)]
        )
        net = cn.CompositeNetwork(
            [
                cn.ComponentRef("r", "big"),
                cn.Activate("sq", "r", cn.SL),
                cn.Combine("mix", ["sq"], np.array([0.0, 0.5])),
            ],
            "mix",
        )
        with pytest.raises(cn.EvaluationError) as evaluated:
            cn.evaluate(net, {"big": big}, data.inputs)
        assert evaluated.value.node_id == "r"
        with pytest.raises(cn.TrainingError) as trained:
            cn.train(net, {"big": big}, data, cn.TrainConfig(max_epochs=3, seed=0))
        assert str(trained.value) == "diverged at epoch 0: node 'r': non-finite value produced"

    @pytest.mark.parametrize("kind", [cn.KIND_OPEN, cn.KIND_PRETRAINED], ids=["open", "pretrained"])
    def test_overflow_hidden_by_saturation_ends_training(self, small_task, kind):
        """A component whose frozen tanh layer overflows has a finite
        output, because tanh saturates; ``evaluate`` still rejects it, and
        so does ``train``: at the first epoch loss when the component is
        opened, and before the first batch when it is wholly frozen."""
        data, comps = small_task
        reg = cn.registry(comps)
        weights = np.zeros((5, 4))
        weights[0] = 1e308  # rows overflow to +-inf, never to nan
        layers = [
            cn.AffineLayer(weights, np.zeros(4), cn.TANH),
            cn.AffineLayer(np.full((4, 1), 0.1), np.zeros(1), cn.LINEAR),
        ]
        frozen = [True, kind == cn.KIND_PRETRAINED]
        reg["o"] = cn.Component("o", kind, cn.ROLE_AUX, layers, frozen=frozen)
        net = cn.CompositeNetwork(
            [
                cn.ComponentRef("r1", "f1"),
                cn.ComponentRef("ro", "o"),
                cn.Combine("mix", ["r1", "ro"], np.array([0.0, 0.5, 0.5])),
            ],
            "mix",
        )
        with np.errstate(over="ignore"):
            assert np.all(np.isfinite(cn.node_values(net, reg, data.inputs)["ro"]))
        with pytest.raises(cn.EvaluationError) as evaluated:
            cn.evaluate(net, reg, data.inputs)
        assert evaluated.value.node_id == "ro"
        with pytest.raises(cn.TrainingError) as trained:
            cn.train(net, reg, data, cn.TrainConfig(max_epochs=3, seed=0))
        assert str(trained.value) == "diverged at epoch 0: node 'ro': non-finite value produced"

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


def _reference_train(net, reg, data, cfg, layout):
    """``train`` with nothing cached: every batch runs the whole network
    through the public ``gradients`` and every row's loss is ``loss_l2``.
    Row 0 is the start; the parameters returned are the last row's that
    improved on the best train loss by more than 1e-12."""
    net = net.copy()
    reg = {k: c.copy() for k, c in reg.items()}
    x, y = data.inputs[data.train_idx], data.labels[data.train_idx]
    rng = np.random.default_rng(cfg.seed)
    velocity = np.zeros(layout.size)
    history = [(cn.loss_l2(net, reg, data, "train"), cn.loss_l2(net, reg, data, "test"))]
    best, params, stale = history[0][0], cn.get_parameters(net, reg, layout), 0
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
            best, params, stale = train_loss, cn.get_parameters(net, reg, layout), 0
        else:
            stale += 1
            if stale >= cfg.early_stop_patience:
                break
    return history, params


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
    if name == "frozen-fan-out":
        nodes = [*_chain(["f1", "f2"], cn.SL, cn.SL).nodes, cn.ComponentRef("r2", "f3")]
        nodes.append(cn.Combine("left", ["act1", "r2"], np.array([0.0, 0.5, 0.5])))
        nodes.append(cn.Combine("right", ["act1", "r0"], np.array([0.1, 0.7, 0.2])))
        nodes.append(cn.Combine("top", ["left", "right"], np.array([0.0, 0.5, 0.5])))
        return cn.CompositeNetwork(nodes, "top"), reg, {"left", "right"}
    if name == "frozen-root":
        chain = _chain(chain, cn.SL, cn.SL)
        side = cn.Combine("side", ["r1", "act2"], np.array([0.0, 0.5, 0.5]))
        return cn.CompositeNetwork([*chain.nodes, side], chain.root), reg, {"side"}
    return _chain(["f1", "f2", "f3"], cn.SL, cn.SL), reg, None  # every combine trains


class TestCachedTraining:
    @pytest.mark.parametrize(
        "case",
        [
            "frozen-chain-linear",
            "frozen-chain-sl",
            "cached-and-open-merge",
            "non-instantiated",
            "frozen-fan-out",
            "frozen-root",
            "all-trainable",
        ],
    )
    def test_matches_uncached_reference_bit_for_bit(self, small_task, case):
        data, comps = small_task
        net, reg, trainable = _oracle_case(case, comps)
        cfg = cn.TrainConfig(max_epochs=12, early_stop_patience=3, seed=5)
        layout = cn.parameter_layout(net, reg, trainable)
        result = cn.train(net, reg, data, cfg, layout=layout)
        history, params = _reference_train(net, reg, data, cfg, layout)
        assert [(h.train_loss, h.test_loss) for h in result.history] == history
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
        counts, layout = [], cn.parameter_layout(net, cn.registry(comps), {"mix4"})
        for epochs in (2, 6):
            calls.clear()
            cfg = cn.TrainConfig(max_epochs=epochs, early_stop_patience=0, seed=1)
            result = cn.train(net, cn.registry(comps), data, cfg, layout=layout)
            assert len(result.history) == epochs + 1  # row 0 is the start
            counts.append(len(calls))
        # one forward per component reference per split, however long training runs
        assert counts[0] == counts[1] <= 2 * len(net.ref_nodes())

    def test_given_live_value_holds_only_at_the_start(self, small_task, monkeypatch):
        """A value given for a live node is its start value: training must
        not read it after the first step, nor stop row 0 at it, so the
        frozen nodes under it are still computed once per split."""
        data, comps = small_task
        net, reg = _chain(["f1", "f2", "f3", "f1", "f2"], cn.SL, cn.SL), cn.registry(comps)
        starts = [
            {"mix4": cn.node_values(net, reg, data.inputs[idx])["mix4"]}
            for idx in (data.train_idx, data.test_idx)
        ]
        cfg = cn.TrainConfig(max_epochs=6, early_stop_patience=0, seed=1)
        layout = cn.parameter_layout(net, reg, {"mix4"})
        plain = cn.train(net, reg, data, cfg, layout=layout)
        forward, calls = cn.Component.forward, []

        def counting_forward(self, x, trace=None):
            calls.append(self.id)
            return forward(self, x, trace)

        monkeypatch.setattr(cn.Component, "forward", counting_forward)
        splits = cn.training.data_splits(data, starts)
        given = cn.train(net, reg, data, cfg, layout=layout, splits=splits)
        assert given.history == plain.history and len(given.history) == 7
        assert len(calls) <= 2 * len(net.ref_nodes())


def _opened_case(name, data, comps):
    """A trained combine over a frozen SL merge and an opened component
    whose hidden layer (and the root activation) is ``name``; or, for
    "two-labels", a two-column task where a width-2 and a width-1 opened
    component meet in one combine."""
    rng = np.random.default_rng(11)
    reg = cn.registry(comps)
    if name == "two-labels":
        y = data.labels[:, 0]
        data = cn.Dataset(data.inputs, np.column_stack([y, y * y]), data.train_idx, data.test_idx)
        reg["w"] = cn.Component.mlp("w", [5, 4, 2], rng, kind=cn.KIND_OPEN, role=cn.ROLE_AUX)
        reg["f3"] = reg["f3"].opened_copy()
        nodes = [cn.ComponentRef(r, c) for r, c in (("r0", "f1"), ("rw", "w"), ("r3", "f3"))]
        nodes.append(cn.Combine("top", ["r0", "rw", "r3"], np.array([0.0, 0.4, 0.3, 0.3])))
        return cn.CompositeNetwork(nodes, "top"), reg, data, {"top", "rw", "r3"}
    act = cn.parse_activation(name)
    layers = [
        cn.AffineLayer(rng.normal(scale=0.5, size=(5, 4)), rng.normal(scale=0.1, size=4), act),
        cn.AffineLayer(rng.normal(scale=0.5, size=(4, 1)), np.zeros(1), cn.LINEAR),
    ]
    reg["o"] = cn.Component("o", cn.KIND_OPEN, cn.ROLE_AUX, layers)
    nodes = [*_chain(["f1", "f2"], cn.SL, cn.SL).nodes, cn.ComponentRef("ro", "o")]
    nodes.append(cn.Combine("top", ["act1", "ro"], np.array([0.0, 0.5, 0.5])))
    nodes.append(cn.Activate("out", "top", act))
    return cn.CompositeNetwork(nodes, "out"), reg, data, {"top", "ro"}


def _reference_result(net, reg, data, cfg, layout=None, splits=None):
    """``_reference_train`` as a ``TrainResult``: a copy carrying the
    reference's parameters, the last row that improved on the best train
    loss by more than 1e-12 as ``best``, and the copy's root outputs from
    a plain ``evaluate``.  The given ``splits`` are ignored, so nothing
    is cached."""
    if layout is None:
        layout = cn.parameter_layout(net, reg)
    history, params = _reference_train(net, reg, data, cfg, layout)
    net, reg = net.copy(), {k: c.copy() for k, c in reg.items()}
    cn.set_parameters(net, reg, layout, params)
    best = 0
    for i, (train_loss, _) in enumerate(history):
        if train_loss < history[best][0] - 1e-12:
            best = i
    rows = [cn.EpochStats(i, train, test) for i, (train, test) in enumerate(history)]
    outputs = [cn.evaluate(net, reg, data.inputs[idx]) for idx in (data.train_idx, data.test_idx)]
    return cn.TrainResult(net, reg, rows, best, outputs)


def _textbook_gradient(comp, theta, act, x, y):
    """The batch gradient of act(theta0 + theta1 * comp(x)), written out
    with ``Activation.derivative`` of every pre-activation, and every
    sum taken as ``gradients`` takes it: combine theta, then each layer's
    weights and bias."""
    hs, pres = [x], []
    for layer in comp.layers:
        pres.append(hs[-1] @ layer.weights + layer.bias)
        hs.append(layer.activation.value(pres[-1]))
    top = np.full((x.shape[0], 1), theta[0]) + theta[1] * hs[-1]
    a = 2.0 * (act.value(top) - y) / x.shape[0] * act.derivative(top)
    grad = [np.array([0.0 + a.sum(), 0.0 + float((a * hs[-1]).sum())])]
    d, blocks = theta[1] * a, []
    for li in range(len(comp.layers) - 1, -1, -1):
        layer = comp.layers[li]
        dpre = d * layer.activation.derivative(pres[li])
        blocks.insert(0, [0.0 + (hs[li].T @ dpre).ravel(), 0.0 + dpre.sum(axis=0)])
        d = dpre @ layer.weights.T
    return np.concatenate(grad + [part for block in blocks for part in block])


def _arrays(net, comps):
    arrays = [node.theta for node in net.combine_nodes()]
    layers = [layer for c in comps.values() for layer in c.layers]
    return arrays + [a for layer in layers for a in (layer.weights, layer.bias)]


class TestCompiledStep:
    @pytest.mark.parametrize("name", ["tanh", "logistic", "relu", "linear", "two-labels"])
    def test_derivative_shortcuts_match_reference_bit_for_bit(self, small_task, name):
        """Linear layers skip their multiply by ones, and tanh and
        logistic layers take their derivative from the forward output;
        the bits must not move."""
        data, comps = small_task
        net, reg, data, trainable = _opened_case(name, data, comps)
        cfg = cn.TrainConfig(max_epochs=10, early_stop_patience=3, seed=5)
        layout = cn.parameter_layout(net, reg, trainable)
        result = cn.train(net, reg, data, cfg, layout=layout)
        history, params = _reference_train(net, reg, data, cfg, layout)
        assert len(history) > 2
        assert [(h.train_loss, h.test_loss) for h in result.history] == history
        np.testing.assert_array_equal(
            cn.get_parameters(result.net, result.components, layout), params
        )

    @pytest.mark.parametrize("hidden", ["tanh", "logistic", "relu", "linear", "sl"])
    @pytest.mark.parametrize("outer", ["tanh", "logistic", "linear", "sl"])
    def test_gradient_matches_textbook_backprop_bit_for_bit(self, small_task, hidden, outer):
        """The trainer's reference above runs the same ``gradients``; this
        one multiplies by ``Activation.derivative`` everywhere, so it pins
        the shortcuts that take a derivative from the forward output."""
        data, _ = small_task
        rng = np.random.default_rng(3)
        layers = [
            cn.AffineLayer(
                rng.normal(size=(5, 6)), rng.normal(size=6), cn.parse_activation(hidden)
            ),
            cn.AffineLayer(rng.normal(size=(6, 1)), rng.normal(size=1), cn.parse_activation(outer)),
        ]
        comp = cn.Component("o", cn.KIND_OPEN, cn.ROLE_AUX, layers)
        theta, act = np.array([0.1, 0.7]), cn.parse_activation(outer)
        net = cn.CompositeNetwork(
            [
                cn.ComponentRef("r", "o"),
                cn.Combine("top", ["r"], theta),
                cn.Activate("out", "top", act),
            ],
            "out",
        )
        x, y = data.inputs[:32], data.labels[:32]
        np.testing.assert_array_equal(
            cn.gradients(net, {"o": comp}, x, y), _textbook_gradient(comp, theta, act, x, y)
        )

    def test_zero_entries_carry_the_sign_a_sum_into_zeros_gives(self, small_task):
        """A dead relu unit under an adjoint of one sign has a bias
        gradient summed from -0.0 terms alone.  However the reduction
        starts its sum, the entry must read +0.0, as the textbook's sum
        into zeros does."""
        data, _ = small_task
        rng = np.random.default_rng(5)
        bias = np.zeros(4)
        bias[0] = -1e3  # unit 0 never fires
        weights = rng.normal(size=(4, 1))
        weights[0] = -1.0
        layers = [
            cn.AffineLayer(rng.normal(size=(5, 4)), bias, cn.RELU),
            cn.AffineLayer(weights, np.zeros(1), cn.LINEAR),
        ]
        comp = cn.Component("o", cn.KIND_OPEN, cn.ROLE_AUX, layers)
        theta = np.array([100.0, 1.0])  # every prediction above its label
        net = cn.CompositeNetwork(
            [cn.ComponentRef("r", "o"), cn.Combine("top", ["r"], theta)], "top"
        )
        x, y = data.inputs[:32], data.labels[:32]
        got = cn.gradients(net, {"o": comp}, x, y)
        expected = _textbook_gradient(comp, theta, cn.LINEAR, x, y)
        dead_bias = 2 + 5 * 4  # after theta and the first layer's weights
        assert got[dead_bias] == 0.0 and not np.signbit(expected[dead_bias])
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("k0", [1, 2], ids=["chain", "balanced"])
    def test_exhaustive_reports_match_reference_trainer(self, small_task, monkeypatch, k0):
        data, comps = small_task
        tcfg = cn.TrainConfig(max_epochs=6, early_stop_patience=2, seed=3)
        # tanh candidates train; linear ones over opened operands are solved
        cfg = cn.ConstructionConfig(k0=k0, activations=(cn.LINEAR, cn.TANH), train_cfg=tcfg)
        expected = cn.exhaustive(comps, data, cfg).to_dict()
        monkeypatch.setattr("compnet.construct.train", _reference_result)
        assert cn.exhaustive(comps, data, cfg).to_dict() == expected

    def test_known_frozen_values_leave_the_gradient_unchanged(self, small_task):
        data, comps = small_task
        net, reg, trainable = _oracle_case("cached-and-open-merge", comps)
        layout = cn.parameter_layout(net, reg, trainable)
        x, y = data.inputs[:32], data.labels[:32]
        values = cn.node_values(net, reg, x)
        expected = cn.gradients(net, reg, x, y, layout=layout)
        assert layout.read
        for nodes in ((), layout.read, layout.frozen):
            known = {nid: values[nid] for nid in nodes}
            got = cn.gradients(net, reg, x, y, layout=layout, known=known)
            np.testing.assert_array_equal(got, expected)

    def test_parameters_are_read_once_and_never_copied_back(self, small_task, monkeypatch):
        """Inside ``train`` the network's arrays are views into the flat
        vector, so neither accessor runs per batch or per epoch."""
        data, comps = small_task
        reg = cn.registry(comps)
        reg["f3"] = reg["f3"].opened_copy()
        net = _sandwich_net(comps)
        calls = []
        for name in ("get_parameters", "set_parameters"):
            original = getattr(cn.training, name)

            def counting(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(cn.training, name, counting)
        counts = []
        for epochs in (2, 8):
            calls.clear()
            cfg = cn.TrainConfig(max_epochs=epochs, early_stop_patience=0, seed=1)
            result = cn.train(net, reg, data, cfg)
            assert len(result.history) == epochs + 1
            counts.append(sorted(calls))
        assert counts[0] == counts[1] == ["get_parameters"]

    def test_result_arrays_alias_neither_input_nor_another_result(self, small_task):
        data, comps = small_task
        reg = cn.registry(comps)
        reg["f1"] = reg["f1"].opened_copy()
        net = _sandwich_net(comps)
        cfg = cn.TrainConfig(max_epochs=3, seed=2)
        a = cn.train(net, reg, data, cfg)
        b = cn.train(net, reg, data, cfg)
        for x in _arrays(a.net, a.components):
            for y in _arrays(net, reg) + _arrays(b.net, b.components):
                assert not np.shares_memory(x, y)
        # and moving one result leaves the other and the input alone
        before = [y.copy() for y in _arrays(net, reg) + _arrays(b.net, b.components)]
        for x in _arrays(a.net, a.components):
            x += 1.0
        after = _arrays(net, reg) + _arrays(b.net, b.components)
        assert all(np.array_equal(u, v) for u, v in zip(before, after))


class TestEmptySplit:
    def test_zero_rows_are_never_evaluated(self, small_task, monkeypatch):
        """With no test rows, no history row and no pool leaf evaluates the
        test split; its losses stay nan."""
        data, comps = small_task
        every_row_trains = cn.Dataset(data.inputs, data.labels, np.arange(data.n))
        rows = []
        original = cn.model.node_values

        def counting(net, components, inputs, *args, **kwargs):
            rows.append(len(inputs))
            return original(net, components, inputs, *args, **kwargs)

        monkeypatch.setattr(cn.model, "node_values", counting)
        monkeypatch.setattr(cn.training, "node_values", counting)
        tcfg = cn.TrainConfig(max_epochs=4, early_stop_patience=2, seed=1)
        cfg = cn.ConstructionConfig(activations=(cn.LINEAR, cn.TANH), train_cfg=tcfg)
        report = cn.dbcn(comps, every_row_trains, cfg)
        assert any(len(c.history) > 1 for s in report.steps for c in s.candidates)  # some trained
        assert rows and rows.count(0) == 0
        assert all(np.isnan(r.test_loss) for s in report.steps for c in s.candidates for r in c.history)
        assert np.isnan(report.final_test_loss)
