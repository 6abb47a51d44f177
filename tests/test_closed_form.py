"""Closed-form merges and best-row returns, checked on what construction
builds: theta* at frozen merges, the A1 fallback, the SL Taylor bound,
monotone chains, chains never below Theorem 1's width theta*, and
``train`` never ending above its start."""

import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import compnet as cn
from compnet.construct import _Operand, _component_state, _fit, _open, _operand_splits

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


_IDS = itertools.count(1000)  # node ids unique across the networks built here


def _fit_marked(left, right, marks, activation, data, fresh=False):
    """The candidate activation(left^marks[0], right^marks[1]), fitted as
    ``exhaustive`` fits it ('x' frozen, 'o' opened; ``fresh``: an opened
    operand is a leaf holding a non-instantiated component)."""
    operands, opened = [], {}
    for s, mark in zip((left, right), marks):
        if mark == "o":
            s, terms = _open(_Operand("", s, fresh=fresh))
            opened.update(terms)
        operands.append(s)
    state, record, err = _fit(
        *operands, activation, _IDS, f"{activation.label}({marks})", "k",
        opened, data, _cfg(), _operand_splits(left, right, data),
    )
    assert err is None
    return state, record


def _fit_frozen(left, right, activation, data):
    return _fit_marked(left, right, "xx", activation, data)


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


class TestOpenedSolve:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(30, 200),
        m=st.sampled_from([1, 2]),
        teacher=st.sampled_from(["mlp-teacher", "sum-of-experts", "linear"]),
        noise=st.sampled_from([0.0, 0.05]),
        merged_left=st.booleans(),
        width_one=st.booleans(),
        marks=st.sampled_from(["xo", "ox", "oo"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_above_theta_star_start(
        self, seed, n, m, teacher, noise, merged_left, width_one, marks
    ):
        """An L candidate over opened operands is one least-squares solve,
        and its theta* start (the '^x^x' candidate over the same operands,
        as opening copies the weights) is one point of the solve's search
        space: Theorem 1 on what is built.  Operands are leaves or a frozen L
        merge, with width-m or width-1 components and one or two labels."""
        spec = cn.SyntheticTaskSpec(
            n=n, d=4, m=m, true_function=teacher, noise_sd=noise,
            component_quality=(0.1, 0.3, 0.5), seed=seed,
        )
        data, comps = cn.generate_synthetic(spec)
        if width_one:
            comps[2] = cn.Component.mlp("w", [4, 3, 1], np.random.default_rng(seed))
        states = [_component_state(c, data) for c in comps]
        left = _fit_marked(*states[:2], "xx", cn.LINEAR, data)[0] if merged_left else states[0]
        right = states[2]
        _, start = _fit_marked(left, right, "xx", cn.LINEAR, data)
        state, solved = _fit_marked(left, right, marks, cn.LINEAR, data)
        assert len(solved.history) == 1  # solved, not trained
        assert solved.train_loss <= start.train_loss * (1 + 1e-9)
        assert cn.loss_l2(state.net, state.components, data, "train") == solved.train_loss

    @pytest.mark.parametrize(
        "m, width_one, marks",
        [(1, False, "oo"), (2, False, "xo"), (2, False, "oo"), (2, True, "ox")],
        ids=["m1-oo", "m2-xo", "m2-oo", "m2-width-one-ox"],
    )
    def test_reaches_the_networks_least_squares_optimum(self, m, width_one, marks):
        """The reference builds its columns from the network alone: with
        each opened operand's mix weight at 1, the output is affine in the
        other mix weights and in the opened last layers' weights and biases,
        so evaluating it at each unit vector gives the columns."""
        spec = cn.SyntheticTaskSpec(
            n=160, d=5, m=m, true_function="mlp-teacher", noise_sd=0.02,
            component_quality=(0.1, 0.3, 0.5), seed=11,
        )
        data, comps = cn.generate_synthetic(spec)
        if width_one:
            comps[2] = cn.Component.mlp("w", [5, 3, 1], np.random.default_rng(4))
        states = [_component_state(c, data) for c in comps]
        left = _fit_marked(*states[:2], "xx", cn.LINEAR, data)[0]  # a frozen L merge
        right = states[2]
        state, solved = _fit_marked(left, right, marks, cn.LINEAR, data)
        net = state.net.copy()
        comps = {k: c.copy() for k, c in state.components.items()}
        (mix,) = [n for n in net.combine_nodes() if n.id == state.net.root]
        # the mix's constant and each frozen operand's weight (views, set in place)
        arrays = [(mix.theta, j) for j, mark in enumerate("x" + marks) if mark == "x"]
        for op, mark in zip((left, right), marks):
            if mark == "o":
                mix.theta[1 + (op is right)] = 1.0
                for cid in op.components:
                    layer = comps[cid].layers[-1]
                    arrays += [(layer.weights.reshape(-1), j) for j in range(layer.weights.size)]
                    arrays += [(layer.bias, j) for j in range(layer.bias.size)]
        x, y = data.inputs[data.train_idx], data.labels[data.train_idx]

        def output():
            return np.broadcast_to(cn.evaluate(net, comps, x), y.shape).ravel()

        for a, j in arrays:
            a[j] = 0.0
        base = output()
        columns = []
        for a, j in arrays:
            a[j] = 1.0
            columns.append(output() - base)
            a[j] = 0.0
        design = np.column_stack(columns)
        coef = np.linalg.lstsq(design, y.ravel() - base, rcond=None)[0]
        optimum = float(np.sum((design @ coef + base - y.ravel()) ** 2) / y.shape[0])
        assert solved.train_loss == pytest.approx(optimum, rel=1e-9, abs=1e-15)

    def test_fitted_layers_and_mix(self):
        """The mix keeps the frozen operand's solved weight and takes each
        opened operand at weight 1; every opened last layer gets a zero
        bias, and every other block keeps its bits."""
        data, (left, right) = _states(1)
        state, record = _fit_marked(left, right, "xo", cn.LINEAR, data)
        (mix,) = state.net.combine_nodes()
        assert mix.theta[2] == 1.0
        (cid,) = right.components
        before, after = right.components[cid], state.components[cid]
        assert not np.any(after.layers[-1].bias)
        for a, b in zip(before.layers[:-1], after.layers[:-1]):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.bias, b.bias)
        assert state.components[next(iter(left.components))] is next(iter(left.components.values()))
        assert record.note == ""  # two distinct components: full rank

    @pytest.mark.parametrize("m, width_one", [(2, False), (2, True)], ids=["m2", "m2-width-one"])
    def test_several_labels_are_solved_and_reload(self, m, width_one):
        """One stacked solve over the label columns: no candidate trains,
        and the reported losses are those of the reloaded network."""
        spec = cn.SyntheticTaskSpec(
            n=160, d=5, m=m, true_function="linear", noise_sd=0.02,
            component_quality=(0.1, 0.3, 0.5), seed=12,
        )
        data, comps = cn.generate_synthetic(spec)
        if width_one:
            rng = np.random.default_rng(3)
            comps = [cn.Component.mlp(cid, [5, 4, 1], rng) for cid in ("a", "b", "c")]
        report = cn.exhaustive(comps, data, _cfg(k0=1))
        assert all(len(c.history) == 1 for s in report.steps for c in s.candidates)
        assert any("no candidate was trained" in note for note in report.notes)
        assert "^o" in report.steps[-1].front_runner
        d = report.to_dict()
        net = cn.CompositeNetwork.from_dict(d["network"])
        reg = {c["id"]: cn.Component.from_dict(c) for c in d["components"]}
        assert cn.loss_l2(net, reg, data, "train") == report.final_train_loss
        assert cn.loss_l2(net, reg, data, "test") == report.final_test_loss

    def test_per_column_offsets_reach_the_bias(self):
        """Labels with opposite offsets per column: a width-m opened
        component takes them in its bias, as the mix has one constant."""
        spec = cn.SyntheticTaskSpec(
            n=160, d=5, m=2, true_function="linear", component_quality=(0.1, 0.3), seed=4
        )
        data, comps = cn.generate_synthetic(spec)
        data.labels += np.array([5.0, -5.0])
        states = [_component_state(c, data) for c in comps]
        _, start = _fit_frozen(*states, cn.LINEAR, data)
        state, solved = _fit_marked(*states, "xo", cn.LINEAR, data)
        assert solved.train_loss <= start.train_loss
        np.testing.assert_allclose(state.components["f2"].layers[-1].bias, [5.0, -5.0], atol=0.5)

    def test_rank_deficient_pool_is_deterministic(self):
        """Every mlp-teacher component carries the teacher's hidden units,
        so solves over two opened components lose rank; the minimum-norm
        answer is taken, the note gives the rank, and runs agree bit for bit."""
        data, comps = _criterion_7_task(1003)
        cfg = _cfg(k0=1)
        first, second = (cn.exhaustive(comps, data, cfg).to_dict() for _ in range(2))
        assert json.dumps(first) == json.dumps(second)
        ranks = [
            re.search(r"rank-deficient \(rank (\d+) of (\d+) columns\)", note)
            for note in first["notes"]
        ]
        ranks = [(int(r[1]), int(r[2])) for r in ranks if r]
        assert ranks and all(rank < cols for rank, cols in ranks)

    def test_fresh_leaf_and_tanh_candidates_still_train(self):
        data, comps = _criterion_7_task(1000)
        fresh = cn.Component.mlp(
            "fresh", [5, 4, 1], np.random.default_rng(0), kind=cn.KIND_OPEN, role=cn.ROLE_AUX
        )
        report = cn.exhaustive([*comps[:2], fresh], data, _cfg(k0=1, activations=(cn.LINEAR, cn.TANH)))
        candidates = {c.description: c for s in report.steps for c in s.candidates}
        assert len(candidates["L(g1^x,fresh^o)"].history) > 1
        assert all(len(c.history) > 1 for d, c in candidates.items() if d.startswith("Tanh"))
        assert len(candidates["L(f1^o,f2^o)"].history) == 1

    def test_non_affine_paths_are_not_solved(self):
        """The decision at its one place: ``_open`` reads an opened
        operand's affine terms (None for a fresh leaf or a non-affine
        path), and ``_fit`` solves only linear or SL candidates whose
        opened operands all have them."""
        data, (left, right) = _states(1)
        tanh_merge, _ = _fit_frozen(left, right, cn.TANH, data)
        assert _open(_Operand("", tanh_merge))[1] == {tanh_merge.net.root: None}
        other = _component_state(cn.Component.mlp("w", [5, 3, 1], np.random.default_rng(2)), data)
        assert len(_fit_marked(tanh_merge, other, "ox", cn.LINEAR, data)[1].history) > 1
        assert _open(_Operand("", left))[1][left.net.root] is not None
        assert len(_fit_marked(left, right, "ox", cn.SL, data)[1].history) == 1
        fresh = cn.Component.mlp(
            "fresh", [5, 4, 1], np.random.default_rng(0), kind=cn.KIND_OPEN, role=cn.ROLE_AUX
        )
        fresh_state = _component_state(fresh, data)
        assert _open(_Operand("", fresh_state, fresh=True))[1] == {fresh_state.net.root: None}
        assert len(_fit_marked(left, fresh_state, "xo", cn.LINEAR, data, fresh=True)[1].history) > 1
        tanh_out = cn.Component.mlp("t", [5, 3, 1], np.random.default_rng(1), output_activation=cn.TANH)
        tanh_state = _component_state(tanh_out, data)
        assert _open(_Operand("", tanh_state))[1] == {tanh_state.net.root: None}
        assert len(_fit_marked(tanh_state, right, "ox", cn.LINEAR, data)[1].history) > 1

    @pytest.mark.parametrize("m", [1, 2])
    def test_solved_candidates_report_the_columns_they_fit(self, m, monkeypatch):
        """A solved '^o' candidate's ``trainable`` is its design's width,
        not every block it opens; a theta* candidate's is its 3 weights."""
        widths, solve = [], cn.construct.solve_min_norm

        def spy(design, target):
            widths.append(design.shape[1])
            return solve(design, target)

        monkeypatch.setattr(cn.construct, "solve_min_norm", spy)
        spec = cn.SyntheticTaskSpec(
            n=160, d=5, m=m, true_function="mlp-teacher", noise_sd=0.02,
            component_quality=(0.1, 0.3, 0.5), seed=11,
        )
        data, comps = cn.generate_synthetic(spec)
        report = cn.exhaustive(comps, data, _cfg(k0=1))
        candidates = [c for s in report.steps for c in s.candidates]
        assert all(len(c.history) == 1 for c in candidates)  # every one solved
        solved = [c.trainable for c in candidates if "^o" in c.description]
        assert solved == widths and len(widths) == 12
        assert all(c.trainable < c.total for c in candidates)
        assert {c.trainable for c in candidates if "^o" not in c.description} == {3}

    def test_one_affine_walk_per_opened_operand_per_merge(self, monkeypatch):
        """Every candidate that opens an operand reads the terms its merge
        read once: two operands at each of two merges."""
        walks, walk = [], cn.construct._affine_terms

        def counting(operand):
            walks.append(operand.net.root)
            return walk(operand)

        monkeypatch.setattr(cn.construct, "_affine_terms", counting)
        data, comps = _criterion_7_task(1000)
        report = cn.exhaustive(comps[:3], data, _cfg(k0=1, activations=(cn.LINEAR, cn.SL)))
        assert sum(len(s.candidates) for s in report.steps) == 16
        assert len(walks) == len(set(walks)) == 4
