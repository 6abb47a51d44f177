"""Construction algorithms: ordering, greedy chain, balanced merges,
exhaustive search, pruning."""

import warnings

import numpy as np
import pytest

import compnet as cn
from compnet import construct


def _comp(cid, kind, role):
    layer = cn.AffineLayer(np.array([[1.0]]), np.zeros(1), cn.LINEAR)
    frozen = None if kind == cn.KIND_PRETRAINED else [False]
    return cn.Component(cid, kind, role, [layer], frozen)


@pytest.fixture(scope="module")
def task():
    spec = cn.SyntheticTaskSpec(
        n=160,
        d=5,
        m=1,
        true_function="mlp-teacher",
        noise_sd=0.02,
        component_quality=(0.12, 0.2, 0.3, 0.42, 0.55),
        seed=21,
    )
    return cn.generate_synthetic(spec)


def _fast_cfg(**kw):
    defaults = dict(
        train_cfg=cn.TrainConfig(max_epochs=50, early_stop_patience=12, seed=5),
    )
    defaults.update(kw)
    return cn.ConstructionConfig(**defaults)


class TestOrdering:
    def test_published_losses_ordering(self):
        """Four pre-trained base components with the published losses, one
        pre-trained auxiliary, one open auxiliary: sorted by (kind, role,
        loss ascending)."""
        pool = [
            _comp("f1", cn.KIND_PRETRAINED, cn.ROLE_BASE),
            _comp("f2", cn.KIND_PRETRAINED, cn.ROLE_BASE),
            _comp("f3", cn.KIND_PRETRAINED, cn.ROLE_BASE),
            _comp("f4", cn.KIND_PRETRAINED, cn.ROLE_BASE),
            _comp("f5", cn.KIND_PRETRAINED, cn.ROLE_AUX),
            _comp("fW6", cn.KIND_OPEN, cn.ROLE_AUX),
        ]
        losses = {"f1": 10.5789, "f2": 11.2074, "f3": 10.6459, "f4": 11.5112, "f5": 11.4738}
        ordered = cn.order_components(pool, losses)
        assert [c.id for c in ordered] == ["f1", "f3", "f2", "f4", "f5", "fW6"]

    def test_equal_losses_keep_declaration_order(self):
        pool = [_comp(f"c{i}", cn.KIND_PRETRAINED, cn.ROLE_BASE) for i in range(4)]
        ordered = cn.order_components(pool, {f"c{i}": 1.0 for i in range(4)})
        assert [c.id for c in ordered] == ["c0", "c1", "c2", "c3"]

    def test_singleton(self):
        pool = [_comp("only", cn.KIND_PRETRAINED, cn.ROLE_BASE)]
        assert cn.order_components(pool, {"only": 2.0}) == pool


class TestDbcn:
    def test_single_component_pool(self, task):
        data, comps = task
        report = cn.dbcn(comps[:1], data, _fast_cfg())
        assert report.steps == []
        assert report.final_depth == 1
        assert report.final.root.endswith(comps[0].id)

    def test_infinite_delta_prunes_to_depth_one(self, task):
        data, comps = task
        report = cn.dbcn(comps, data, _fast_cfg(delta=float("inf")))
        assert report.final_depth == 1
        assert report.pruned_from == len(comps)

    def test_nan_delta_rejected(self):
        # inf and -inf stay allowed: the test above and TestA1Fallback use them
        with pytest.raises(cn.ConstructionError, match="delta must not be nan"):
            cn.ConstructionConfig(delta=float("nan"))

    def test_front_runner_is_argmin_every_step(self, task):
        data, comps = task
        report = cn.dbcn(comps, data, _fast_cfg())
        assert report.steps, "expected at least one step"
        for step in report.steps:
            best = min(c.train_loss for c in step.candidates)
            chosen = [c for c in step.candidates if c.description == step.front_runner]
            assert len(chosen) == 1
            assert chosen[0].train_loss == best

    def test_insertion_order_by_quality(self, task):
        data, comps = task
        report = cn.dbcn(comps, data, _fast_cfg())
        # graded qualities make the loss ordering the id ordering
        assert report.order == [c.id for c in comps]

    def test_greedy_choice_matches_per_step_enumeration_oracle(self, task):
        """At every step, an explicit enumeration over the same candidate
        set (same seeds) must agree with the greedy front-runner."""
        data, comps = task
        pool = comps[:3]
        cfg = _fast_cfg()
        report = cn.dbcn(pool, data, cfg)
        import itertools

        from compnet.construct import _Variant, _component_state, _fit, _operand_splits

        ids = itertools.count(1)
        state = _component_state(pool[0], data)
        state.name = "g1"
        for j, comp in enumerate(pool[1:], start=2):
            right = _component_state(comp, data)
            outcomes = []
            for act in cfg.activations:
                trained, record, err = _fit(
                    state,
                    right,
                    act,
                    ids,
                    description=f"{act.label}({state.name},{comp.id})",
                    seed_key=f"merge{j - 2}:{act.tag}:xx",
                    opened={},
                    data=data,
                    cfg=cfg,
                    splits=_operand_splits(state, right, data),
                    variant=_Variant(),  # nothing shared: each candidate fits alone
                )
                assert err is None
                outcomes.append((record.train_loss, record.description, trained))
            best = min(outcomes, key=lambda t: t[0])
            assert best[1] == report.steps[j - 2].front_runner
            state = best[2]
            state.name = f"g{j}"

    def test_pruning_outputs_member_of_chain(self, task):
        data, comps = task
        report = cn.dbcn(comps, data, _fast_cfg(delta=1e9))
        assert report.final_depth == 1
        report2 = cn.dbcn(comps, data, _fast_cfg(delta=-1e9))
        # negative delta never prunes
        assert report2.final_depth == report2.pruned_from

    def test_open_component_trains_at_its_step(self, task):
        data, comps = task
        rng = np.random.default_rng(3)
        open_comp = cn.Component.mlp("fW", [5, 4, 1], rng, kind=cn.KIND_OPEN, role=cn.ROLE_AUX)
        before = open_comp.to_dict()
        pool = comps[:2] + [open_comp]
        report = cn.dbcn(pool, data, _fast_cfg())
        assert report.order[-1] == "fW"
        assert report.final_components["fW"].to_dict() != before
        step = report.steps[-1]
        # trainable column counts the new mixing weights plus the open blocks
        assert all(c.trainable == 3 + open_comp.parameter_count() for c in step.candidates)


class TestBbcn:
    def test_k0_four_balanced_shape(self, task):
        data, comps = task
        report = cn.bbcn(comps[:4], data, _fast_cfg(k0=4))
        labels = [s.label for s in report.steps]
        assert labels == [
            "balance level 1 slot 1",
            "balance level 1 slot 2",
            "balance level 2 slot 1",
        ]
        first = report.steps[0].candidates[0].description
        assert "h0_1" in first and "h0_2" in first

    def test_k0_three_odd_carry(self, task):
        data, comps = task
        report = cn.bbcn(comps[:3], data, _fast_cfg(k0=3))
        assert any("carried" in n for n in report.notes)
        # round 1 merges (f1, f2); round 2 merges the pair with carried f3
        assert "h0_1" in report.steps[0].candidates[0].description
        assert "h1_2" in report.steps[1].candidates[0].description

    def test_k0_one_degenerates_to_chain(self, task):
        data, comps = task
        with pytest.warns(UserWarning, match="k0"):
            report = cn.bbcn(comps[:3], data, _fast_cfg(k0=1))
        chain = cn.dbcn(comps[:3], data, _fast_cfg())
        assert report.algorithm == "bbcn"
        assert [s.front_runner for s in report.steps] == [s.front_runner for s in chain.steps]
        assert report.final_train_loss == chain.final_train_loss

    def test_k0_larger_than_pool_rejected(self, task):
        data, comps = task
        with pytest.raises(cn.ConstructionError):
            cn.bbcn(comps[:2], data, _fast_cfg(k0=5))

    def test_k0_six_runs_level_by_level(self):
        """With six base components the merge tree's postorder runs level 2
        before level 1 is done; the balanced stage must still run level by
        level, and the odd one out at level 1 is carried up to level 2."""
        spec = cn.SyntheticTaskSpec(
            n=120, d=5, noise_sd=0.02, component_quality=(0.1, 0.15, 0.2, 0.3, 0.4, 0.5), seed=3
        )
        data, comps = cn.generate_synthetic(spec)
        cfg = _fast_cfg(
            k0=6, activations=(cn.LINEAR,), train_cfg=cn.TrainConfig(max_epochs=3, seed=5)
        )
        report = cn.bbcn(comps, data, cfg)
        assert [s.label for s in report.steps] == [
            "balance level 1 slot 1",
            "balance level 1 slot 2",
            "balance level 1 slot 3",
            "balance level 2 slot 1",
            "balance level 3 slot 1",
        ]
        assert [s.front_runner for s in report.steps[-2:]] == ["L(h1_1,h1_2)", "L(h2_1,h2_2)"]
        assert "h2_2 <- h1_3 (carried unmerged)" in report.notes

    def test_non_base_in_prefix_rejected(self, task, rng):
        data, comps = task
        aux = cn.Component.mlp("aux", [5, 1], rng, role=cn.ROLE_AUX)
        with pytest.raises(cn.ConstructionError, match="base"):
            cn.bbcn([comps[0], aux], data, _fast_cfg(k0=2))


class TestExhaustive:
    def test_single_merge_has_eight_candidates(self, task):
        data, comps = task
        report = cn.exhaustive(comps[:2], data, _fast_cfg(k0=2))
        assert len(report.steps) == 1
        assert len(report.steps[0].candidates) == 8
        descs = {c.description for c in report.steps[0].candidates}
        assert len(descs) == 8
        for mark in ("^x", "^o"):
            assert any(mark in d for d in descs)

    def test_open_leaf_has_only_open_variants(self, task):
        data, comps = task
        rng = np.random.default_rng(9)
        open_comp = cn.Component.mlp("fW", [5, 3, 1], rng, kind=cn.KIND_OPEN, role=cn.ROLE_AUX)
        report = cn.exhaustive([comps[0], open_comp], data, _fast_cfg(k0=2))
        descs = [c.description for c in report.steps[0].candidates]
        assert len(descs) == 4
        assert all("fW^o" in d for d in descs)

    def test_superset_of_chain_search(self, task):
        data, comps = task
        cfg = _fast_cfg(k0=1)  # dbcn reads no k0
        chain = cn.dbcn(comps, data, cfg)
        full = cn.exhaustive(comps, data, cfg)
        assert full.final_train_loss <= chain.final_train_loss + 1e-9

    def test_first_merge_dominates_chain_step(self, task):
        """The frozen/frozen candidates of the first merge coincide with
        the chain's first step (same derived seeds), so the exhaustive
        winner there can only be at least as good."""
        data, comps = task
        cfg = _fast_cfg(k0=1)  # dbcn reads no k0
        chain = cn.dbcn(comps[:3], data, cfg)
        full = cn.exhaustive(comps[:3], data, cfg)
        chain_step = chain.steps[0]
        full_step = full.steps[0]
        frozen = {
            c.description.replace("^x", "").replace("f1,", "g1,"): c.train_loss
            for c in full_step.candidates
            if "^o" not in c.description
        }
        for cand in chain_step.candidates:
            assert frozen[cand.description] == cand.train_loss
        best_full = min(c.train_loss for c in full_step.candidates)
        best_chain = min(c.train_loss for c in chain_step.candidates)
        assert best_full <= best_chain

    @pytest.mark.parametrize(
        "k0, message",
        [(4, "k0 = 4 exceeds pool size 3"), (0, "k0 = 0"), (-5, "k0 = -5")],
        ids=["above-pool", "zero", "negative"],
    )
    def test_balanced_k0_outside_pool_rejected(self, task, k0, message):
        """The balanced schedule does not clamp k0: a k0 beyond the pool or
        below 1 is an error, as it is for bbcn, not a quietly smaller tree."""
        data, comps = task
        with pytest.raises(cn.ConstructionError, match=message):
            cn.exhaustive(comps[:3], data, _fast_cfg(k0=k0))

    def test_runs_parameter_layout_once_per_candidate(self, task, monkeypatch):
        """A candidate's layout is built once, by ``_fit``, and ``train``
        fits that one; the report builds one more for the final network."""
        data, comps = task
        layout, calls = construct.parameter_layout, []

        def counting_layout(*args, **kwargs):
            calls.append(1)
            return layout(*args, **kwargs)

        monkeypatch.setattr(construct, "parameter_layout", counting_layout)
        monkeypatch.setattr(cn.training, "parameter_layout", counting_layout)
        cfg = _fast_cfg(k0=1, activations=(cn.LINEAR, cn.TANH))  # tanh candidates train
        report = cn.exhaustive(comps[:3], data, cfg)
        candidates = sum(len(s.candidates) for s in report.steps)
        assert any(c.history[1:] for s in report.steps for c in s.candidates)  # some trained
        assert len(calls) == candidates == 16
        report.to_dict()
        assert len(calls) == candidates + 1


class TestDuplicateIds:
    @pytest.mark.parametrize(
        "build", [cn.dbcn, cn.bbcn, cn.exhaustive], ids=["dbcn", "bbcn", "exhaustive"]
    )
    def test_rejected_before_evaluation(self, task, monkeypatch, build):
        data, comps = task
        twin = cn.Component.from_dict({**comps[1].to_dict(), "id": comps[0].id})

        def refuse_evaluation(*args, **kwargs):
            raise AssertionError("evaluated a component of an invalid pool")

        monkeypatch.setattr("compnet.construct._component_state", refuse_evaluation)
        with pytest.raises(cn.ModelError, match="duplicate component id 'f1'"):
            build([comps[0], twin], data, _fast_cfg())


class TestOutputWidth:
    @pytest.mark.parametrize(
        "build", [cn.dbcn, cn.bbcn, cn.exhaustive], ids=["dbcn", "bbcn", "exhaustive"]
    )
    def test_wrong_width_rejected_before_evaluation(self, task, monkeypatch, build):
        """A component must output 1 column or the label width."""
        data, comps = task
        wide = cn.Component.mlp("w2", [5, 2], np.random.default_rng(0))

        def refuse_evaluation(*args, **kwargs):
            raise AssertionError("evaluated a component of an invalid pool")

        monkeypatch.setattr("compnet.construct._component_state", refuse_evaluation)
        with pytest.raises(
            cn.ConstructionError, match="component 'w2' outputs 2 columns; the labels have 1"
        ):
            build([comps[0], comps[1], wide], data, _fast_cfg(k0=2))


    @pytest.mark.parametrize(
        "build, activations",
        [(cn.exhaustive, (cn.LINEAR, cn.TANH)), (cn.dbcn, (cn.TANH,))],
        ids=["exhaustive", "dbcn-tanh"],
    )
    def test_width_one_components_train_on_two_labels(self, build, activations):
        """A width-1 component broadcasts to the label width in the loss
        and in training, so candidates over it train."""
        spec = cn.SyntheticTaskSpec(n=120, d=3, m=2, component_quality=(0.1,), seed=8)
        data, _ = cn.generate_synthetic(spec)
        rng = np.random.default_rng(2)
        pool = [cn.Component.mlp(cid, [3, 4, 1], rng) for cid in ("a", "b")]
        cfg = _fast_cfg(k0=1, activations=activations, train_cfg=cn.TrainConfig(max_epochs=5))
        report = build(pool, data, cfg)
        trained = [c for s in report.steps for c in s.candidates if len(c.history) > 1]
        assert trained and all(np.isfinite(c.train_loss) for c in trained)
        assert not any("failed training" in note for note in report.notes)
        assert report.to_dict()["final"]["train_loss"] == report.final_train_loss


class TestNoTrainRows:
    @pytest.mark.parametrize(
        "build", [cn.dbcn, cn.bbcn, cn.exhaustive], ids=["dbcn", "bbcn", "exhaustive"]
    )
    def test_rejected_before_evaluation(self, task, monkeypatch, build):
        data, comps = task
        rows = np.arange(data.inputs.shape[0])
        test_only = cn.Dataset(data.inputs, data.labels, rows[:0], rows)

        def refuse_evaluation(*args, **kwargs):
            raise AssertionError("evaluated a component without train rows")

        monkeypatch.setattr("compnet.construct._component_state", refuse_evaluation)
        with pytest.raises(cn.ConstructionError, match="the data has no train rows"):
            build(comps, test_only, _fast_cfg(k0=2))


class TestSettingsCheckedFirst:
    @pytest.mark.parametrize(
        "build, k0, message",
        [
            (cn.bbcn, 9, "k0 = 9 exceeds pool size 3"),
            (cn.exhaustive, 9, "k0 = 9 exceeds pool size 3"),
            (cn.bbcn, 0, "k0 = 0 is below 1"),
        ],
        ids=["bbcn-k0", "exhaustive-k0", "bbcn-k0-zero"],
    )
    def test_rejected_before_evaluation(self, task, monkeypatch, build, k0, message):
        data, comps = task

        def refuse_evaluation(*args, **kwargs):
            raise AssertionError("evaluated a component of an invalid run")

        monkeypatch.setattr("compnet.construct._component_state", refuse_evaluation)
        with pytest.raises(cn.ConstructionError, match=message):
            build(comps[:3], data, _fast_cfg(k0=k0))


class TestNoCandidateGuard:
    @pytest.mark.parametrize(
        "build", [cn.dbcn, cn.bbcn, cn.exhaustive], ids=["dbcn", "bbcn", "exhaustive"]
    )
    def test_large_pool_reaches_the_fit(self, task, monkeypatch, build):
        """No run is refused for its candidate count: construction fits
        the pool it is given."""
        data, _ = task
        rng = np.random.default_rng(0)
        many = [cn.Component.mlp(f"c{i}", [5, 1], rng) for i in range(822)]
        # 821 merges x 5 activations = 4105 candidates with one variant per
        # operand (dbcn, bbcn); exhaustive has four variant pairs per merge
        cfg = _fast_cfg(activations=(cn.LINEAR, cn.SL, cn.LOGISTIC, cn.TANH, cn.RELU))

        class Fitted(Exception):
            pass

        def refuse_fit(*args, **kwargs):
            raise Fitted

        # closed-form candidates never call ``train``, so stub the candidate fit
        monkeypatch.setattr("compnet.construct._fit", refuse_fit)
        with pytest.raises(Fitted):
            build(many, data, cfg)


class TestOneComponentPool:
    @pytest.mark.parametrize(
        "build, k0", [(cn.dbcn, 2), (cn.bbcn, 1), (cn.exhaustive, 1)], ids=["dbcn", "bbcn", "exhaustive"]
    )
    def test_no_training_note_only_when_a_merge_ran(self, task, build, k0):
        """A one-component pool merges nothing, so no note says that every
        merge was solved; two pre-trained components under linear,sl merge
        once, solved."""
        data, comps = task
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "k0 = 1", UserWarning)
            one = build(comps[:1], data, _fast_cfg(k0=k0))
            two = build(comps[:2], data, _fast_cfg(k0=k0))
        assert one.steps == [] and one.final_depth == 1
        assert not any("no candidate was trained" in note for note in one.notes)
        assert len(two.steps) == 1
        assert any("no candidate was trained" in note for note in two.notes)


class TestDeepPool:
    """Plans over pools far deeper than Python's recursion limit."""

    @pytest.mark.parametrize(
        "build, size", [(cn.dbcn, 1100), (cn.exhaustive, 1000)], ids=["dbcn", "exhaustive-chain"]
    )
    def test_reaches_training(self, task, monkeypatch, build, size):
        # dbcn: 1099 candidates; exhaustive: 999 merges x 4 variant pairs = 3996
        data, _ = task
        rng = np.random.default_rng(0)
        pool = [cn.Component.mlp(f"c{i}", [5, 1], rng) for i in range(size)]

        class Fitted(Exception):
            pass

        def refuse_fit(*args, **kwargs):
            raise Fitted

        # closed-form candidates never call ``train``, so stub the candidate fit
        monkeypatch.setattr("compnet.construct._fit", refuse_fit)
        with pytest.raises(Fitted):
            build(pool, data, _fast_cfg(activations=(cn.LINEAR,), k0=1))

    def test_each_leaf_runs_once_per_split_and_given_splits_change_no_bit(self, monkeypatch):
        """A deep dbcn run to the end, with a trained activation at every
        merge: each operand output is carried by the state that computed
        it, so ``Component.forward`` runs once per leaf and split, and the
        merge's splits that ``train`` is given change no bit of what it
        returns.  N = 300 keeps A4, N > ((K + 1)/2)^2, for K = 30."""
        k = 30
        spec = cn.SyntheticTaskSpec(
            n=300, d=5, noise_sd=0.02, component_quality=tuple(np.linspace(0.1, 0.6, k)), seed=7
        )
        data, pool = cn.generate_synthetic(spec)
        forward, calls = cn.Component.forward, []

        def counting_forward(self, x, trace=None):
            calls.append(self.id)
            return forward(self, x, trace)

        train, compared = construct.train, []

        def checked_train(*args, splits, **kwargs):
            result = train(*args, splits=splits, **kwargs)
            before = len(calls)
            plain = train(*args, **kwargs)
            del calls[before:]  # only the run that construction makes is counted
            assert plain.history == result.history and plain.best == result.best
            layout = kwargs["layout"]
            np.testing.assert_array_equal(
                cn.get_parameters(plain.net, plain.components, layout),
                cn.get_parameters(result.net, result.components, layout),
            )
            for a, b in zip(plain.outputs, result.outputs):
                np.testing.assert_array_equal(a, b)
            compared.append(len(result.history))
            return result

        monkeypatch.setattr(cn.Component, "forward", counting_forward)
        monkeypatch.setattr(construct, "train", checked_train)
        tcfg = cn.TrainConfig(max_epochs=8, early_stop_patience=3, seed=5)
        cfg = cn.ConstructionConfig(activations=(cn.LINEAR, cn.TANH), train_cfg=tcfg)
        report = cn.dbcn(pool, data, cfg)
        assert len(report.steps) == k - 1
        assert len(compared) == k - 1 and max(compared) > 1  # one trained tanh per merge
        assert len(calls) == 2 * k


def _schedule(count, k0):
    """The plan's merge tree over ``count`` leaves as nested leaf-index
    tuples, rebuilt from the operands in run order."""
    leaves = [construct._Operand(str(i), None) for i in range(count)]
    levels, chain = construct._tree(leaves, k0)
    root = (construct._postorder(levels[-1][0]) + chain)[-1]

    def nest(op):
        return int(op.name) if op.left is None else (nest(op.left), nest(op.right))

    return nest(root)


class TestSchedules:
    def test_balanced_shape_k0_4(self):
        assert _schedule(6, 4) == ((((0, 1), (2, 3)), 4), 5)

    def test_balanced_shape_k0_5(self):
        assert _schedule(5, 5) == (((0, 1), (2, 3)), 4)

    def test_chain_shape(self):
        assert _schedule(4, 1) == (((0, 1), 2), 3)


class TestReportShape:
    @pytest.mark.parametrize("algorithm", ["dbcn", "bbcn", "exhaustive"])
    def test_report_dict_round(self, task, algorithm):
        data, comps = task
        report = getattr(cn, algorithm)(comps[:2], data, _fast_cfg())
        d = report.to_dict()
        assert d["algorithm"] == algorithm
        assert d["final"]["trainable"] >= 3
        net = cn.CompositeNetwork.from_dict(d["network"])
        reg = cn.registry(cn.Component.from_dict(c) for c in d["components"])
        layout = cn.parameter_layout(net, reg)
        assert (d["final"]["trainable"], d["final"]["total"]) == (layout.size, layout.total)
        # the reported losses are the returned row's, which evaluate computes
        assert cn.loss_l2(net, reg, data, "train") == report.final_train_loss
        assert cn.loss_l2(net, reg, data, "test") == report.final_test_loss
