"""Construction algorithms: ordering, greedy chain, balanced merges,
exhaustive search, pruning."""

import numpy as np
import pytest

import compnet as cn


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

        from compnet.construct import _component_state, _fit

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
                    opened=set(),
                    data=data,
                    cfg=cfg,
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

    def test_non_base_in_prefix_rejected(self, task):
        data, comps = task
        aux = _comp("aux", cn.KIND_PRETRAINED, cn.ROLE_AUX)
        with pytest.raises(cn.ConstructionError, match="base"):
            cn.bbcn([comps[0], aux], data, _fast_cfg(k0=2), assume_ordered=True)


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
        report = cn.exhaustive([comps[0], open_comp], data, _fast_cfg(k0=2), assume_ordered=True)
        descs = [c.description for c in report.steps[0].candidates]
        assert len(descs) == 4
        assert all("fW^o" in d for d in descs)

    def test_superset_of_chain_search(self, task):
        data, comps = task
        cfg = _fast_cfg()
        chain = cn.dbcn(comps, data, cfg)
        full = cn.exhaustive(comps, data, cfg, schedule="chain")
        assert full.final_train_loss <= chain.final_train_loss + 1e-9

    def test_first_merge_dominates_chain_step(self, task):
        """The frozen/frozen candidates of the first merge coincide with
        the chain's first step (same derived seeds), so the exhaustive
        winner there can only be at least as good."""
        data, comps = task
        cfg = _fast_cfg()
        chain = cn.dbcn(comps[:3], data, cfg)
        full = cn.exhaustive(comps[:3], data, cfg, schedule="chain")
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

    def test_schedule_must_cover_pool(self, task):
        data, comps = task
        # a missing leaf, a duplicate leaf, an out-of-range leaf, a leaf
        # that is not an index, a node with a third subtree
        for schedule in [(0, 1), ((0, 1), 1), ((0, 1), 3), ("a", 1), ((0, 1), 2, 0)]:
            with pytest.raises(cn.ConstructionError, match="schedule"):
                cn.exhaustive(comps[:3], data, _fast_cfg(), schedule=schedule)


class TestCandidateGuard:
    @pytest.mark.parametrize(
        "build", [cn.dbcn, cn.bbcn, cn.exhaustive], ids=["dbcn", "bbcn", "exhaustive"]
    )
    def test_candidate_guard(self, task, monkeypatch, build):
        data, _ = task
        rng = np.random.default_rng(0)
        many = [cn.Component.mlp(f"c{i}", [5, 1], rng) for i in range(13)]
        # 12 merges x 342 activations = 4104 candidates with one variant per
        # operand (dbcn, bbcn); exhaustive has four variant pairs per merge
        cfg = _fast_cfg(activations=tuple([cn.LINEAR] * 342))

        class Trained(Exception):
            pass

        def refuse_training(*args, **kwargs):
            raise Trained

        monkeypatch.setattr("compnet.construct.train", refuse_training)
        with pytest.raises(cn.ConstructionError, match="guard"):
            build(many, data, cfg, assume_ordered=True)
        with pytest.raises(Trained):
            build(many, data, cfg, assume_ordered=True, allow_large=True)


class TestSchedules:
    def test_balanced_shape_k0_4(self):
        assert cn.balanced_schedule(6, 4) == ((((0, 1), (2, 3)), 4), 5)

    def test_balanced_shape_k0_5(self):
        assert cn.balanced_schedule(5, 5) == (((0, 1), (2, 3)), 4)

    def test_chain_shape(self):
        assert cn.chain_schedule(4) == (((0, 1), 2), 3)


class TestReportShape:
    def test_report_dict_round(self, task):
        data, comps = task
        report = cn.dbcn(comps[:2], data, _fast_cfg())
        d = report.to_dict()
        assert d["algorithm"] == "dbcn"
        assert d["final"]["trainable"] >= 3
        net = cn.CompositeNetwork.from_dict(d["network"])
        reg = cn.registry(cn.Component.from_dict(c) for c in d["components"])
        assert cn.loss_l2(net, reg, data, "train") == pytest.approx(
            report.final_train_loss, abs=1e-12
        )
