"""Core model: evaluation, loss, parameter counting, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import compnet as cn


def _scalar_comp(cid, weight, bias, rng=None, role=cn.ROLE_BASE):
    layer = cn.AffineLayer(np.array([[weight]]), np.array([bias]), cn.LINEAR)
    return cn.Component(cid, cn.KIND_PRETRAINED, role, [layer])


@pytest.fixture
def trio(rng):
    f1 = cn.Component.mlp("f1", [4, 3, 1], rng)
    f2 = cn.Component.mlp("f2", [4, 1], rng)
    fw = cn.Component.mlp("fw", [4, 3, 1], rng, kind=cn.KIND_OPEN)
    return cn.registry([f1, f2, fw])


class TestComponent:
    def test_pretrained_must_be_fully_frozen(self, rng):
        layer = cn.AffineLayer(rng.normal(size=(2, 1)), np.zeros(1), cn.LINEAR)
        with pytest.raises(cn.ModelError):
            cn.Component("bad", cn.KIND_PRETRAINED, cn.ROLE_BASE, [layer], frozen=[False])

    def test_open_needs_a_trainable_block(self, rng):
        layer = cn.AffineLayer(rng.normal(size=(2, 1)), np.zeros(1), cn.LINEAR)
        with pytest.raises(cn.ModelError):
            cn.Component("bad", cn.KIND_OPEN, cn.ROLE_BASE, [layer], frozen=[True])

    def test_wrong_input_width_rejected(self, trio):
        with pytest.raises(cn.EvaluationError):
            trio["f1"].forward(np.zeros((3, 5)))

    def test_hand_counted_mlp_parameters(self, rng):
        # d=4, hidden 3, out 1: 4*3 + 3 + 3*1 + 1 = 19
        comp = cn.Component.mlp("c", [4, 3, 1], rng)
        assert comp.parameter_count() == 19
        assert comp.trainable_parameter_count() == 0

    def test_trace_keeps_bits_and_records_every_layer(self, trio, rng):
        comp = trio["f1"]
        x = rng.normal(size=(6, 4))
        trace = []
        out = comp.forward(x, trace)
        np.testing.assert_array_equal(out, comp.forward(x))
        assert len(trace) == len(comp.layers)
        h = x
        for (xin, pre), layer in zip(trace, comp.layers):
            np.testing.assert_array_equal(xin, h)
            np.testing.assert_array_equal(pre, h @ layer.weights + layer.bias)
            h = layer.activation.value(pre)

    def test_input_columns_mask(self, rng):
        comp = cn.Component.mlp("c", [2, 1], rng, input_columns=[3, 1])
        x = rng.normal(size=(6, 5))
        expected = x[:, [3, 1]] @ comp.layers[0].weights + comp.layers[0].bias
        np.testing.assert_allclose(comp.forward(x), expected)


class TestEvaluate:
    def test_identity_combination(self, trio, rng):
        net = cn.CompositeNetwork(
            [cn.ComponentRef("r", "f1"), cn.Combine("c", ["r"], np.array([0.0, 1.0]))], "c"
        )
        x = rng.normal(size=(7, 4))
        np.testing.assert_array_equal(
            cn.evaluate(net, trio, x), trio["f1"].forward(x)
        )

    def test_bias_only_combine(self, trio, rng):
        net = cn.CompositeNetwork([cn.Combine("c", [], np.array([2.5]))], "c")
        out = cn.evaluate(net, trio, rng.normal(size=(4, 4)))
        np.testing.assert_array_equal(out, np.full((4, 1), 2.5))

    def test_two_affine_sandwich_oracle(self, trio, rng):
        """sigma2(t10 + t11*f2 + t12*sigma1(t00 + t01*f1 + t02*fw + t03*f2))
        against direct scalar arithmetic on random inputs."""
        t0 = np.array([0.2, 0.7, -1.1, 0.4])
        t1 = np.array([-0.3, 1.3, 0.8])
        nodes = [
            cn.ComponentRef("a", "f1"),
            cn.ComponentRef("b", "fw"),
            cn.ComponentRef("c", "f2"),
            cn.Combine("L0", ["a", "b", "c"], t0),
            cn.Activate("s1", "L0", cn.LOGISTIC),
            cn.Combine("L1", ["c", "s1"], t1),
            cn.Activate("s2", "L1", cn.TANH),
        ]
        net = cn.CompositeNetwork(nodes, "s2")
        x = rng.normal(size=(5, 4))
        got = cn.evaluate(net, trio, x)
        for i in range(5):
            v1 = trio["f1"].forward(x[i : i + 1])[0, 0]
            vw = trio["fw"].forward(x[i : i + 1])[0, 0]
            v2 = trio["f2"].forward(x[i : i + 1])[0, 0]
            inner = 1.0 / (1.0 + np.exp(-(t0[0] + t0[1] * v1 + t0[2] * vw + t0[3] * v2)))
            expected = np.tanh(t1[0] + t1[1] * v2 + t1[2] * inner)
            assert got[i, 0] == pytest.approx(expected, abs=1e-12)

    def test_unresolved_reference(self, trio, rng):
        net = cn.CompositeNetwork([cn.ComponentRef("r", "ghost")], "r")
        with pytest.raises(cn.EvaluationError, match="ghost"):
            cn.evaluate(net, trio, rng.normal(size=(2, 4)))

    def test_nonfinite_reported_with_node_id(self):
        ident = cn.Component(
            "ident",
            cn.KIND_PRETRAINED,
            cn.ROLE_BASE,
            [cn.AffineLayer(np.array([[1.0]]), np.zeros(1), cn.LINEAR)],
        )
        nodes = [
            cn.ComponentRef("r", "ident"),
            cn.Combine("boom", ["r", "r"], np.array([0.0, 1e308, 1e308])),
        ]
        net = cn.CompositeNetwork(nodes, "boom")
        with pytest.raises(cn.EvaluationError) as err:
            cn.evaluate(net, {"ident": ident}, np.array([[2.0]]))
        assert err.value.node_id == "boom"

    def test_nonfinite_masked_by_saturating_root_still_reported(self):
        ident = cn.Component(
            "ident",
            cn.KIND_PRETRAINED,
            cn.ROLE_BASE,
            [cn.AffineLayer(np.array([[1.0]]), np.zeros(1), cn.LINEAR)],
        )
        nodes = [
            cn.ComponentRef("r", "ident"),
            cn.Combine("boom", ["r", "r"], np.array([0.0, 1e308, 1e308])),
            cn.Activate("squash", "boom", cn.TANH),
        ]
        net = cn.CompositeNetwork(nodes, "squash")
        x = np.array([[2.0]])
        with np.errstate(over="ignore"):  # node_values itself leaves overflow to numpy
            assert np.all(np.isfinite(cn.node_values(net, {"ident": ident}, x)["squash"]))
        with pytest.raises(cn.EvaluationError) as err:
            cn.evaluate(net, {"ident": ident}, x)
        assert err.value.node_id == "boom"

    def test_nonfinite_input_reported_where_it_first_appears(self):
        ident = cn.Component(
            "ident",
            cn.KIND_PRETRAINED,
            cn.ROLE_BASE,
            [cn.AffineLayer(np.array([[1.0]]), np.zeros(1), cn.LINEAR)],
        )
        # r is inf without a floating-point exception; inf - inf raises at c
        nodes = [
            cn.ComponentRef("r", "ident"),
            cn.Combine("c", ["r", "r"], np.array([0.0, 1.0, -1.0])),
        ]
        with pytest.raises(cn.EvaluationError) as err:
            cn.evaluate(cn.CompositeNetwork(nodes, "c"), {"ident": ident}, np.array([[np.inf]]))
        assert err.value.node_id == "r"

    def test_children_must_be_defined_first(self):
        with pytest.raises(cn.ModelError):
            cn.CompositeNetwork(
                [cn.Combine("c", ["r"], np.array([0.0, 1.0])), cn.ComponentRef("r", "f")], "c"
            )

    def test_deterministic(self, trio, rng):
        net = cn.CompositeNetwork(
            [
                cn.ComponentRef("r", "f1"),
                cn.Combine("c", ["r"], np.array([0.1, -2.0])),
                cn.Activate("s", "c", cn.SL),
            ],
            "s",
        )
        x = rng.normal(size=(10, 4))
        a = cn.evaluate(net, trio, x)
        b = cn.evaluate(net, trio, x)
        np.testing.assert_array_equal(a, b)


class TestUnitVectorProperty:
    @given(j=st.integers(min_value=0, max_value=2), seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_unit_theta_reproduces_child(self, j, seed):
        r = np.random.default_rng(seed)
        comps = cn.registry(
            [cn.Component.mlp(f"f{i}", [3, 1], r, output_activation=cn.TANH) for i in range(3)]
        )
        refs = [cn.ComponentRef(f"r{i}", f"f{i}") for i in range(3)]
        theta = np.zeros(4)
        theta[j + 1] = 1.0
        net = cn.CompositeNetwork(refs + [cn.Combine("c", [f"r{i}" for i in range(3)], theta)], "c")
        x = r.normal(size=(6, 3))
        np.testing.assert_array_equal(
            cn.evaluate(net, comps, x), comps[f"f{j}"].forward(x)
        )


class TestLoss:
    def test_zero_when_prediction_matches(self, rng):
        comp = _scalar_comp("c", 1.0, 0.0)
        net = cn.single_component_network("c")
        x = rng.normal(size=(8, 1))
        data = cn.Dataset(x, x.copy(), np.arange(8))
        assert cn.loss_l2(net, {"c": comp}, data, "train") == 0.0

    def test_single_row_squared_error(self):
        comp = _scalar_comp("c", 0.0, 3.0)  # constant prediction 3
        net = cn.single_component_network("c")
        data = cn.Dataset(np.zeros((1, 1)), np.array([[1.0]]), np.arange(1))
        assert cn.loss_l2(net, {"c": comp}, data, "train") == 4.0

    def test_matches_scalar_loop_oracle(self, rng):
        comp = cn.Component.mlp("c", [3, 4, 2], rng)
        net = cn.single_component_network("c")
        x = rng.normal(size=(10, 3))
        y = rng.normal(size=(10, 2))
        data = cn.Dataset(x, y, np.arange(10))
        pred = comp.forward(x)
        oracle = 0.0
        for i in range(10):
            for q in range(2):
                oracle += (pred[i, q] - y[i, q]) ** 2
        oracle /= 10
        assert cn.loss_l2(net, {"c": comp}, data, "train") == pytest.approx(oracle, abs=1e-12)

    def test_empty_split_rejected(self, rng):
        comp = _scalar_comp("c", 1.0, 0.0)
        data = cn.Dataset(np.zeros((2, 1)), np.zeros((2, 1)), np.arange(2))
        with pytest.raises(cn.ModelError, match="empty"):
            cn.loss_l2(cn.single_component_network("c"), {"c": comp}, data, "test")

    def test_residual_overflow_is_inf_without_warning(self):
        # pytest turns a leaked RuntimeWarning into an error here
        assert cn.residual_loss(np.array([1e200]), np.array([0.0])) == np.inf


class TestCountParameters:
    def test_combine_over_two_scalar_components(self, rng):
        f1 = cn.Component.mlp("f1", [4, 3, 1], rng)
        f2 = cn.Component.mlp("f2", [4, 2, 1], rng)
        comps = cn.registry([f1, f2])
        net = cn.CompositeNetwork(
            [
                cn.ComponentRef("a", "f1"),
                cn.ComponentRef("b", "f2"),
                cn.Combine("c", ["a", "b"], np.zeros(3)),
            ],
            "c",
        )
        counts = cn.count_parameters(net, comps)
        assert counts["trainable"] == 3
        assert counts["total"] == 3 + f1.parameter_count() + f2.parameter_count()

    def test_shared_component_counted_once(self, rng):
        f1 = cn.Component.mlp("f1", [4, 3, 1], rng)
        comps = cn.registry([f1])
        net = cn.CompositeNetwork(
            [
                cn.ComponentRef("a", "f1"),
                cn.ComponentRef("b", "f1"),
                cn.Combine("c", ["a", "b"], np.zeros(3)),
            ],
            "c",
        )
        assert cn.count_parameters(net, comps)["total"] == 3 + f1.parameter_count()

    def test_deep_chain_small_trainable_vs_large_total(self, rng):
        """Chain of depth 5 over wide components: combine weights stay a
        few dozen while the frozen bulk dominates the total."""
        comps, nodes, prev = {}, [], None
        for i in range(5):
            comp = cn.Component.mlp(f"f{i}", [10, 40, 18], rng)
            comps[comp.id] = comp
            ref = cn.ComponentRef(f"r{i}", comp.id)
            nodes.append(ref)
            if prev is None:
                prev = ref.id
            else:
                mix = cn.Combine(f"m{i}", [prev, ref.id], np.zeros(3))
                nodes.append(mix)
                prev = mix.id
        net = cn.CompositeNetwork(nodes, prev)
        counts = cn.count_parameters(net, cn.registry(comps.values()))
        assert counts["trainable"] == 4 * 3
        frozen = sum(c.parameter_count() for c in comps.values())
        assert counts["total"] == counts["trainable"] + frozen
        assert counts["total"] > 100 * counts["trainable"]

    def test_purely_linear_chain_theta_count(self, rng):
        comps = [cn.Component.mlp(f"f{i}", [2, 1], rng) for i in range(4)]
        refs = [cn.ComponentRef(f"r{i}", c.id) for i, c in enumerate(comps)]
        mix = cn.Combine("mix", [r.id for r in refs], np.zeros(5))
        net = cn.CompositeNetwork(refs + [mix], "mix")
        counts = cn.count_parameters(net, cn.registry(comps))
        assert counts["trainable"] == len(comps) + 1


class TestSerialization:
    def test_postorder_roundtrip_evaluates_identically(self, trio, rng):
        nodes = [
            cn.ComponentRef("a", "f1"),
            cn.ComponentRef("b", "f2"),
            cn.Combine("c", ["a", "b"], np.array([0.5, 1.5, -0.25])),
            cn.Activate("s", "c", cn.SL),
        ]
        net = cn.CompositeNetwork(nodes, "s")
        clone = cn.CompositeNetwork.from_json(net.to_json())
        x = rng.normal(size=(9, 4))
        np.testing.assert_array_equal(
            cn.evaluate(net, trio, x), cn.evaluate(clone, trio, x)
        )
        assert clone.to_json() == net.to_json()

    def test_component_roundtrip_bit_identical(self, rng):
        comp = cn.Component.mlp("c", [3, 5, 2], rng, kind=cn.KIND_OPEN, role=cn.ROLE_AUX)
        comp.frozen = [True, False]
        clone = cn.Component.from_dict(comp.to_dict())
        assert clone.kind == comp.kind and clone.role == comp.role
        assert clone.frozen == comp.frozen
        for a, b in zip(comp.layers, clone.layers):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.bias, b.bias)
            assert a.activation == b.activation


class TestDataset:
    def test_split_must_cover(self):
        with pytest.raises(cn.ModelError):
            cn.Dataset(np.zeros((3, 1)), np.zeros((3, 1)), np.array([0, 1]), np.array([1, 2]))

    def test_nonfinite_rejected(self):
        with pytest.raises(cn.ModelError):
            cn.Dataset(np.array([[np.nan]]), np.zeros((1, 1)), np.arange(1))
