"""Core model: components, composite-network DAGs, evaluation, the loss.

A component is a small feedforward net whose parameter blocks can be
frozen (pre-trained) or trainable (non-instantiated).  A composite
network is a rooted DAG given as a postorder node list; nodes either
reference a component, combine children linearly with a bias weight,
or apply an activation elementwise.

Networks and registries are treated as immutable after construction;
evaluation is read-only.  Training code works on copies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .activations import Activation, LINEAR, TANH

KIND_PRETRAINED = "pre-trained"
KIND_OPEN = "non-instantiated"
ROLE_BASE = "base"
ROLE_AUX = "auxiliary"


class ModelError(ValueError):
    pass


class EvaluationError(ModelError):
    """Evaluation failure, tagged with the offending node id."""

    def __init__(self, message: str, node_id: str | None = None):
        super().__init__(message if node_id is None else f"node {node_id!r}: {message}")
        self.node_id = node_id


@dataclass
class AffineLayer:
    """One dense layer: x @ weights + bias, then the activation."""

    weights: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)
    activation: Activation = LINEAR

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[1],):
            raise ModelError("layer weights must be (fan_in, fan_out) with matching bias")

    @property
    def size(self) -> int:
        return self.weights.size + self.bias.size

    def copy(self) -> "AffineLayer":
        return AffineLayer(self.weights.copy(), self.bias.copy(), self.activation)


class Component:
    """A neural-network unit with a role, a kind, and per-block frozen flags.

    ``input_columns`` selects which feature columns of the shared input
    row the component consumes; None means all columns.
    """

    def __init__(
        self,
        id: str,
        kind: str,
        role: str,
        layers: list[AffineLayer],
        frozen: list[bool] | None = None,
        input_columns: np.ndarray | None = None,
    ):
        if kind not in (KIND_PRETRAINED, KIND_OPEN):
            raise ModelError(f"unknown component kind {kind!r}")
        if role not in (ROLE_BASE, ROLE_AUX):
            raise ModelError(f"unknown component role {role!r}")
        if not layers:
            raise ModelError("component needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.weights.shape[1] != b.weights.shape[0]:
                raise ModelError(f"component {id!r}: layer widths do not chain")
        if frozen is None:
            frozen = [kind == KIND_PRETRAINED] * len(layers)
        if len(frozen) != len(layers):
            raise ModelError("one frozen flag per layer block required")
        if kind == KIND_PRETRAINED and not all(frozen):
            raise ModelError(f"pre-trained component {id!r} must have every block frozen")
        if kind == KIND_OPEN and all(frozen):
            raise ModelError(f"non-instantiated component {id!r} needs a trainable block")
        self.id = id
        self.kind = kind
        self.role = role
        self.layers = layers
        self.frozen = list(frozen)
        self.input_columns = None if input_columns is None else np.asarray(input_columns, dtype=int)

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[0]

    def select_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise EvaluationError(f"component {self.id!r}: input must be 2-D (rows, features)")
        sel = x if self.input_columns is None else x[:, self.input_columns]
        if sel.shape[1] != self.input_dim:
            raise EvaluationError(
                f"component {self.id!r}: got {sel.shape[1]} input columns, expected {self.input_dim}"
            )
        return sel

    def forward(self, x: np.ndarray, trace: list | None = None) -> np.ndarray:
        """Forward pass; ``trace`` (optional, output) receives one
        (input, pre-activation) pair per layer, for backprop."""
        h = self.select_input(x)
        for layer in self.layers:
            pre = h @ layer.weights + layer.bias
            if trace is not None:
                trace.append((h, pre))
            h = layer.activation.value(pre)
        return h

    def parameter_count(self) -> int:
        return sum(layer.size for layer in self.layers)

    def copy(self) -> "Component":
        return Component(
            self.id,
            self.kind,
            self.role,
            [layer.copy() for layer in self.layers],
            list(self.frozen),
            None if self.input_columns is None else self.input_columns.copy(),
        )

    def opened_copy(self) -> "Component":
        """Copy with every block trainable (same id, same weights)."""
        out = self.copy()
        out.kind = KIND_OPEN
        out.frozen = [False] * len(out.layers)
        return out

    @classmethod
    def mlp(
        cls,
        id: str,
        dims: list[int],
        rng: np.random.Generator,
        kind: str = KIND_PRETRAINED,
        role: str = ROLE_BASE,
        output_activation: Activation = LINEAR,
        input_columns=None,
    ) -> "Component":
        """Fresh MLP with uniform(-a, a), a = sqrt(6/(fan_in+fan_out)) blocks
        and tanh hidden layers."""
        layers = []
        for i, (fi, fo) in enumerate(zip(dims, dims[1:])):
            a = np.sqrt(6.0 / (fi + fo))
            act = output_activation if i == len(dims) - 2 else TANH
            layers.append(AffineLayer(rng.uniform(-a, a, size=(fi, fo)), np.zeros(fo), act))
        return cls(id, kind, role, layers, input_columns=input_columns)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "role": self.role,
            "frozen": [bool(f) for f in self.frozen],
            "input_columns": None
            if self.input_columns is None
            else [int(c) for c in self.input_columns],
            "layers": [
                {
                    "weights": [float(v) for v in layer.weights.ravel()],
                    "shape": [int(s) for s in layer.weights.shape],
                    "bias": [float(v) for v in layer.bias],
                    "activation": layer.activation.to_dict(),
                }
                for layer in self.layers
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Component":
        layers = []
        for i, ld in enumerate(d["layers"]):
            w = _finite_numbers(ld["weights"], d["id"], f"layers[{i}].weights")
            b = _finite_numbers(ld["bias"], d["id"], f"layers[{i}].bias")
            layers.append(AffineLayer(w.reshape(ld["shape"]), b, Activation.from_dict(ld["activation"])))
        cols = d.get("input_columns")
        return cls(d["id"], d["kind"], d["role"], layers, d["frozen"], cols)


def _finite_numbers(value, cid, where: str) -> np.ndarray:
    """A JSON array of numbers as floats; ``ModelError`` naming component
    ``cid`` and the field ``where`` when it holds a ``null``, a string,
    a boolean, a non-finite number or ragged rows."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged rows
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ModelError(f"component {cid!r}: {where} must hold finite numbers only")
    return arr.astype(float)


# -- composite network nodes ---------------------------------------------


@dataclass
class ComponentRef:
    id: str
    component: str


@dataclass
class Combine:
    """theta[0] + sum_j theta[j+1] * child_j, broadcast per coordinate."""

    id: str
    children: list[str]
    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.shape != (len(self.children) + 1,):
            raise ModelError(
                f"combine {self.id!r}: theta must have length children+1 "
                f"(got {self.theta.shape[0]} for {len(self.children)} children)"
            )


@dataclass
class Activate:
    id: str
    child: str
    activation: Activation


Node = ComponentRef | Combine | Activate


class CompositeNetwork:
    """Rooted DAG in postorder: every child appears before its parent."""

    def __init__(self, nodes: list[Node], root: str):
        ids = [n.id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ModelError("duplicate node ids")
        seen: set[str] = set()
        for n in nodes:
            for c in _children_of(n):
                if c not in seen:
                    raise ModelError(f"node {n.id!r} references {c!r} before it is defined")
            seen.add(n.id)
        if root not in seen:
            raise ModelError(f"root {root!r} is not a node")
        self.nodes = nodes
        self.root = root
        self._by_id = {n.id: n for n in nodes}

    def node(self, node_id: str) -> Node:
        return self._by_id[node_id]

    def combine_nodes(self) -> list[Combine]:
        return [n for n in self.nodes if isinstance(n, Combine)]

    def ref_nodes(self) -> list[ComponentRef]:
        return [n for n in self.nodes if isinstance(n, ComponentRef)]

    def copy(self) -> "CompositeNetwork":
        nodes: list[Node] = []
        for n in self.nodes:
            if isinstance(n, ComponentRef):
                nodes.append(ComponentRef(n.id, n.component))
            elif isinstance(n, Combine):
                nodes.append(Combine(n.id, list(n.children), n.theta.copy()))
            else:
                nodes.append(Activate(n.id, n.child, n.activation))
        return CompositeNetwork(nodes, self.root)

    def to_dict(self) -> dict:
        out = []
        for n in self.nodes:
            if isinstance(n, ComponentRef):
                out.append({"id": n.id, "type": "component", "component": n.component})
            elif isinstance(n, Combine):
                out.append(
                    {
                        "id": n.id,
                        "type": "combine",
                        "children": list(n.children),
                        "theta": [float(t) for t in n.theta],
                    }
                )
            else:
                out.append(
                    {
                        "id": n.id,
                        "type": "activate",
                        "child": n.child,
                        "activation": n.activation.to_dict(),
                    }
                )
        return {"nodes": out, "root": self.root}

    @classmethod
    def from_dict(cls, d: dict) -> "CompositeNetwork":
        nodes: list[Node] = []
        for nd in d["nodes"]:
            if nd["type"] == "component":
                nodes.append(ComponentRef(nd["id"], nd["component"]))
            elif nd["type"] == "combine":
                nodes.append(Combine(nd["id"], list(nd["children"]), np.asarray(nd["theta"], dtype=float)))
            elif nd["type"] == "activate":
                nodes.append(Activate(nd["id"], nd["child"], Activation.from_dict(nd["activation"])))
            else:
                raise ModelError(f"unknown node type {nd['type']!r}")
        return cls(nodes, d["root"])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CompositeNetwork":
        return cls.from_dict(json.loads(text))


def _children_of(node: Node) -> list[str]:
    if isinstance(node, ComponentRef):
        return []
    if isinstance(node, Combine):
        return list(node.children)
    return [node.child]


def single_component_network(component_id: str) -> CompositeNetwork:
    rid = f"ref:{component_id}"
    return CompositeNetwork([ComponentRef(rid, component_id)], rid)


# -- evaluation ------------------------------------------------------------


def node_values(
    net: CompositeNetwork,
    components: dict[str, Component],
    inputs: np.ndarray,
    traces: dict[str, list] | None = None,
    known: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Value of every node the root needs on every input row, children
    before parents: the walk down from the root stops at the nodes that
    ``known`` (optional) names, whose given values are returned as they
    are, so nothing below them and nothing the root does not reach is
    computed.  ``traces`` (optional, output) maps each computed
    component-reference node id to its per-layer trace (see
    ``Component.forward``).

    A numpy ``FloatingPointError`` (raised when the caller runs this under
    ``np.errstate(..., "raise")``) becomes an ``EvaluationError`` naming the
    first non-finite node so far, or else the node being computed.
    """
    inputs = np.asarray(inputs, dtype=float)
    known = known or {}
    needed, order = {net.root}, []
    for node in reversed(net.nodes):
        if node.id in needed:
            order.append(node)
            if node.id not in known and not isinstance(node, ComponentRef):
                needed.update(node.children if isinstance(node, Combine) else (node.child,))
    values: dict[str, np.ndarray] = {}
    for node in reversed(order):
        if node.id in known:
            values[node.id] = known[node.id]
            continue
        try:
            if isinstance(node, ComponentRef):
                comp = components.get(node.component)
                if comp is None:
                    raise EvaluationError(f"unresolved component {node.component!r}", node.id)
                trace = None if traces is None else traces.setdefault(node.id, [])
                v = comp.forward(inputs, trace)
            elif isinstance(node, Combine):
                v = np.full((inputs.shape[0], 1), node.theta[0])
                for w, child in zip(node.theta[1:], node.children):
                    try:
                        v = v + w * values[child]
                    except ValueError as exc:
                        raise EvaluationError(f"child widths do not broadcast: {exc}", node.id)
            else:
                v = node.activation.value(values[node.child])
        except FloatingPointError:
            bad = next((k for k, u in values.items() if not np.all(np.isfinite(u))), node.id)
            raise EvaluationError("non-finite value produced", bad) from None
        values[node.id] = v
    return values


def evaluate(
    net: CompositeNetwork,
    components: dict[str, Component],
    inputs: np.ndarray,
) -> np.ndarray:
    """Evaluate the root node on every input row.

    Every node the root reaches is computed and checked, not just the
    root, so a non-finite value that a saturating activation hides is
    still reported at the node that made it.  numpy overflow and invalid
    operations end in that error too, not in a printed warning.  Only
    computed nodes are checked (see ``node_values``).
    """
    return _checked_values(net, components, inputs, {})[net.root]


def _checked_values(
    net: CompositeNetwork,
    components: dict[str, Component],
    inputs: np.ndarray,
    known: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """``node_values`` with ``evaluate``'s checks on the nodes it computed."""
    with np.errstate(over="raise", invalid="raise"):
        values = node_values(net, components, inputs, known=known)
    for nid, v in values.items():
        if nid not in known and not np.all(np.isfinite(v)):
            raise EvaluationError("non-finite value produced", nid)
    return values


@dataclass
class Dataset:
    """N input rows with N label rows, partitioned into train/test."""

    inputs: np.ndarray  # (N, d)
    labels: np.ndarray  # (N, m)
    train_idx: np.ndarray
    test_idx: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        self.labels = np.asarray(self.labels, dtype=float)
        if self.labels.ndim == 1:
            self.labels = self.labels[:, None]
        self.train_idx = np.asarray(self.train_idx, dtype=int)
        self.test_idx = np.asarray(self.test_idx, dtype=int)
        n = self.inputs.shape[0]
        if n < 1 or self.labels.shape[0] != n:
            raise ModelError("inputs and labels must share N >= 1 rows")
        if not (np.all(np.isfinite(self.inputs)) and np.all(np.isfinite(self.labels))):
            raise ModelError("dataset contains non-finite entries")
        both = np.concatenate([self.train_idx, self.test_idx])
        if len(set(both.tolist())) != both.size or sorted(both.tolist()) != list(range(n)):
            raise ModelError("train/test split must be disjoint and cover all rows")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    def split_indices(self, split: str) -> np.ndarray:
        if split == "train":
            return self.train_idx
        if split == "test":
            return self.test_idx
        raise ModelError(f"unknown split {split!r}")


def loss_l2(
    net: CompositeNetwork,
    components: dict[str, Component],
    data: Dataset,
    split: str = "train",
) -> float:
    """Mean of the squared residual norm over the chosen split.

    The reported RMSE is the square root of this value.
    """
    idx = data.split_indices(split)
    if idx.size == 0:
        raise ModelError(f"split {split!r} is empty")
    pred = evaluate(net, components, data.inputs[idx])
    return residual_loss(pred, data.labels[idx])


def residual_loss(pred: np.ndarray, labels: np.ndarray) -> float:
    """Mean over rows of the squared residual norm: the package's one scalar
    loss.  A residual too large to square gives inf, and zero rows give
    nan, both with no warning."""
    pred = np.asarray(pred, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if labels.ndim == 1:
        labels = labels[:, None]
    if pred.ndim == 1:
        pred = pred[:, None]
    if pred.shape[0] != labels.shape[0]:
        raise ModelError("prediction/label row mismatch")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = pred - labels
        return float(np.sum(diff * diff) / labels.shape[0])


def registry(components) -> dict[str, Component]:
    """Build an id-keyed registry from an iterable of components."""
    out: dict[str, Component] = {}
    for comp in components:
        if comp.id in out:
            raise ModelError(f"duplicate component id {comp.id!r}")
        out[comp.id] = comp
    return out
