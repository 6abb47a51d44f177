"""Stochastic-gradient training of composite networks.

Only combine weights and unfrozen component blocks move; frozen blocks
are never touched.  What trains is a ``ParamLayout``: every training
function takes one.  ``parameter_layout(..., trainable_nodes)`` narrows
it to an explicit set of node ids, which is how the construction
algorithms train just the newly added step of a growing network.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import (
    Activate,
    Combine,
    Component,
    ComponentRef,
    CompositeNetwork,
    Dataset,
    EvaluationError,
    _children_of,
    _checked_values,
    node_values,
    residual_loss,
)


class TrainingError(RuntimeError):
    pass


class GradientError(RuntimeError):
    pass


class NonFiniteGradientError(GradientError):
    pass


MOMENTUM = 0.9


@dataclass
class TrainConfig:
    """SGD with momentum ``MOMENTUM`` and a cosine-decayed learning rate."""

    learning_rate: float = 1e-2
    batch_size: int = 32
    max_epochs: int = 500
    seed: int = 0
    early_stop_patience: int = 50

    def __post_init__(self):
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError("learning_rate must be finite and non-negative")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be positive")
        if self.early_stop_patience < 0:
            raise ValueError("early_stop_patience must not be negative; 0 turns early stopping off")

    def lr_at(self, epoch: int) -> float:
        return 0.5 * self.learning_rate * (1.0 + np.cos(np.pi * epoch / self.max_epochs))


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    test_loss: float


@dataclass
class TrainResult:
    net: CompositeNetwork
    components: dict[str, Component]
    history: list[EpochStats]
    best: int  # the history row whose parameters ``net`` and ``components`` carry
    outputs: list[np.ndarray]  # the root's output at row ``best``, per split


# -- parameter layout ------------------------------------------------------


@dataclass
class ParamLayout:
    """Where each trained parameter sits in the flat vector, and which
    nodes the parameters move.  Everything here is worked out once, by
    ``parameter_layout``; ``gradients`` only reads it."""

    combines: dict[str, tuple[int, int]]  # combine id -> (start, stop) in the flat vector
    blocks: dict[tuple[str, int], tuple[int, int]]  # (component id, layer index) -> (start, stop)
    size: int
    total: int  # every parameter the network holds, trained or not; shared components once
    opened: dict[str, int]  # component id -> its lowest layer with a block here
    live: tuple[str, ...]  # nodes a parameter here moves, in postorder
    frozen: frozenset[str]  # every other node
    read: frozenset[str]  # frozen nodes that live nodes read, and the root if frozen


def parameter_layout(
    net: CompositeNetwork,
    components: dict[str, Component],
    trainable_nodes: set[str] | None = None,
) -> ParamLayout:
    combine_ids: list[str] = []
    block_keys: list[tuple[str, int]] = []
    counted: set[str] = set()  # components in ``total``
    opened_components: set[str] = set()  # components with blocks in ``block_keys``
    total = 0
    for node in net.nodes:
        if isinstance(node, Combine):
            total += node.theta.size
            if trainable_nodes is None or node.id in trainable_nodes:
                combine_ids.append(node.id)
        elif isinstance(node, ComponentRef):
            comp = components.get(node.component)
            if comp is None:
                raise EvaluationError(f"unresolved component {node.component!r}", node.id)
            if node.component not in counted:
                counted.add(node.component)
                total += comp.parameter_count()
            if trainable_nodes is not None and node.id not in trainable_nodes:
                continue
            if node.component in opened_components:
                continue
            opened_components.add(node.component)
            for li, frz in enumerate(comp.frozen):
                if not frz:
                    block_keys.append((node.component, li))
    combines: dict[str, tuple[int, int]] = {}
    blocks: dict[tuple[str, int], tuple[int, int]] = {}
    offset = 0
    for cid in combine_ids:
        n = net.node(cid).theta.size
        combines[cid] = (offset, offset + n)
        offset += n
    for comp_id, li in block_keys:
        n = components[comp_id].layers[li].size
        blocks[comp_id, li] = (offset, offset + n)
        offset += n
    opened: dict[str, int] = {}
    for comp_id, li in blocks:
        opened.setdefault(comp_id, li)
    # a node is live when a parameter here moves its value: an opened
    # component, a trained combine, or any node above a live one
    live: dict[str, None] = {}
    for node in net.nodes:
        if isinstance(node, ComponentRef):
            is_live = node.component in opened
        elif isinstance(node, Combine):
            is_live = node.id in combines or any(c in live for c in node.children)
        else:
            is_live = node.child in live
        if is_live:
            live[node.id] = None
    frozen = frozenset(node.id for node in net.nodes if node.id not in live)
    read = {c for node in net.nodes if node.id in live for c in _children_of(node)}
    return ParamLayout(
        combines, blocks, offset, total, opened, tuple(live), frozen, frozen & (read | {net.root})
    )


def get_parameters(net, components, layout: ParamLayout) -> np.ndarray:
    out = np.empty(layout.size)
    for cid, (start, stop) in layout.combines.items():
        out[start:stop] = net.node(cid).theta
    for (comp_id, li), (start, stop) in layout.blocks.items():
        layer = components[comp_id].layers[li]
        out[start:stop] = np.concatenate([layer.weights.ravel(), layer.bias])
    return out


def set_parameters(net, components, layout: ParamLayout, flat: np.ndarray) -> None:
    flat = np.asarray(flat, dtype=float)
    if flat.shape != (layout.size,):
        raise GradientError(f"expected flat vector of size {layout.size}")
    for cid, (start, stop) in layout.combines.items():
        net.node(cid).theta[:] = flat[start:stop]
    for (comp_id, li), (start, stop) in layout.blocks.items():
        layer = components[comp_id].layers[li]
        mid = start + layer.weights.size  # weights, then bias
        layer.weights[...] = flat[start:mid].reshape(layer.weights.shape)
        layer.bias[...] = flat[mid:stop]


def _bind(net, components, layout: ParamLayout, flat: np.ndarray) -> None:
    """Make every array that ``layout`` covers a view into ``flat``, so a
    step taken on ``flat`` moves the network with no copy."""
    for cid, (start, stop) in layout.combines.items():
        net.node(cid).theta = flat[start:stop]
    for (comp_id, li), (start, stop) in layout.blocks.items():
        layer = components[comp_id].layers[li]
        mid = start + layer.weights.size  # weights, then bias
        layer.weights = flat[start:mid].reshape(layer.weights.shape)
        layer.bias = flat[mid:stop]


def gradients(
    net: CompositeNetwork,
    components: dict[str, Component],
    inputs: np.ndarray,
    labels: np.ndarray,
    layout: ParamLayout | None = None,
    known: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Exact gradient of the batch mean squared error, flattened.

    The flat order matches ``parameter_layout``: combine thetas in
    postorder, then unfrozen component blocks in first-reference order.
    ``known`` (optional) gives the batch's values of nodes that no
    parameter in the layout moves; as in ``node_values``, nothing below
    them is computed, and the backward pass stops at them.  Only the
    layout's live nodes carry adjoints, as no parameter sits below a
    frozen node.
    """
    if layout is None:
        layout = parameter_layout(net, components)
    inputs = np.asarray(inputs, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if labels.ndim == 1:
        labels = labels[:, None]
    batch = inputs.shape[0]
    if batch == 0:
        raise GradientError("empty batch")

    traces: dict[str, list] = {}
    values = node_values(net, components, inputs, traces, known)
    pred = values[net.root]
    if pred.shape not in (labels.shape, (labels.shape[0], 1)):
        raise GradientError(f"prediction shape {pred.shape} != label shape {labels.shape}")

    flat = np.zeros(layout.size)
    root = 2.0 * (pred - labels) / batch
    if root.shape != pred.shape:  # a width-1 root broadcast to the labels, as in the loss
        root = root.sum(axis=1, keepdims=True)
    adjoint: dict[str, np.ndarray] = {net.root: root}

    for nid in reversed(layout.live):
        node = net.node(nid)
        a = adjoint.get(node.id)
        if a is None:
            continue
        if isinstance(node, Combine):
            span = layout.combines.get(node.id)
            if span is not None:
                g = flat[span[0] : span[1]]
                g[0] += a.sum()
                for j, child in enumerate(node.children):
                    g[j + 1] += float((a * values[child]).sum())
            for w, child in zip(node.theta[1:], node.children):
                if child in layout.frozen:
                    continue
                ca = w * a
                cw = values[child].shape[1]
                if cw != ca.shape[1]:
                    ca = ca.sum(axis=1, keepdims=True)
                _accumulate(adjoint, child, ca)
        elif isinstance(node, Activate):
            da = node.activation.backprop(a, values[node.child], values[node.id])
            _accumulate(adjoint, node.child, da)
        else:  # an opened ComponentRef
            layers = components[node.component].layers
            trace = traces[node.id]
            d, out = a, values[node.id]
            lowest = layout.opened[node.component]  # nothing below it trains
            for li in range(len(layers) - 1, lowest - 1, -1):
                layer = layers[li]
                xin, pre = trace[li]
                dpre = layer.activation.backprop(d, pre, out)
                span = layout.blocks.get((node.component, li))
                if span is not None:
                    start, stop = span
                    mid = start + layer.weights.size
                    flat[start:mid] += (xin.T @ dpre).ravel()
                    flat[mid:stop] += dpre.sum(axis=0)
                if li > lowest:
                    d, out = dpre @ layer.weights.T, xin

    if not np.all(np.isfinite(flat)):
        spans = [(f"combine {cid}.theta", *span) for cid, span in layout.combines.items()]
        spans += [(f"component {c} layer {li}", *span) for (c, li), span in layout.blocks.items()]
        bad = [name for name, i, j in spans if not np.all(np.isfinite(flat[i:j]))]
        raise NonFiniteGradientError(f"non-finite gradient entries at: {', '.join(bad)}")
    return flat


def _accumulate(adjoint: dict, key: str, value: np.ndarray) -> None:
    if key in adjoint:
        adjoint[key] = adjoint[key] + value
    else:
        adjoint[key] = value


# -- training loop ---------------------------------------------------------


@dataclass
class Split:
    """One dataset split: its rows, and given values of some nodes, which
    ``node_values`` does not recompute.  Inside ``train`` these are the
    frozen nodes that live nodes read, computed and checked once."""

    inputs: np.ndarray
    labels: np.ndarray
    known: dict[str, np.ndarray]

    def only(self, values: dict[str, np.ndarray], nodes) -> Split:
        """This split, knowing the ``values`` of those ``nodes`` they hold."""
        return replace(self, known={k: values[k] for k in nodes if k in values})


def data_splits(data: Dataset, known: list[dict[str, np.ndarray]]) -> list[Split]:
    """The train and test splits of ``data``, knowing ``known``."""
    pairs = zip((data.train_idx, data.test_idx), known)
    return [Split(data.inputs[i], data.labels[i], k) for i, k in pairs]


def split_values(
    net: CompositeNetwork, components: dict[str, Component], split: Split
) -> dict[str, np.ndarray]:
    """``evaluate``'s node values on ``split``, given its ``known``.  An
    empty split computes nothing: its root's value is a (0, label width)
    array, and its loss is nan."""
    if split.labels.shape[0] == 0:
        return {net.root: np.empty(split.labels.shape)}
    return _checked_values(net, components, split.inputs, split.known)


def history_row(
    net: CompositeNetwork,
    components: dict[str, Component],
    epoch: int,
    splits: list[Split],
) -> tuple[EpochStats, list[dict[str, np.ndarray]]]:
    """One history row: ``evaluate``'s losses on the train and test splits,
    given each split's ``known``, and the node values behind them
    (``split_values``).  A network that ``evaluate`` rejects, or a train
    loss that is not finite, is a ``TrainingError``."""
    try:
        values = [split_values(net, components, s) for s in splits]
    except EvaluationError as exc:
        raise TrainingError(f"diverged at epoch {epoch}: {exc}") from exc
    train_loss, test_loss = (residual_loss(v[net.root], s.labels) for v, s in zip(values, splits))
    if not np.isfinite(train_loss):
        raise TrainingError(f"diverged at epoch {epoch}: loss is not finite")
    return EpochStats(epoch, train_loss, test_loss), values


def train(
    net: CompositeNetwork,
    components: dict[str, Component],
    data: Dataset,
    cfg: TrainConfig,
    layout: ParamLayout | None = None,
    splits: list[Split] | None = None,
) -> TrainResult:
    """SGD on the training split; returns a trained copy.

    ``layout`` says what trains (default: ``parameter_layout(net,
    components)``, every unfrozen parameter).  It holds node and
    component ids and spans only, so one built on ``net`` serves the copy.

    The history's row 0 is the start, and rows 1..E are the epochs run.
    The copy carries the parameters of the last row that improved on the
    best train loss so far by more than 1e-12 (``TrainResult.best``), the
    same test that drives early stopping, so training never returns a
    train loss above its start.  Frozen blocks of the input are never
    modified (the returned copy carries bit-identical frozen weights).

    ``splits`` (optional) are ``data_splits`` knowing some nodes' start
    values, such as a merge's operand outputs; the result is bit-identical
    without them.  Only those of frozen nodes that live nodes read are
    kept, as training moves the others.  Row 0 computes the rest as
    ``evaluate`` does, so a frozen node it rejects ends training before
    the first batch; the read nodes keep their row-0 values, so batches
    and later rows compute only the live nodes.  Row losses are
    ``evaluate``'s.  Divergence is a ``TrainingError``, so numpy overflow
    warnings are silenced here.

    Every trained array of the copy is a view into one flat parameter
    vector, so a step moves the network in place, and the layout (spans,
    live nodes, the frozen nodes a batch reads) is given or worked out
    once per call.
    """
    net = net.copy()
    components = {k: c.copy() for k, c in components.items()}
    if layout is None:
        layout = parameter_layout(net, components)
    if layout.size == 0:
        raise TrainingError("network has no trainable parameters")

    n_train = data.train_idx.size
    if n_train == 0:
        raise TrainingError("training split is empty")
    if cfg.batch_size > n_train:
        raise TrainingError(f"batch_size {cfg.batch_size} exceeds {n_train} training rows")
    splits = splits or data_splits(data, [{}, {}])

    rng = np.random.default_rng(cfg.seed)
    velocity = np.zeros(layout.size)
    params = get_parameters(net, components, layout)
    _bind(net, components, layout, params)

    with np.errstate(over="ignore", invalid="ignore"):
        splits = [s.only(s.known, layout.read) for s in splits]
        row, values = history_row(net, components, 0, splits)
        # a read node the root does not reach was not computed, and no batch computes it
        splits = [s.only(v, layout.read) for s, v in zip(splits, values)]
        history, best, best_params, stale = [row], 0, params.copy(), 0
        outputs = [v[net.root] for v in values]
        for epoch in range(1, cfg.max_epochs + 1):
            lr = cfg.lr_at(epoch - 1)
            # the epoch's rows in batch order; each batch is a slice of them
            perm = rng.permutation(n_train)
            inputs, labels = splits[0].inputs[perm], splits[0].labels[perm]
            read = {nid: v[perm] for nid, v in splits[0].known.items()}
            for start in range(0, n_train, cfg.batch_size):
                rows = slice(start, start + cfg.batch_size)
                known = {nid: v[rows] for nid, v in read.items()}
                try:
                    grad = gradients(
                        net, components, inputs[rows], labels[rows], layout=layout, known=known
                    )
                except NonFiniteGradientError as exc:
                    raise TrainingError(f"diverged at epoch {epoch}: {exc}") from exc
                # the bits of ``velocity = MOMENTUM * velocity - lr * grad``
                velocity *= MOMENTUM
                velocity -= lr * grad
                params += velocity
            row, values = history_row(net, components, epoch, splits)
            history.append(row)
            if row.train_loss < history[best].train_loss - 1e-12:
                best, best_params, stale = epoch, params.copy(), 0
                outputs = [v[net.root] for v in values]
            else:
                stale += 1
                if cfg.early_stop_patience > 0 and stale >= cfg.early_stop_patience:
                    break

    params[:] = best_params
    return TrainResult(net, components, history, best, outputs)


def history_csv(history: list[EpochStats]) -> str:
    lines = ["epoch,train_loss,test_loss"]
    for h in history:
        lines.append(f"{h.epoch},{h.train_loss!r},{h.test_loss!r}")
    return "\n".join(lines) + "\n"
