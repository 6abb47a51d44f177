"""Stochastic-gradient training of composite networks.

Only combine weights and unfrozen component blocks move; frozen blocks
are never touched.  ``trainable_nodes`` narrows training further to an
explicit set of node ids, which is how the construction algorithms
train just the newly added step of a growing network.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    evaluate,
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
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be positive")

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


# -- parameter layout ------------------------------------------------------


@dataclass
class ParamLayout:
    combines: list[tuple[str, int, int]]  # (combine id, start, stop) in the flat vector
    blocks: list[tuple[str, int, int, int]]  # (component id, layer index, start, stop)
    size: int


def parameter_layout(
    net: CompositeNetwork,
    components: dict[str, Component],
    trainable_nodes: set[str] | None = None,
) -> ParamLayout:
    combine_ids: list[str] = []
    block_keys: list[tuple[str, int]] = []
    seen_components: set[str] = set()
    for node in net.nodes:
        if isinstance(node, Combine):
            if trainable_nodes is None or node.id in trainable_nodes:
                combine_ids.append(node.id)
        elif isinstance(node, ComponentRef):
            if trainable_nodes is not None and node.id not in trainable_nodes:
                continue
            if node.component in seen_components:
                continue
            seen_components.add(node.component)
            comp = components[node.component]
            for li, frz in enumerate(comp.frozen):
                if not frz:
                    block_keys.append((node.component, li))
    combines = []
    blocks = []
    offset = 0
    for cid in combine_ids:
        n = net.node(cid).theta.size
        combines.append((cid, offset, offset + n))
        offset += n
    for comp_id, li in block_keys:
        n = components[comp_id].layers[li].size
        blocks.append((comp_id, li, offset, offset + n))
        offset += n
    return ParamLayout(combines, blocks, offset)


def get_parameters(net, components, layout: ParamLayout) -> np.ndarray:
    out = np.empty(layout.size)
    for cid, start, stop in layout.combines:
        out[start:stop] = net.node(cid).theta
    for comp_id, li, start, stop in layout.blocks:
        layer = components[comp_id].layers[li]
        out[start:stop] = np.concatenate([layer.weights.ravel(), layer.bias])
    return out


def set_parameters(net, components, layout: ParamLayout, flat: np.ndarray) -> None:
    flat = np.asarray(flat, dtype=float)
    if flat.shape != (layout.size,):
        raise GradientError(f"expected flat vector of size {layout.size}")
    for cid, start, stop in layout.combines:
        net.node(cid).theta[:] = flat[start:stop]
    for comp_id, li, start, stop in layout.blocks:
        layer = components[comp_id].layers[li]
        mid = start + layer.weights.size  # weights, then bias
        layer.weights[...] = flat[start:mid].reshape(layer.weights.shape)
        layer.bias[...] = flat[mid:stop]


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
    ``known`` (optional) gives the values of nodes that no parameter in
    the layout moves (see ``node_values``); the backward pass stops at
    them, so only those that computed nodes read, and the root, need the
    batch's rows.
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
    known = known or {}
    pred = values[net.root]
    if pred.shape != labels.shape:
        raise GradientError(f"prediction shape {pred.shape} != label shape {labels.shape}")

    flat = np.zeros(layout.size)
    combine_spans = {cid: (start, stop) for cid, start, stop in layout.combines}
    block_spans = {(cid, li): (start, stop) for cid, li, start, stop in layout.blocks}
    open_components = {cid for cid, *_ in layout.blocks}
    adjoint: dict[str, np.ndarray] = {net.root: 2.0 * (pred - labels) / batch}

    for node in reversed(net.nodes):
        a = adjoint.get(node.id)
        if a is None or node.id in known:
            continue
        if isinstance(node, Combine):
            if node.id in combine_spans:
                start, stop = combine_spans[node.id]
                g = flat[start:stop]
                g[0] += a.sum()
                for j, child in enumerate(node.children):
                    g[j + 1] += float((a * values[child]).sum())
            for w, child in zip(node.theta[1:], node.children):
                if child in known:
                    continue
                ca = w * a
                cw = values[child].shape[1]
                if cw != ca.shape[1]:
                    ca = ca.sum(axis=1, keepdims=True)
                _accumulate(adjoint, child, ca)
        elif isinstance(node, Activate):
            deriv = node.activation.derivative(values[node.child])
            _accumulate(adjoint, node.child, a * deriv)
        else:  # ComponentRef
            comp = components[node.component]
            if node.component not in open_components:
                continue
            d = a
            for li in range(len(comp.layers) - 1, -1, -1):
                layer = comp.layers[li]
                xin, pre = traces[node.id][li]
                dpre = d * layer.activation.derivative(pre)
                span = block_spans.get((node.component, li))
                if span is not None:
                    start, stop = span
                    mid = start + layer.weights.size
                    flat[start:mid] += (xin.T @ dpre).ravel()
                    flat[mid:stop] += dpre.sum(axis=0)
                if li > 0:
                    d = dpre @ layer.weights.T

    if not np.all(np.isfinite(flat)):
        spans = [(f"combine {cid}.theta", i, j) for cid, i, j in layout.combines]
        spans += [(f"component {cid} layer {li}", i, j) for cid, li, i, j in layout.blocks]
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
    """One dataset split: its rows and the values of the nodes that are
    not recomputed on it.  Inside one ``train`` call these are the frozen
    nodes, which depend on no trained parameter, so they are computed and
    checked once."""

    inputs: np.ndarray
    labels: np.ndarray
    known: dict[str, np.ndarray]


def _frozen_nodes(net: CompositeNetwork, layout: ParamLayout) -> tuple[set[str], set[str]]:
    """Frozen nodes (no trained combine or opened component in their
    subtree), and those a batch reads: the ones live nodes consume, and
    the root."""
    trained = {cid for cid, *_ in layout.combines}
    opened = {cid for cid, *_ in layout.blocks}
    live: set[str] = set()
    for node in net.nodes:
        if isinstance(node, ComponentRef):
            is_live = node.component in opened
        elif isinstance(node, Combine):
            is_live = node.id in trained or any(c in live for c in node.children)
        else:
            is_live = node.child in live
        if is_live:
            live.add(node.id)
    frozen = {node.id for node in net.nodes} - live
    read = {c for node in net.nodes if node.id in live for c in _children_of(node)}
    return frozen, frozen & (read | {net.root})


def _cache_split(net, components, frozen, inputs, labels) -> Split:
    # frozen nodes have only frozen children, so they make a network of
    # their own, which is checked as ``evaluate`` checks every node
    nodes = [node for node in net.nodes if node.id in frozen]
    try:
        sub = CompositeNetwork(nodes, nodes[-1].id) if nodes else None
        known = _checked_values(sub, components, inputs) if sub else {}
    except EvaluationError as exc:
        raise TrainingError(f"diverged at epoch 0: {exc}") from exc
    return Split(inputs, labels, known)


def history_row(
    net: CompositeNetwork,
    components: dict[str, Component],
    epoch: int,
    train_split: Split,
    test_split: Split | None,
) -> EpochStats:
    """One history row: ``evaluate``'s losses of the network on both splits
    (nan for an empty test split).  A network that ``evaluate`` rejects,
    or a train loss that is not finite, is a ``TrainingError``."""
    try:
        train_loss, test_loss = (
            residual_loss(evaluate(net, components, split.inputs, split.known), split.labels)
            if split
            else float("nan")
            for split in (train_split, test_split)
        )
    except EvaluationError as exc:
        raise TrainingError(f"diverged at epoch {epoch}: {exc}") from exc
    if not np.isfinite(train_loss):
        raise TrainingError(f"diverged at epoch {epoch}: loss is not finite")
    return EpochStats(epoch, train_loss, test_loss)


def train(
    net: CompositeNetwork,
    components: dict[str, Component],
    data: Dataset,
    cfg: TrainConfig,
    trainable_nodes: set[str] | None = None,
) -> TrainResult:
    """SGD on the training split; returns a trained copy.

    The history's row 0 is the start, and rows 1..E are the epochs run.
    The copy carries the parameters of the last row that improved on the
    best train loss so far by more than 1e-12 (``TrainResult.best``), the
    same test that drives early stopping, so training never returns a
    train loss above its start.  Frozen blocks of the input are never
    modified (the returned copy carries bit-identical frozen weights).

    Frozen subtrees are evaluated and checked as ``evaluate`` checks them
    once per split, so a frozen node that ``evaluate`` rejects ends
    training before the first batch; every batch and every row's loss
    recomputes only the nodes above them.  Row losses are ``evaluate``'s.
    Divergence is reported as a ``TrainingError``, so numpy overflow
    warnings are silenced here.
    """
    net = net.copy()
    components = {k: c.copy() for k, c in components.items()}
    layout = parameter_layout(net, components, trainable_nodes)
    if layout.size == 0:
        raise TrainingError("network has no trainable parameters")

    n_train = data.train_idx.size
    if n_train == 0:
        raise TrainingError("training split is empty")
    if cfg.batch_size > n_train:
        raise TrainingError(f"batch_size {cfg.batch_size} exceeds {n_train} training rows")

    rng = np.random.default_rng(cfg.seed)
    velocity = np.zeros(layout.size)
    params = get_parameters(net, components, layout)

    with np.errstate(over="ignore", invalid="ignore"):
        frozen, read = _frozen_nodes(net, layout)
        train_split, test_split = (
            _cache_split(net, components, frozen, data.inputs[idx], data.labels[idx])
            if idx.size
            else None
            for idx in (data.train_idx, data.test_idx)
        )
        history = [history_row(net, components, 0, train_split, test_split)]
        best, best_params, stale = 0, params.copy(), 0
        for epoch in range(1, cfg.max_epochs + 1):
            lr = cfg.lr_at(epoch - 1)
            perm = rng.permutation(n_train)
            for start in range(0, n_train, cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                # the other frozen nodes keep the split's rows: nothing reads them
                known = {**train_split.known, **{nid: train_split.known[nid][idx] for nid in read}}
                try:
                    grad = gradients(
                        net,
                        components,
                        train_split.inputs[idx],
                        train_split.labels[idx],
                        layout=layout,
                        known=known,
                    )
                except NonFiniteGradientError as exc:
                    raise TrainingError(f"diverged at epoch {epoch}: {exc}") from exc
                velocity = MOMENTUM * velocity - lr * grad
                params += velocity
                set_parameters(net, components, layout, params)
            history.append(history_row(net, components, epoch, train_split, test_split))
            if history[-1].train_loss < history[best].train_loss - 1e-12:
                best, best_params, stale = epoch, params.copy(), 0
            else:
                stale += 1
                if cfg.early_stop_patience > 0 and stale >= cfg.early_stop_patience:
                    break

    set_parameters(net, components, layout, best_params)
    return TrainResult(net=net, components=components, history=history, best=best)


def history_csv(history: list[EpochStats]) -> str:
    lines = ["epoch,train_loss,test_loss"]
    for h in history:
        lines.append(f"{h.epoch},{h.train_loss!r},{h.test_loss!r}")
    return "\n".join(lines) + "\n"
