"""Construction of composite networks from a component pool.

Three strategies over an ordered pool:

  dbcn        greedy chain: insert one component per step, trying every
              activation, keep the candidate with the lowest selection
              loss, then prune the deepest layers whose gain is small;
  bbcn        pairwise-balanced merges of the base components first,
              then the greedy chain for whatever remains;
  exhaustive  same merge tree, but each operand may additionally have
              its internal weights opened for training ('o') or kept
              frozen ('x'), every combination fitted.

All three run on one executor: a merge plan (the merge tree in the
order its merges run, with the labels, names and seed keys of each
merge) is walked once, and at each merge every candidate the variant
policy offers is fitted and the best kept.  The algorithms differ
only in the plan's shape and in the policy.

Each candidate is fitted on one of two paths.  Solved: its activation
is linear or the SL preset, and every operand it opens is affine from
its components' last layers up (combines, linear and SL nodes; a fresh
leaf never is).  Nothing is trained: over two frozen operands the
candidate is theta*, the least-squares mix of the two operand outputs
on the train rows; with an operand opened it is one least-squares
solve for the new mix and the opened last layers together, on the same
rows, and the rest of each opened component keeps its weights.  Each
merge reads an opened operand's affine terms once, for all of its
candidates, and solves each operand variant once: an SL candidate is SL
applied to the mix of its variant's linear candidate.  Trained: any
other candidate's mixing weights start at theta* and it trains them
(plus the blocks of the opened components) from there, keeping its
best epoch; the already-built subtree acts as a frozen feature
extractor.

Candidate seeds derive from a stable description of the candidate, so
the same candidate trains identically no matter which search produced
it.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .activations import Activation, LINEAR, SL
from .model import (
    Activate,
    Combine,
    Component,
    CompositeNetwork,
    Dataset,
    EvaluationError,
    KIND_PRETRAINED,
    ROLE_BASE,
    loss_l2,
    registry,
    residual_loss,
    single_component_network,
)
from .linear import SingularGramError, build_gram, solve_min_norm, solve_theta_star
from .training import (
    EpochStats,
    Split,
    TrainConfig,
    TrainResult,
    TrainingError,
    data_splits,
    parameter_layout,
    split_values,
    train,
)

class ConstructionError(RuntimeError):
    pass


@dataclass
class ConstructionConfig:
    activations: tuple[Activation, ...] = (LINEAR, SL)
    delta: float = 0.0
    k0: int = 2
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    selection_metric: str = "train_loss"  # or "validation_loss"

    def __post_init__(self):
        if not self.activations:
            raise ConstructionError("need at least one activation")
        labels = [a.label for a in self.activations]
        for label in labels:
            if labels.count(label) > 1:
                raise ConstructionError(
                    f"activations: label {label!r} is repeated; candidates are named by it"
                )
        if math.isnan(self.delta):
            raise ConstructionError("delta must not be nan (±inf is allowed)")
        if self.selection_metric not in ("train_loss", "validation_loss"):
            raise ConstructionError(f"unknown selection metric {self.selection_metric!r}")


@dataclass
class CandidateRecord:
    description: str
    train_loss: float
    test_loss: float
    trainable: int
    total: int
    # row 0 is the start, rows 1.. the epochs trained; not part of the
    # report (empty when the candidate failed)
    history: list[EpochStats] = field(default_factory=list, repr=False)
    note: str = ""  # on the fit: the A1 fallback of theta*, or a rank-deficient solve


@dataclass
class StepRecord:
    label: str
    candidates: list[CandidateRecord]
    front_runner: str


@dataclass
class ConstructionReport:
    algorithm: str
    order: list[str]
    steps: list[StepRecord]
    final: CompositeNetwork
    final_components: dict[str, Component]
    pruned_from: int
    final_depth: int
    final_train_loss: float
    final_test_loss: float
    selection_metric: str
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        layout = parameter_layout(self.final, self.final_components)
        return {
            "algorithm": self.algorithm,
            "order": list(self.order),
            "selection_metric": self.selection_metric,
            "steps": [
                {
                    "label": s.label,
                    "front_runner": s.front_runner,
                    "candidates": [
                        {
                            "description": c.description,
                            "train_loss": c.train_loss,
                            "test_loss": c.test_loss,
                            "trainable": c.trainable,
                            "total": c.total,
                        }
                        for c in s.candidates
                    ],
                }
                for s in self.steps
            ],
            "pruned_from": self.pruned_from,
            "final_depth": self.final_depth,
            "final": {
                "train_loss": self.final_train_loss,
                "test_loss": self.final_test_loss,
                "trainable": layout.size,
                "total": layout.total,
            },
            "network": self.final.to_dict(),
            "components": [c.to_dict() for c in self.final_components.values()],
            "notes": list(self.notes),
        }


# -- ordering --------------------------------------------------------------


def _group(comp: Component) -> tuple[int, int]:
    """Pre-trained first, then base before auxiliary."""
    return (0 if comp.kind == KIND_PRETRAINED else 1, 0 if comp.role == ROLE_BASE else 1)


def order_components(pool, losses: dict[str, float]) -> list[Component]:
    """Stable sort by ``_group``, then ascending loss; entries without a
    loss sort last within their group."""

    def key(comp: Component):
        loss = losses.get(comp.id)
        return (*_group(comp), float("inf") if loss is None else float(loss))

    return sorted(pool, key=key)


def component_loss(comp: Component, data: Dataset, split: str = "train") -> float:
    net = single_component_network(comp.id)
    return loss_l2(net, {comp.id: comp}, data, split)


# -- fitted networks -------------------------------------------------------
# A pool leaf, a candidate and a merge's winner are each a ``TrainResult``;
# a leaf's and a solved candidate's history is row 0 alone.

_Opened = dict[str, tuple[float, dict[str, float]] | None]  # by root: ``_affine_terms``
_Fit = tuple[np.ndarray, dict[str, Component], str, int]  # theta, registry, note, size


@dataclass
class _Variant:
    """What the candidates of one operand variant of a merge share: the
    fit each path made first (by fit function, ``_theta_star`` or
    ``_solve_opened``), and the values of the first solved candidate's
    mix on the train and test splits (None on an empty split, which
    computes nothing).  Every solved candidate of the variant has that
    mix, bit for bit, under its own node id."""

    fits: dict = field(default_factory=dict)
    mix: list[np.ndarray | None] | None = None


def _metric(row: EpochStats | CandidateRecord, selection_metric: str) -> float:
    return row.train_loss if selection_metric == "train_loss" else row.test_loss


def _row_zero(
    net: CompositeNetwork, components: dict[str, Component], splits
) -> tuple[TrainResult, list[dict[str, np.ndarray]]]:
    """``net`` as it stands, fitted without training: its history is row 0
    alone, with ``evaluate``'s losses on the train and test ``splits``;
    and the node values behind them (``split_values``)."""
    values = [split_values(net, components, s) for s in splits]
    outputs = [v[net.root] for v in values]
    row = EpochStats(0, *(residual_loss(o, s.labels) for o, s in zip(outputs, splits)))
    return TrainResult(net, components, [row], 0, outputs), values


def _component_state(comp: Component, data: Dataset) -> TrainResult:
    net = single_component_network(comp.id)
    return _row_zero(net, {comp.id: comp}, data_splits(data, [{}, {}]))[0]


def _derive_seed(base: int, key: str) -> int:
    digest = hashlib.sha256(f"{base}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _affine_terms(operand: TrainResult) -> tuple[float, dict[str, float]] | None:
    """The operand's root as c + sum of a_c times the output of each of its
    components c: (c, {component id: a_c}), where a_c is the product of the
    combine weights on the way down.  None when the way down meets an
    activation other than the linear one and the SL preset, or a component
    whose last layer is not linear.  SL(0) = 0, SL has slope 1 and
    curvature 0 at 0, and its third derivative never exceeds 2e-6 in size,
    so |SL(z) - z| <= 2e-6 |z|^3 / 6: the solve reads SL as the identity,
    and an SL candidate differs from the linear one by at most that much."""
    net, components = operand.net, operand.components
    weight, const, coefficients = {net.root: 1.0}, 0.0, {}
    for node in reversed(net.nodes):  # parents before children
        w = weight.get(node.id)
        if w is None:
            continue
        if isinstance(node, Combine):
            const += w * node.theta[0]
            for t, child in zip(node.theta[1:], node.children):
                weight[child] = weight.get(child, 0.0) + w * t
        elif isinstance(node, Activate):
            if node.activation not in (LINEAR, SL):
                return None
            weight[node.child] = weight.get(node.child, 0.0) + w
        elif components[node.component].layers[-1].activation == LINEAR:
            coefficients[node.component] = coefficients.get(node.component, 0.0) + w
        else:
            return None
    return const, coefficients


def _theta_star(left: TrainResult, right: TrainResult, opened: _Opened, split: Split) -> _Fit:
    """theta*, the least-squares mix of the operand outputs that ``split``
    knows, or the left operand passed through when A1 fails.  One theta is
    shared by every label column, so it is solved over the stacked rows; a
    width-1 output broadcasts to the label width, as ``Combine`` broadcasts
    it.  Returns theta, the operands' registry, the note and theta's size."""
    cols = [np.broadcast_to(out, split.labels.shape).ravel() for out in split.known.values()]
    try:
        theta = solve_theta_star(build_gram(np.column_stack(cols), split.labels.ravel()))
        note = ""
    except SingularGramError:
        theta = np.array([0.0, 1.0, 0.0])
        note = "operand outputs are linearly dependent (A1 fails); left operand passed through"
    return theta, {**left.components, **right.components}, note, theta.size


def _operand_splits(left: TrainResult, right: TrainResult, data: Dataset) -> list[Split]:
    """The ``data_splits`` knowing both operand outputs.  An opened copy of
    an operand has the same weights, so every candidate of a merge starts from these."""
    return data_splits(data, [{op.net.root: op.outputs[i] for op in (left, right)} for i in (0, 1)])


def _solve_opened(left: TrainResult, right: TrainResult, opened: _Opened, split: Split) -> _Fit:
    """Fit the new mix of ``left`` and ``right`` and the last layer of
    every component of the opened ones in one least-squares solve on the
    train rows ``split``.  Its columns are the constant, the frozen
    operand's output, and a_c Z_c for each opened component c: Z_c is the
    input of c's last layer and a_c its coefficient in ``opened``, so the
    answer for a_c Z_c is c's new last-layer weights.  The mix gets the
    constant less the opened operands' constants, the frozen operand's
    weight and a 1 per opened operand; each opened last layer gets a zero
    bias.

    Over m > 1 label columns the rows are stacked as in ``_theta_star``:
    the mix is shared, a width-m last layer has a column of weights per
    label column, and a width-1 one reaches every label column.  When an
    opened component has width m > 1, the constant is one per label
    column and goes to the bias of the first such component with a_c != 0
    instead, so that per-column offsets stay reachable.

    Components that share hidden units make the columns dependent; the
    minimum-norm answer is taken, and the note gives the rank.  Returns
    the mix's theta, the registry with fresh copies of the opened
    components, the note and the number of columns."""
    n, m = split.labels.shape
    components = {**left.components, **right.components}
    columns, terms, shift = [], [], 0.0
    for op in (left, right):
        if op.net.root not in opened:
            columns.append(np.broadcast_to(split.known[op.net.root], (n, m)).reshape(-1, 1))
            continue
        const, coefficients = opened[op.net.root]
        shift += const
        for cid, a in coefficients.items():
            trace: list = []
            components[cid].forward(split.inputs, trace)
            terms.append((cid, a, a * trace[-1][0]))  # a_c Z_c
    widths = {cid: components[cid].layers[-1].weights.shape[1] for cid, _, _ in terms}
    anchor = next(((cid, a) for cid, a, _ in terms if m > 1 and widths[cid] == m and a), None)
    if anchor is None:
        constant = np.ones((n * m, 1))
    else:  # a_c e_j for label column j, so that the answer is the anchor's bias
        constant = np.tile(anchor[1] * np.eye(m), (n, 1))
    for cid, _, az in terms:
        if widths[cid] == 1:
            columns.append(np.repeat(az, m, axis=0))
        else:  # row i*m + j, column u*m + k: az[i, u] when j == k
            block = az[:, None, :, None] * np.eye(m)[None, :, None, :]
            columns.append(block.reshape(n * m, az.shape[1] * m))
    design = np.hstack([constant, *columns])
    x, rank = solve_min_norm(design, split.labels.ravel())
    k = constant.shape[1]
    theta, pos = [(x[0] if anchor is None else 0.0) - shift], k
    for op in (left, right):
        theta.append(1.0 if op.net.root in opened else x[pos])
        pos += op.net.root not in opened
    for cid, _, az in terms:
        comp = components[cid] = components[cid].copy()
        layer, w = comp.layers[-1], widths[cid]
        size = az.shape[1] * w
        layer.weights = x[pos : pos + size].reshape(az.shape[1], w)
        layer.bias = x[:k].copy() if anchor and cid == anchor[0] else np.zeros(w)
        pos += size
    note = ""
    if rank < design.shape[1]:
        note = (
            f"the last-layer solve is rank-deficient (rank {rank} of {design.shape[1]} "
            "columns); the minimum-norm answer is used"
        )
    return np.array(theta), components, note, design.shape[1]


def _fit(
    left: TrainResult,
    right: TrainResult,
    activation: Activation,
    ids: Iterator[int],
    description: str,
    seed_key: str,
    opened: _Opened,
    data: Dataset,
    cfg: ConstructionConfig,
    splits: list[Split],
    variant: _Variant,
) -> tuple[TrainResult | None, CandidateRecord, str | None]:
    """Build the candidate activation(mix(left, right)), where ``opened``
    holds the ``_affine_terms`` of each opened operand, and fit it on one
    of two paths.  Solved: the linear activation or the SL preset, with
    every opened operand affine; nothing trains, and the candidate is
    theta* (``_theta_star``) over two frozen operands, ``_solve_opened``
    otherwise.  Trained: any other candidate's mixing weights start at
    theta*, and it trains them plus the blocks of the opened components.
    ``splits`` are the merge's ``_operand_splits``, and ``variant`` what
    the candidates of this operand variant share: the fit is made once
    per path, and a solved candidate after the first computes only its
    activation.  Returns the fitted candidate (None when it failed), its
    record and the error."""
    solved = activation in (LINEAR, SL) and None not in opened.values()
    fit = _solve_opened if solved and opened else _theta_star
    if fit not in variant.fits:
        variant.fits[fit] = fit(left, right, opened, splits[0])
    theta, comps, note, size = variant.fits[fit]
    mix = Combine(f"mix:{next(ids)}", [left.net.root, right.net.root], theta)
    nodes = [*left.net.nodes, *right.net.nodes, mix]
    if activation.tag != "linear":
        nodes.append(Activate(f"act:{next(ids)}", mix.id, activation))
    net = CompositeNetwork(nodes, nodes[-1].id)
    refs = [r.id for op in (left, right) if op.net.root in opened for r in op.net.ref_nodes()]
    layout = parameter_layout(net, comps, {mix.id, *refs})  # the mix and the opened blocks
    frozen = [op.net.root for op in (left, right) if op.net.root not in opened]
    splits = [s.only(s.known, frozen) for s in splits]
    try:
        if solved:
            if variant.mix is not None:  # only the activation is computed
                splits = [replace(s, known={mix.id: v}) for s, v in zip(splits, variant.mix)]
            result, values = _row_zero(net, comps, splits)
            variant.mix = [v.get(mix.id) for v in values]
        else:
            size = layout.size
            tcfg = replace(cfg.train_cfg, seed=_derive_seed(cfg.train_cfg.seed, seed_key))
            result = train(net, comps, data, tcfg, layout=layout, splits=splits)
    except (TrainingError, EvaluationError) as exc:
        record = CandidateRecord(description, math.inf, math.inf, size, layout.total, note=note)
        return None, record, str(exc)
    row = result.history[result.best]
    record = CandidateRecord(
        description, row.train_loss, row.test_loss, size, layout.total, result.history, note
    )
    return result, record, None


def _select(
    label: str, outcomes: list, cfg: ConstructionConfig
) -> tuple[TrainResult, StepRecord, list[str]]:
    """The winner of one merge (the first candidate with the lowest
    selection metric), its step record and the notes on its candidates."""
    metric = cfg.selection_metric
    trained = [(state, rec) for state, rec, err in outcomes if err is None]
    if not trained:
        _, rec, err = outcomes[0]
        raise ConstructionError(f"{label}: every candidate failed training; {rec.description}: {err}")
    state, best = min(trained, key=lambda pair: _metric(pair[1], metric))
    notes = []
    for _, rec, err in outcomes:
        if rec.note:
            notes.append(f"{label}: {rec.description}: {rec.note}")
        if err is not None:
            notes.append(f"{label}: candidate {rec.description} failed training: {err}")
    return state, StepRecord(label, [rec for _, rec, _ in outcomes], best.description), notes


def _prune_index(metric_values: list[float], delta: float) -> int:
    """Walk from the deepest network down, dropping layers whose loss
    gain over the previous depth is at most delta."""
    i = len(metric_values) - 1
    while i >= 1:
        gain = metric_values[i - 1] - metric_values[i]
        if gain <= delta:
            i -= 1
        else:
            break
    return i


# -- merge plans -----------------------------------------------------------


@dataclass(eq=False)
class _Operand:
    """An operand of a merge plan: a pool leaf or a merge of two earlier
    operands.  A plan is a list of merges in run order, operands before
    the merges that use them; operands hash by identity."""

    name: str  # in candidate descriptions
    state: TrainResult | None  # a leaf's component state; a merge's winner once run
    fresh: bool = False  # a leaf holding a non-instantiated component
    left: _Operand | None = None
    right: _Operand | None = None
    label: str = ""
    seed_prefix: str = ""
    notes: list[str] = field(default_factory=list)  # recorded after the step


def _tree(leaves: list[_Operand], k0: int) -> tuple[list[list[_Operand]], list[_Operand]]:
    """The merge tree over ``leaves``: the balanced stage's levels over
    the first k0 (level 0 is those leaves, the last level holds the
    stage's root alone), and the chain's merges over the rest.  Level s
    pairs up level s - 1 in order; an odd one out is carried up unmerged
    and goes last in level s."""
    levels = [leaves[:k0]]
    while len(levels[-1]) > 1:
        below = levels[-1]
        pairs = [_Operand("", None, left=a, right=b) for a, b in zip(below[::2], below[1::2])]
        levels.append(pairs + below[2 * len(pairs) :])
    chain, top = [], levels[-1][0]
    for leaf in leaves[k0:]:
        top = _Operand("", None, left=top, right=leaf)
        chain.append(top)
    return levels, chain


def _postorder(operand: _Operand) -> list[_Operand]:
    """The merges of the subtree under ``operand``, operands first."""
    if operand.left is None:
        return []
    return [*_postorder(operand.left), *_postorder(operand.right), operand]


def _chain_plan(leaves: list[_Operand], k0: int) -> tuple[list[_Operand], list[_Operand]]:
    """dbcn/bbcn plan.  The balanced stage over the first k0 leaves runs
    level by level as 'balance level s slot t'; the operands of level s
    are h{s}_{t}, and one carried up unmerged takes the next name of its
    new level.  The stage's root is g{k0}, and each chain merge above it
    is 'depth d' with winner g{d}; k0 = 1 is dbcn's chain.  Also returns
    the chain [g{k0}, g{k0+1}, ...] that pruning walks."""
    levels, chain = _tree(leaves, k0)
    merges: list[_Operand] = []
    for t, leaf in enumerate(levels[0]):
        leaf.name = f"h0_{t + 1}"
    for s, level in enumerate(levels[1:], start=1):
        for t, op in enumerate(level):
            name = f"h{s}_{t + 1}"
            if op is levels[s - 1][-1]:
                merges[-1].notes.append(f"{name} <- {op.name} (carried unmerged)")
            else:
                op.label, op.seed_prefix = f"balance level {s} slot {t + 1}", f"balance{s}:{t}"
                merges.append(op)
            op.name = name
    root = levels[-1][0]
    root.name = f"g{k0}"
    for i, m in enumerate(chain):
        depth = k0 + i + 1
        m.label, m.seed_prefix, m.name = f"depth {depth}", f"merge{i}", f"g{depth}"
    return merges + chain, [root, *chain]


def _marks(operand: _Operand, open_all: bool) -> str:
    """The variant policy: the forms an operand takes at a merge, 'x'
    frozen or 'o' opened for training.  A fresh leaf exists only open.
    The natural policy keeps every other operand frozen; the 'all'
    policy (``open_all``) also offers it opened."""
    if operand.fresh:
        return "o"
    return "xo" if open_all else "x"


def _open(operand: _Operand) -> tuple[TrainResult, _Opened]:
    """``operand`` opened for training, and its ``_affine_terms`` by its
    root: read once per merge, for every candidate that opens it.  A
    fresh leaf's component is open already, and its hidden layers are
    untrained, so it is not solved: its terms are None."""
    if operand.fresh:
        return operand.state, {operand.state.net.root: None}
    comps = {cid: comp.opened_copy() for cid, comp in operand.state.components.items()}
    state = replace(operand.state, components=comps)
    return state, {state.net.root: _affine_terms(state)}


def _execute(
    merges: list[_Operand],
    data: Dataset,
    cfg: ConstructionConfig,
    open_all: bool,
) -> tuple[list[StepRecord], list[str]]:
    """Run a merge plan: at each merge, fit one candidate per activation
    and operand variant, the candidates of a variant sharing its fits
    (``_Variant``), and set the merge's state to the winner.  Returns the
    step records and the notes."""
    ids = itertools.count(1)
    steps: list[StepRecord] = []
    notes: list[str] = []
    trained = False
    for m in merges:
        forms = []  # per operand, per mark offered: (mark, state, its part of ``opened``)
        for op in (m.left, m.right):
            marks = _marks(op, open_all)
            opened = _open(op) if "o" in marks else None
            forms.append([("x", op.state, {}) if mark == "x" else ("o", *opened) for mark in marks])
        splits = _operand_splits(m.left.state, m.right.state, data)
        variants: dict[str, _Variant] = {}  # by the marks
        outcomes = []
        for act in cfg.activations:
            for (lmark, lstate, lopen), (rmark, rstate, ropen) in itertools.product(*forms):
                if open_all:
                    description = f"{act.label}({m.left.name}^{lmark},{m.right.name}^{rmark})"
                else:
                    description = f"{act.label}({m.left.name},{m.right.name})"
                seed_key = f"{m.seed_prefix}:{act.tag}:{lmark}{rmark}"
                outcomes.append(
                    _fit(
                        lstate, rstate, act, ids, description, seed_key, {**lopen, **ropen},
                        data, cfg, splits, variants.setdefault(lmark + rmark, _Variant()),
                    )
                )
                trained = trained or len(outcomes[-1][1].history) != 1  # 1: solved
        m.state, record, step_notes = _select(m.label, outcomes, cfg)
        m.left.state.outputs.clear()  # nothing reads them after the merge
        m.right.state.outputs.clear()
        steps.append(record)
        notes.extend(step_notes)
        notes.extend(m.notes)
    if merges and not trained:
        notes.append(
            "no candidate was trained: every merge was solved in closed form, so the "
            "training settings (epochs, batch size, learning rate, patience, seed) were not read"
        )
    return steps, notes


def _report(
    algorithm: str,
    pool: list[Component],
    final: TrainResult,
    final_depth: int,
    pruned_from: int,
    steps: list[StepRecord],
    notes: list[str],
    cfg: ConstructionConfig,
) -> ConstructionReport:
    row = final.history[final.best]
    return ConstructionReport(
        algorithm=algorithm,
        order=[c.id for c in pool],
        steps=steps,
        final=final.net,
        final_components=final.components,
        pruned_from=pruned_from,
        final_depth=final_depth,
        final_train_loss=row.train_loss,
        final_test_loss=row.test_loss,
        selection_metric=cfg.selection_metric,
        notes=notes,
    )


# -- public algorithms -----------------------------------------------------


def _ordered(
    pool, data, cfg: ConstructionConfig, k0: int, base: bool
) -> tuple[list[Component], list[_Operand]]:
    """The pool in construction order, and the plan leaf of each of its
    components; each component is evaluated once.  The run is checked
    first: the pool is not empty, 1 <= k0 <= pool size (the balanced stage
    merges the first k0 components), ids are unique, each output width is
    1 or the label width, and with ``base`` the first k0 entries are base
    components.  An invalid run, and data that cannot score the selection
    metric, are rejected before anything is evaluated: ``_group`` alone
    fixes the roles of the first entries."""
    pool = list(pool)
    if not pool:
        raise ConstructionError("component pool is empty")
    if k0 < 1:
        raise ConstructionError(f"k0 = {k0} is below 1")
    if k0 > len(pool):
        raise ConstructionError(f"k0 = {k0} exceeds pool size {len(pool)}")
    if data.train_idx.size == 0:
        raise ConstructionError("the data has no train rows")
    if cfg.selection_metric == "validation_loss" and data.test_idx.size == 0:
        raise ConstructionError(
            "selection metric 'validation_loss' is undefined (empty test split?)"
        )
    components = registry(pool)
    labels = data.labels.shape[1]
    for c in pool:
        width = c.layers[-1].weights.shape[1]
        if width not in (1, labels):
            raise ConstructionError(
                f"component {c.id!r} outputs {width} columns; the labels have {labels}"
            )
    if base and any(c.role != ROLE_BASE for c in sorted(pool, key=_group)[:k0]):
        raise ConstructionError("first k0 pool entries must be base components")
    states = {cid: _component_state(c, data) for cid, c in components.items()}
    losses = {c.id: states[c.id].history[0].train_loss for c in pool if c.kind == KIND_PRETRAINED}
    pool = order_components(pool, losses)
    return pool, [_Operand(c.id, states[c.id], fresh=not all(c.frozen)) for c in pool]


def _pruned_chain(
    algorithm: str,
    pool: list[Component],
    leaves: list[_Operand],
    k0: int,
    data: Dataset,
    cfg: ConstructionConfig,
) -> ConstructionReport:
    """Run the dbcn/bbcn plan under the natural policy, then prune the chain."""
    merges, chain = _chain_plan(leaves, k0)
    steps, notes = _execute(merges, data, cfg, open_all=False)
    metric_values = [_metric(op.state.history[op.state.best], cfg.selection_metric) for op in chain]
    keep = _prune_index(metric_values, cfg.delta)
    if keep < len(chain) - 1:
        notes.append(
            f"pruned chain from depth {len(chain)} to depth {keep + 1} (delta={cfg.delta})"
        )
    return _report(algorithm, pool, chain[keep].state, keep + 1, len(chain), steps, notes, cfg)


def dbcn(pool, data: Dataset, cfg: ConstructionConfig | None = None) -> ConstructionReport:
    """Greedy deep chain: one component per depth, then delta-pruning."""
    cfg = cfg or ConstructionConfig()
    pool, leaves = _ordered(pool, data, cfg, 1, base=False)
    return _pruned_chain("dbcn", pool, leaves, 1, data, cfg)


def bbcn(pool, data: Dataset, cfg: ConstructionConfig | None = None) -> ConstructionReport:
    """Balanced pairwise merges of the first k0 (base) components, then
    the greedy chain over the remainder."""
    cfg = cfg or ConstructionConfig()
    pool, leaves = _ordered(pool, data, cfg, cfg.k0, base=True)
    if cfg.k0 == 1:
        warnings.warn("k0 = 1: balanced stage degenerates to the greedy chain")
    return _pruned_chain("bbcn", pool, leaves, cfg.k0, data, cfg)


# -- exhaustive search -----------------------------------------------------


def exhaustive(pool, data: Dataset, cfg: ConstructionConfig | None = None) -> ConstructionReport:
    """Fit every frozen/open x activation combination at each merge of
    the tree (balanced merges of the first k0 components, then the chain
    over the rest; k0 = 1 is the chain) and keep the per-merge winner."""
    cfg = cfg or ConstructionConfig()
    pool, leaves = _ordered(pool, data, cfg, cfg.k0, base=False)
    levels, chain = _tree(leaves, cfg.k0)
    merges = _postorder(levels[-1][0]) + chain
    for i, m in enumerate(merges):
        m.label, m.seed_prefix, m.name = f"merge {i + 1}", f"merge{i}", f"g{i + 1}"
    steps, notes = _execute(merges, data, cfg, open_all=True)
    depth = len(merges) + 1
    final = (merges[-1] if merges else leaves[0]).state
    return _report("exhaustive", pool, final, depth, depth, steps, notes, cfg)
