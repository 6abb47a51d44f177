"""Construction of composite networks from a component pool.

Three strategies over an ordered pool:

  dbcn        greedy chain: insert one component per step, trying every
              activation, keep the candidate with the lowest selection
              loss, then prune the deepest layers whose gain is small;
  bbcn        pairwise-balanced merges of the base components first,
              then the greedy chain for whatever remains;
  exhaustive  same merge tree, but each operand may additionally have
              its internal weights opened for training ('o') or kept
              frozen ('x'), every combination trained.

All three run on one executor: a merge plan (the merge tree in the
order its merges run, with the labels, names and seed keys of each
merge) is walked once, and at each merge every candidate the variant
policy offers is trained and the best kept.  The algorithms differ
only in the plan's shape and in the policy.

Each step trains only the newly added mixing weights (plus any newly
opened component blocks); the already-built subtree acts as a frozen
feature extractor.  Candidate seeds derive from a stable description
of the candidate, so the same candidate trains identically no matter
which search produced it.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import warnings
from collections import Counter
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
    KIND_PRETRAINED,
    ROLE_BASE,
    count_parameters,
    loss_l2,
    single_component_network,
)
from .training import EpochStats, TrainConfig, TrainingError, parameter_layout, train

_CANDIDATE_GUARD = 2**12


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
        if self.selection_metric not in ("train_loss", "validation_loss"):
            raise ConstructionError(f"unknown selection metric {self.selection_metric!r}")


@dataclass
class CandidateRecord:
    description: str
    train_loss: float
    test_loss: float
    trainable: int
    total: int
    # per-epoch losses; not part of the report (empty when training failed)
    history: list[EpochStats] = field(default_factory=list, repr=False)

    def metric(self, selection_metric: str) -> float:
        return self.train_loss if selection_metric == "train_loss" else self.test_loss


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
        counts = count_parameters(self.final, self.final_components)
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
                "trainable": counts["trainable"],
                "total": counts["total"],
            },
            "network": self.final.to_dict(),
            "components": [c.to_dict() for c in self.final_components.values()],
            "notes": list(self.notes),
        }


# -- ordering --------------------------------------------------------------


def order_components(pool, losses: dict[str, float]) -> list[Component]:
    """Stable sort: pre-trained first, then base before auxiliary, then
    ascending loss; entries without a loss sort last within their group."""

    def key(comp: Component):
        loss = losses.get(comp.id)
        return (
            0 if comp.kind == KIND_PRETRAINED else 1,
            0 if comp.role == ROLE_BASE else 1,
            float("inf") if loss is None else float(loss),
        )

    return sorted(pool, key=key)


def component_loss(comp: Component, data: Dataset, split: str = "train") -> float:
    net = single_component_network(comp.id)
    return loss_l2(net, {comp.id: comp}, data, split)


# -- internal state --------------------------------------------------------


@dataclass
class _State:
    net: CompositeNetwork
    comps: dict[str, Component]
    train_loss: float
    test_loss: float

    def metric(self, selection_metric: str) -> float:
        return self.train_loss if selection_metric == "train_loss" else self.test_loss


def _component_state(comp: Component, data: Dataset) -> _State:
    tr = component_loss(comp, data, "train")
    te = component_loss(comp, data, "test") if data.test_idx.size else float("nan")
    return _State(single_component_network(comp.id), {comp.id: comp}, tr, te)


def _derive_seed(base: int, key: str) -> int:
    digest = hashlib.sha256(f"{base}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _fit(
    left: _State,
    right: _State,
    activation: Activation,
    ids: Iterator[int],
    description: str,
    seed_key: str,
    opened: set[str],
    data: Dataset,
    cfg: ConstructionConfig,
) -> tuple[_State | None, CandidateRecord, str | None]:
    """Build the candidate activation(mix(left, right)) and train its new
    mixing weights plus the blocks of the ``opened`` components.  Returns
    the trained state, the candidate record and the training error (the
    state is None when training failed)."""
    mix = Combine(f"mix:{next(ids)}", [left.net.root, right.net.root], np.array([0.0, 0.5, 0.5]))
    nodes = [*left.net.nodes, *right.net.nodes, mix]
    if activation.tag != "linear":
        nodes.append(Activate(f"act:{next(ids)}", mix.id, activation))
    net = CompositeNetwork(nodes, nodes[-1].id)
    comps = {**left.comps, **right.comps}
    trainable = {mix.id} | {ref.id for ref in net.ref_nodes() if ref.component in opened}
    size = parameter_layout(net, comps, trainable).size
    tcfg = replace(cfg.train_cfg, seed=_derive_seed(cfg.train_cfg.seed, seed_key))
    try:
        result = train(net, comps, data, tcfg, trainable_nodes=trainable)
    except TrainingError as exc:
        total = count_parameters(net, comps)["total"]
        return None, CandidateRecord(description, math.inf, math.inf, size, total), str(exc)
    last = result.history[-1]
    total = count_parameters(result.net, result.components)["total"]
    record = CandidateRecord(
        description, last.train_loss, last.test_loss, size, total, result.history
    )
    return _State(result.net, result.components, last.train_loss, last.test_loss), record, None


def _select(
    label: str, outcomes: list, cfg: ConstructionConfig
) -> tuple[_State, StepRecord, list[str]]:
    """The winning state of one merge, its step record and the notes on
    failed candidates."""
    records = [rec for _, rec, _ in outcomes]
    notes = [
        f"{label}: candidate {rec.description} failed training: {err}"
        for (_, rec, err) in outcomes
        if err is not None
    ]
    best = None
    for state, rec, err in outcomes:
        if err is not None:
            continue
        if np.isnan(rec.metric(cfg.selection_metric)):
            raise ConstructionError(
                f"{label}: selection metric {cfg.selection_metric!r} is undefined "
                "(empty test split?)"
            )
        if best is None or rec.metric(cfg.selection_metric) < best[1].metric(cfg.selection_metric):
            best = (state, rec)
    if best is None:
        raise ConstructionError(f"{label}: every candidate failed training")
    state, rec = best
    return state, StepRecord(label, records, rec.description), notes


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
class _Merge:
    """One merge of a plan.  A plan is a list of merges in run order,
    operands before the merges that use them, with a dict that names
    every operand for candidate descriptions.  Operands are pool indices
    or earlier merges (standing for their winners); merges hash by
    identity."""

    left: int | _Merge
    right: int | _Merge
    level: int  # height in the merge tree; pool leaves are level 0
    label: str = ""
    seed_prefix: str = ""
    notes: list[str] = field(default_factory=list)  # recorded after the step


def _level(operand) -> int:
    return 0 if isinstance(operand, int) else operand.level


def _merges(tree, count: int) -> list[_Merge]:
    """The merges of a schedule tree in postorder; the tree's leaves must
    be the pool indices 0..count-1, each exactly once."""
    merges: list[_Merge] = []
    seen: set[int] = set()

    def visit(node):
        if isinstance(node, int):
            if node in seen or not 0 <= node < count:
                raise ConstructionError("schedule must cover every pool index exactly once")
            seen.add(node)
            return node
        if not (isinstance(node, (tuple, list)) and len(node) == 2):
            raise ConstructionError(
                f"schedule node {node!r} is neither a pool index nor a pair of subtrees"
            )
        left, right = visit(node[0]), visit(node[1])
        merges.append(_Merge(left, right, 1 + max(_level(left), _level(right))))
        return merges[-1]

    visit(tree)
    if len(seen) != count:
        raise ConstructionError("schedule must cover every pool index exactly once")
    return merges


def _chain_plan(pool: list[Component], k0: int) -> tuple[list[_Merge], dict, list]:
    """dbcn/bbcn plan over ``balanced_schedule(len(pool), k0)``.

    The first k0 - 1 merges are the balanced stage.  They run level by
    level as 'balance level s slot t' and their winners are h{s}_{t}; an
    operand left over at the end of a level is carried up under the next
    slot's name.  The stage's root is g{k0}, and each chain merge above it
    is 'depth d' with winner g{d}.  k0 = 1 is dbcn's chain.  Also returns
    the chain [g{k0}, g{k0+1}, ...] that pruning walks.
    """
    merges = _merges(balanced_schedule(len(pool), k0), len(pool))
    balanced = sorted(merges[: k0 - 1], key=lambda m: m.level)
    chain = merges[k0 - 1 :]
    names: dict = {i: (f"h0_{i + 1}" if i < k0 else c.id) for i, c in enumerate(pool)}
    last_of_level = {m.level: m for m in balanced}
    slots: Counter = Counter()
    for m in balanced:
        s, t = m.level, slots[m.level]
        slots[s] += 1
        m.label, m.seed_prefix = f"balance level {s} slot {t + 1}", f"balance{s}:{t}"
        names[m] = f"h{s}_{t + 1}"
        for operand in (m.left, m.right):
            for carried in range(_level(operand) + 1, s):
                # lower levels ran first, so slots[carried] is final
                alias = f"h{carried}_{slots[carried] + 1}"
                last_of_level[carried].notes.append(
                    f"{alias} <- {names[operand]} (carried unmerged)"
                )
                names[operand] = alias
    root = balanced[-1] if balanced else 0
    names[root] = f"g{k0}"
    for i, m in enumerate(chain):
        depth = k0 + i + 1
        m.label, m.seed_prefix = f"depth {depth}", f"merge{i}"
        names[m] = f"g{depth}"
    return balanced + chain, names, [root, *chain]


def _marks(fresh: bool, open_all: bool) -> str:
    """The variant policy: the forms an operand takes at a merge, 'x'
    frozen or 'o' opened for training.  A fresh operand (a leaf holding
    a non-instantiated component) exists only open.  The natural policy
    keeps every other operand frozen; the 'all' policy (``open_all``)
    also offers it opened."""
    if fresh:
        return "o"
    return "xo" if open_all else "x"


def _variant(state: _State, mark: str, fresh: bool) -> tuple[_State, set[str]]:
    """The operand state for one mark and the component ids it opens."""
    if mark == "x":
        return state, set()
    if fresh:
        return state, set(state.comps)
    comps = {cid: comp.opened_copy() for cid, comp in state.comps.items()}
    return replace(state, comps=comps), set(comps)


def _execute(
    pool: list[Component],
    merges: list[_Merge],
    names: dict,
    data: Dataset,
    cfg: ConstructionConfig,
    open_all: bool,
    allow_large: bool,
) -> tuple[dict, list[StepRecord], list[str]]:
    """Run a merge plan: at each merge, train one candidate per activation
    and operand variant, and keep the winner.  Returns the state of every
    operand (pool index or merge), the step records and the notes."""

    def fresh(operand) -> bool:
        return isinstance(operand, int) and not all(pool[operand].frozen)

    def variants(operand) -> list[tuple[str, _State, set[str]]]:
        return [
            (mark, *_variant(states[operand], mark, fresh(operand)))
            for mark in _marks(fresh(operand), open_all)
        ]

    total = len(cfg.activations) * sum(
        len(_marks(fresh(m.left), open_all)) * len(_marks(fresh(m.right), open_all))
        for m in merges
    )
    if total > _CANDIDATE_GUARD and not allow_large:
        raise ConstructionError(
            f"{total} candidates exceed the guard of {_CANDIDATE_GUARD}; "
            "pass allow_large=True (or --allow-large) to override"
        )

    states: dict = {i: _component_state(comp, data) for i, comp in enumerate(pool)}
    ids = itertools.count(1)
    steps: list[StepRecord] = []
    notes: list[str] = []
    for m in merges:
        lname, rname = names[m.left], names[m.right]
        lvars, rvars = variants(m.left), variants(m.right)
        outcomes = []
        for act in cfg.activations:
            for lmark, lstate, lopen in lvars:
                for rmark, rstate, ropen in rvars:
                    if open_all:
                        description = f"{act.label}({lname}^{lmark},{rname}^{rmark})"
                    else:
                        description = f"{act.label}({lname},{rname})"
                    seed_key = f"{m.seed_prefix}:{act.tag}:{lmark}{rmark}"
                    opened = lopen | ropen
                    outcomes.append(
                        _fit(lstate, rstate, act, ids, description, seed_key, opened, data, cfg)
                    )
        states[m], record, step_notes = _select(m.label, outcomes, cfg)
        steps.append(record)
        notes.extend(step_notes)
        notes.extend(m.notes)
    return states, steps, notes


def _report(
    algorithm: str,
    pool: list[Component],
    final: _State,
    final_depth: int,
    pruned_from: int,
    steps: list[StepRecord],
    notes: list[str],
    cfg: ConstructionConfig,
) -> ConstructionReport:
    return ConstructionReport(
        algorithm=algorithm,
        order=[c.id for c in pool],
        steps=steps,
        final=final.net,
        final_components=final.comps,
        pruned_from=pruned_from,
        final_depth=final_depth,
        final_train_loss=final.train_loss,
        final_test_loss=final.test_loss,
        selection_metric=cfg.selection_metric,
        notes=notes,
    )


# -- public algorithms -----------------------------------------------------


def _ordered(pool, data, assume_ordered: bool) -> list[Component]:
    pool = list(pool)
    if not pool:
        raise ConstructionError("component pool is empty")
    if assume_ordered:
        return pool
    losses = {
        c.id: component_loss(c, data, "train") for c in pool if c.kind == KIND_PRETRAINED
    }
    return order_components(pool, losses)


def _pruned_chain(
    algorithm: str,
    pool: list[Component],
    k0: int,
    data: Dataset,
    cfg: ConstructionConfig,
    allow_large: bool,
) -> ConstructionReport:
    """Run the dbcn/bbcn plan under the natural policy, then prune the chain."""
    merges, names, chain = _chain_plan(pool, k0)
    states, steps, notes = _execute(
        pool, merges, names, data, cfg, open_all=False, allow_large=allow_large
    )
    metric_values = [states[x].metric(cfg.selection_metric) for x in chain]
    keep = _prune_index(metric_values, cfg.delta)
    if keep < len(chain) - 1:
        notes.append(
            f"pruned chain from depth {len(chain)} to depth {keep + 1} (delta={cfg.delta})"
        )
    return _report(algorithm, pool, states[chain[keep]], keep + 1, len(chain), steps, notes, cfg)


def dbcn(
    pool,
    data: Dataset,
    cfg: ConstructionConfig | None = None,
    assume_ordered: bool = False,
    allow_large: bool = False,
) -> ConstructionReport:
    """Greedy deep chain: one component per depth, then delta-pruning."""
    cfg = cfg or ConstructionConfig()
    pool = _ordered(pool, data, assume_ordered)
    return _pruned_chain("dbcn", pool, 1, data, cfg, allow_large)


def bbcn(
    pool,
    data: Dataset,
    cfg: ConstructionConfig | None = None,
    assume_ordered: bool = False,
    allow_large: bool = False,
) -> ConstructionReport:
    """Balanced pairwise merges of the first k0 (base) components, then
    the greedy chain over the remainder."""
    cfg = cfg or ConstructionConfig()
    pool = _ordered(pool, data, assume_ordered)
    k0 = cfg.k0
    if k0 < 2:
        warnings.warn("k0 < 2: balanced stage degenerates to the greedy chain")
        k0 = 1
    elif k0 > len(pool):
        raise ConstructionError(f"k0 = {k0} exceeds pool size {len(pool)}")
    elif any(c.role != ROLE_BASE for c in pool[:k0]):
        raise ConstructionError("first k0 pool entries must be base components")
    return _pruned_chain("bbcn", pool, k0, data, cfg, allow_large)


# -- exhaustive search -----------------------------------------------------


def balanced_schedule(count: int, k0: int):
    """Merge tree with the balanced shape over the first k0 leaves and a
    chain over the rest (the default exhaustive layout)."""
    k0 = max(1, min(k0, count))
    level: list = list(range(k0))
    while len(level) > 1:
        nxt = []
        slots = math.ceil(len(level) / 2)
        for t in range(slots):
            if len(level) % 2 == 1 and t == slots - 1:
                nxt.append(level[2 * t])
            else:
                nxt.append((level[2 * t], level[2 * t + 1]))
        level = nxt
    tree = level[0]
    for i in range(k0, count):
        tree = (tree, i)
    return tree


def chain_schedule(count: int):
    return balanced_schedule(count, 1)


def exhaustive(
    pool,
    data: Dataset,
    cfg: ConstructionConfig | None = None,
    schedule=None,
    allow_large: bool = False,
    assume_ordered: bool = False,
) -> ConstructionReport:
    """Train every frozen/open x activation combination at each merge of
    the schedule and keep the per-merge winner."""
    cfg = cfg or ConstructionConfig()
    pool = _ordered(pool, data, assume_ordered)
    if schedule is None or schedule == "balanced":
        schedule = balanced_schedule(len(pool), cfg.k0)
    elif schedule == "chain":
        schedule = chain_schedule(len(pool))
    elif isinstance(schedule, str):
        raise ConstructionError(f"unknown schedule {schedule!r}: use balanced, chain or a tree")
    merges = _merges(schedule, len(pool))
    names: dict = {i: c.id for i, c in enumerate(pool)}
    for i, m in enumerate(merges):
        m.label, m.seed_prefix = f"merge {i + 1}", f"merge{i}"
        names[m] = f"g{i + 1}"
    states, steps, notes = _execute(
        pool, merges, names, data, cfg, open_all=True, allow_large=allow_large
    )
    depth = len(merges) + 1
    final = states[merges[-1] if merges else schedule]
    return _report("exhaustive", pool, final, depth, depth, steps, notes, cfg)
