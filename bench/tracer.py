"""Outside-in tracer: wraps compnet's public functions without touching src/.

Each target function is replaced in *every* ``compnet`` module namespace
that binds it (``construct`` binds ``train``, ``cli`` binds ``dbcn`` and
``knn_impute``, ``bounds`` and ``data`` bind ``check_assumptions`` ...),
so calls made through any import path are recorded.  ``Component.forward``
and ``forward_trace`` are class attributes and are patched once on the
class.  ``Activation.value`` / ``derivative`` are deliberately left alone:
they run millions of times at sub-microsecond cost, so their time stays in
the caller's self time.

A span is ``(id, name, start, end, parent, op, thread)``.  Parents are
tracked per thread, so a span started on a thread-pool worker has no
parent and the construct span that waits for it keeps the waiting time as
self time.  Spans stay in memory; ``write_csv`` writes them out.

A target missing from the program (renamed or folded away by a later
change) is skipped and listed in ``missing``; its metrics read 0.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys
import threading
import time

import numpy as np

# (defining module, attribute, span name); "Class.method" patches the class.
TARGETS = [
    ("compnet.model", "Component.forward", "model.forward"),
    ("compnet.model", "Component.forward_trace", "model.forward"),
    ("compnet.model", "evaluate", "model.evaluate"),
    ("compnet.model", "loss_l2", "model.loss_l2"),
    ("compnet.training", "train", "training.train"),
    ("compnet.training", "gradients", "training.gradients"),
    ("compnet.training", "get_parameters", "training.params"),
    ("compnet.training", "set_parameters", "training.params"),
    ("compnet.linear", "build_gram", "linear.build_gram"),
    ("compnet.linear", "solve_theta_star", "linear.solve_theta_star"),
    ("compnet.linear", "check_assumptions", "linear.check_assumptions"),
    ("compnet.scaled", "construct_wrapper", "scaled.construct_wrapper"),
    ("compnet.scaled", "apply_wrapper", "scaled.apply_wrapper"),
    ("compnet.bounds", "verify_orthogonality", "bounds.orthogonality"),
    ("compnet.bounds", "verify_strict_improvement", "bounds.strict_improvement"),
    ("compnet.bounds", "verify_add_width", "bounds.add_width"),
    ("compnet.bounds", "verify_depth_compounding", "bounds.depth_compounding"),
    ("compnet.construct", "dbcn", "construct"),
    ("compnet.construct", "bbcn", "construct"),
    ("compnet.construct", "exhaustive", "construct"),
    ("compnet.data", "generate_synthetic", "data.generate_synthetic"),
    ("compnet.data", "load_csv", "data.load_csv"),
    ("compnet.data", "knn_impute", "data.knn_impute"),
    ("compnet.data", "load_grid_csv", "data.grid_io"),
    ("compnet.data", "save_grid_csv", "data.grid_io"),
    ("compnet.cli", "main", "cli.main"),
    ("compnet.cli", "write_report", "cli.write_report"),
    # the manifest half of report writing, including the input sha256s
    ("compnet.cli", "_write_manifest", "cli.write_report"),
]

# Counters read from arguments or return values at a layer boundary.


def _on_train(counts, args, result):
    losses = [h.train_loss for h in getattr(result, "history", [])]
    if losses:
        best = min(range(len(losses)), key=losses.__getitem__)
        counts["training.epochs"] += len(losses)
        counts["training.stale_epochs"] += len(losses) - 1 - best


def _on_construct(counts, args, result):
    for step in getattr(result, "steps", []):
        for cand in step.candidates:
            counts["construct.candidates"] += 1
            if not math.isfinite(cand.train_loss):
                counts["construct.failed_candidates"] += 1


def _on_knn(counts, args, result):
    counts["data.cells_filled"] += int(np.sum(~np.isfinite(np.asarray(args[0], dtype=float))))


def _on_write_report(counts, args, result):
    if len(args) > 1 and os.path.exists(args[1]):
        counts["cli.report_bytes"] += os.path.getsize(args[1])


def _on_verify(counts, args, result):
    counts["bounds.trials"] += int(getattr(result, "trials", 0))
    counts["bounds.resamples"] += int(getattr(result, "details", {}).get("resamples", 0))


HOOKS = {
    "train": _on_train,
    "dbcn": _on_construct,
    "bbcn": _on_construct,
    "exhaustive": _on_construct,
    "knn_impute": _on_knn,
    "write_report": _on_write_report,
    "verify_orthogonality": _on_verify,
    "verify_strict_improvement": _on_verify,
    "verify_add_width": _on_verify,
    "verify_depth_compounding": _on_verify,
}


class Tracer:
    """Install wrappers, record spans while ``enabled``, restore on uninstall."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.enabled = False
        self.op = None
        self.missing: list[str] = []
        self._patched: list[tuple] = []  # (owner, attribute, original)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.clear()

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._patched:
            return
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "compnet" or name.startswith("compnet."))
        ]
        self.missing = []
        for module_name, attr, span_name in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(method) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, span_name, HOOKS.get(method))
            if owner_name:
                self._patch(owner, method, original, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, name, start, end, parent, tracer.op, threading.get_ident())
                )
            if hook is not None:
                with tracer._lock:
                    hook(tracer.counts, args, result)
            return result

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- results -------------------------------------------------------------

    def clear(self) -> None:
        self.spans = []
        self.counts = {
            key: 0
            for key in (
                "training.epochs",
                "training.stale_epochs",
                "construct.candidates",
                "construct.failed_candidates",
                "data.cells_filled",
                "cli.report_bytes",
                "bounds.trials",
                "bounds.resamples",
            )
        }

    def take(self) -> tuple[list, dict]:
        """Hand over the recorded spans and counts and start afresh."""
        spans, counts = self.spans, self.counts
        self.clear()
        return spans, counts


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: number of calls and self time (duration minus the
    time covered by child spans, which always run on the same thread)."""
    child = {}
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    out: dict[str, dict[str, float]] = {}
    for span_id, name, start, end, _, _, _ in spans:
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child.get(span_id, 0.0)
    return out


def write_csv(spans, path, origin: float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start_s,end_s,parent,op,thread\n")
        for span_id, name, start, end, parent, op, thread in spans:
            fh.write(
                f"{span_id},{name},{start - origin:.9f},{end - origin:.9f},"
                f"{'' if parent is None else parent},{op},{thread}\n"
            )
