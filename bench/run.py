"""compnet benchmark: closed-loop CLI workloads, measured end to end and per layer.

    python3 bench/run.py --workload compose-chain --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client in one process calls ``compnet.cli.main(argv)`` in process and
starts each operation (one CLI command) only after the previous one has
returned.  Set-up imports compnet, generates the run's inputs from
``--seed`` and runs one warm-up operation; then operations run for
``--seconds``, each checked for correct output.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` wraps compnet's public functions from
outside (see ``tracer.py``) and prints the per-layer metrics instead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run records and span files go
to ``.bench_out/`` in the checkout; ``bench/design.json`` explains every
metric and the predictions it serves.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ["compose-chain", "compose-exhaustive", "verify-bounds", "impute-grid"]
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # op_tail_s: highest percentile with this many operations beyond it
SPLITS = ("train", "test")

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "train_loss_ratio": "ratio",
    "test_loss_ratio": "ratio",
}
LAYER_SPANS = [
    ("model.forward", ("calls", "self_s")),
    ("model.evaluate", ("calls", "self_s")),
    ("model.loss_l2", ("calls",)),
    ("training.train", ("calls", "self_s")),
    ("training.gradients", ("calls", "self_s")),
    ("training.params", ("self_s",)),
    ("linear.build_gram", ("calls", "self_s")),
    ("linear.solve_theta_star", ("calls", "self_s")),
    ("linear.check_assumptions", ("calls", "self_s")),
    ("scaled.construct_wrapper", ("calls", "self_s")),
    ("scaled.apply_wrapper", ("self_s",)),
    ("bounds.orthogonality", ("self_s",)),
    ("bounds.strict_improvement", ("self_s",)),
    ("bounds.add_width", ("self_s",)),
    ("bounds.depth_compounding", ("self_s",)),
    ("construct", ("self_s",)),
    ("data.generate_synthetic", ("self_s",)),
    ("data.load_csv", ("self_s",)),
    ("data.knn_impute", ("calls", "self_s")),
    ("data.grid_io", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("cli.write_report", ("self_s",)),
]
LAYER_COUNTS = [
    "training.epochs",
    "construct.candidates",
    "construct.failed_candidates",
    "data.cells_filled",
    "cli.report_bytes",
]


class SetupError(RuntimeError):
    pass


class Capture:
    """Run a program function with its stdout/stderr captured, as a terminal would."""

    def __init__(self):
        self.stderr = ""

    def __call__(self, fn, *args):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            result = fn(*args)
        self.stderr = err.getvalue()
        return result


def layer_units():
    units = {}
    for name, fields in LAYER_SPANS:
        for field in fields:
            units[f"{name}.{field}"] = "s" if field == "self_s" else "count"
    for name in LAYER_COUNTS:
        units[name] = "bytes" if name == "cli.report_bytes" else "count"
    units["training.stale_epoch_ratio"] = "ratio"
    units["bounds.accept_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


# -- statistics ---------------------------------------------------------------


def tail(latencies):
    """(latency, percentile) at the highest percentile with TAIL_BEYOND
    operations beyond it; the maximum when there are too few operations."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def typical_latency(records):
    """Geometric mean over command kinds of each kind's median latency.

    A workload mixes kinds of different cost in equal shares (dbcn vs bbcn,
    four verify claims); the pooled median of such a mix sits in the gap
    between two kinds and jumps with one extra operation.  Per-kind medians
    do not.
    """
    kinds = {}
    for kind, latency, _ in records:
        kinds.setdefault(kind, []).append(latency)
    logs = [math.log(statistics.median(v)) for v in kinds.values()]
    return math.exp(sum(logs) / len(logs))


# -- environment ---------------------------------------------------------------


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def openblas_threads():
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment(cli) -> dict:
    import numpy as np
    import scipy

    parsed = cli.build_parser().parse_args(["compose", "dbcn", "--pool", "p", "--data", "d"])
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "jobs_default": getattr(parsed, "jobs", "no --jobs flag"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "machine": platform.machine(),
    }


# -- one workload ----------------------------------------------------------------


def run_op(call, cli, workload, op, tracer=None):
    """One timed operation (traced when `tracer` is given), then its output check."""
    if tracer is not None:
        tracer.enabled = True
    start = time.perf_counter()
    try:
        rc = call(cli.main, op.argv)
    finally:
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
    outcome = workload.checked(op, rc)
    if rc != 0 and call.stderr:
        outcome.reason += f" ({call.stderr.strip().splitlines()[-1]})"
    return latency, outcome


def set_up(workload, workdir, call, cli, tracer=None):
    """Generate the inputs into a fresh `workdir` and run one warm-up
    operation; returns seconds."""
    workload.workdir = workdir
    workload.reports.mkdir(parents=True)
    start = time.perf_counter()
    if tracer is not None:
        tracer.install()
        tracer.op, tracer.enabled = "setup", True
    try:
        workload.generate(call)
    finally:
        if tracer is not None:
            tracer.enabled = False
            tracer.uninstall()
    warm = workload.ops(0, tag="warmup")[0]
    rc = call(cli.main, warm.argv)
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise SetupError(f"warm-up operation exited with {rc}: {call.stderr.strip()}")
    return elapsed


def run_workload(name, seed, seconds, trace, tiny=False, out_dir=OUT, import_s=0.0):
    """Set up, measure for `seconds`, check outputs; returns the result record."""
    from compnet import cli
    import tracer as tracing
    from workloads import WORKLOADS

    # A fresh directory per run, never deleted by the benchmark: see the
    # note on output paths in workloads.py.
    (out_dir / "runs").mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-seed{seed}-", dir=out_dir / "runs"))
    workload = WORKLOADS[name](run_dir, seed, tiny=tiny)
    call = Capture()
    failures = []
    attempted = 0

    def note(outcome):
        nonlocal attempted
        attempted += 1
        if not outcome.ok:
            failures.append(outcome.reason)

    if trace:
        tr = tracing.Tracer()
        setup_times = [set_up(workload, run_dir / "setup0", call, cli, tr)]
        setup_spans, setup_counts = tr.take()
    else:
        setup_times = [
            set_up(workload, run_dir / f"setup{r}", call, cli) for r in range(SETUP_REPEATS)
        ]
    workload.prepare_checks()
    env = environment(cli)
    env.update(workload=name, seed=seed, seconds=seconds, trace=int(trace),
               work_unit=workload.work_unit, setup_runs_s=setup_times)

    if trace:
        overhead, spans, counts = _traced_window(workload, call, cli, tr, seconds, note)
        spans = setup_spans + spans
        counts = {k: setup_counts[k] + counts[k] for k in counts}
        metrics = _layer_metrics(tracing.aggregate(spans), counts)
        metrics["trace.overhead_ratio"] = overhead
        env.update(traced_ops=workload.traced_count(), missing_targets=tr.missing,
                   spans=len(spans))
        tracing.write_csv(spans, out_dir / f"{name}.spans.csv", spans[0][2] if spans else 0.0)
        units = layer_units()
    else:
        records, quality = _timed_window(workload, call, cli, seconds, note)
        reason = workload.final_check(call)
        attempted += 1
        if reason:
            failures.append(reason)
        metrics, stats = _end_to_end(records, quality, setup_times, import_s)
        metrics["ok_ratio"] = (attempted - len(failures)) / attempted
        env.update(stats)
        units = END_TO_END

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {"environment": env, "failures": failures[:20], **result}
    suffix = "-trace" if trace else ""
    (out_dir / f"{name}-seed{seed}{suffix}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def _timed_window(workload, call, cli, seconds, note):
    """Closed loop over the operation cycle until `seconds` have passed.

    Returns the timed records and the (train, test) loss ratios of the
    cycle-0 panel operations, which lead the cycle; panel operations the
    window did not reach run afterwards, untimed, so the loss ratios never
    depend on speed.
    """
    records = []
    panel = [op for op in workload.ops(0) if op.panel]
    deadline = time.perf_counter() + seconds
    cycle = 0
    while time.perf_counter() < deadline:
        for op in workload.ops(cycle):
            latency, outcome = run_op(call, cli, workload, op)
            note(outcome)
            records.append((op.kind, latency, outcome))
            if time.perf_counter() >= deadline:
                break
        cycle += 1
    outcomes = [o for _, _, o in records[: len(panel)]]
    for op in panel[len(outcomes):]:
        _, outcome = run_op(call, cli, workload, op)
        note(outcome)
        outcomes.append(outcome)
    return records, [o.quality for o in outcomes if o.quality is not None]


def _end_to_end(records, quality, setup_times, import_s):
    latencies = [lat for _, lat, _ in records]
    tail_s, pct = tail(latencies)
    ok = [o for _, _, o in records if o.ok]
    kinds = {}
    for kind, _, _ in records:
        kinds[kind] = kinds.get(kind, 0) + 1
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "work_per_s": sum(o.work for o in ok) / sum(latencies),
        "op_p50_s": typical_latency(records),
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for i, split in enumerate(SPLITS):
        # 1.0 where the workload composes no network: its output is its own reference
        metrics[f"{split}_loss_ratio"] = statistics.median(q[i] for q in quality) if quality else 1.0
    stats = {
        "ops": len(records),
        "ops_by_kind": kinds,
        "op_tail_percentile": pct,
        "op_tail_samples": len(records),
        "quality_networks": len(quality),
        "import_s": import_s,
    }
    return metrics, stats


def _traced_window(workload, call, cli, tr, seconds, note):
    """Alternate an untraced and a traced pass over the same operations.

    Returns the overhead ratio (traced over untraced time, summed over
    every pair) and the spans and counts of the first traced pass only, so
    that call counts repeat exactly.
    """
    count = workload.traced_count()
    plain = traced = 0.0
    kept = None
    deadline = time.perf_counter() + seconds
    pair = 0
    while kept is None or time.perf_counter() < deadline:
        for op in workload.ops(0, tag=f"u{pair}")[:count]:
            latency, outcome = run_op(call, cli, workload, op)
            plain += latency
            note(outcome)
        tr.install()
        try:
            for i, op in enumerate(workload.ops(0, tag=f"t{pair}")[:count]):
                tr.op = i
                latency, outcome = run_op(call, cli, workload, op, tr)
                traced += latency
                note(outcome)
        finally:
            tr.uninstall()
        spans, counts = tr.take()
        if kept is None:
            kept = (spans, counts)
        pair += 1
    return traced / plain, *kept


def _layer_metrics(agg, counts):
    out = {}
    for name, fields in LAYER_SPANS:
        for field in fields:
            out[f"{name}.{field}"] = agg.get(name, {}).get(field, 0)
    for name in LAYER_COUNTS:
        out[name] = counts[name]
    epochs = counts["training.epochs"]
    out["training.stale_epoch_ratio"] = counts["training.stale_epochs"] / epochs if epochs else 0.0
    trials = counts["bounds.trials"]
    out["bounds.accept_ratio"] = trials / (trials + counts["bounds.resamples"]) if trials else 0.0
    return out


# -- entry -------------------------------------------------------------------------


def _print_metrics(metrics):
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>16.6g} {m['unit']}")


def _print_result(record):
    _print_metrics(record["metrics"])
    print("env " + json.dumps(record["environment"], sort_keys=True))
    for reason in record["failures"]:
        print(f"failed: {reason}", file=sys.stderr)


def run_all(args) -> int:
    """Run every workload in its own process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"== {name}")
        _print_metrics(result["metrics"])
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    src = ROOT / "src"
    if not (src / "compnet" / "__init__.py").is_file():
        print(f"error: {src / 'compnet'} not found; run from a compnet checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    compnet = importlib.import_module("compnet")
    importlib.import_module("compnet.cli")
    import_s = time.perf_counter() - start
    if Path(compnet.__file__).resolve().parent != (src / "compnet").resolve():
        print(f"error: imported compnet from {compnet.__file__}, not {src}", file=sys.stderr)
        return 2
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              import_s=import_s)
    except RuntimeError as exc:  # SetupError, or a set-up command that failed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_result(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
