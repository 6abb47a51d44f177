"""Command-line entry point.

Subcommands: synth, solve-linear, compose, verify, impute.  Every run
that writes a report also writes a manifest (config snapshot, seed,
version, input digests, timestamps) next to it; re-running the recorded
argv reproduces the report's numeric payload bit-exactly.

Exit codes: 0 success, 1 usage error (help text printed), 2 runtime
error (diagnostic printed).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .activations import parse_activation
from .bounds import (
    TrialSpec,
    verify_add_width,
    verify_depth_compounding,
    verify_orthogonality,
    verify_strict_improvement,
)
from .construct import ConstructionConfig, bbcn, component_loss, dbcn, exhaustive
from .data import (
    DataError,
    SyntheticTaskSpec,
    generate_synthetic,
    knn_impute,
    load_csv,
    load_grid_csv,
    save_csv,
    save_grid_csv,
    save_task_spec,
)
from .linear import (
    build_gram,
    check_assumptions,
    combination_loss,
    component_losses,
    solve_theta_star,
)
from .model import Component
from .scaled import apply_wrapper, construct_wrapper
from .training import TrainConfig, history_csv

REPORT_DIR_ENV = "COMPNET_REPORT_DIR"

# Flags that only some compose modes or verify claims read: flag -> (the
# modes that read it, each a mode or a mode and its schedule; default).
_COMPONENT_CLAIMS = ("theorem1", "prop1", "theorem2", "scaled-activation")
_MODE_FLAGS = {
    "compose": {
        "delta": (("dbcn", "bbcn"), 0.0),
        "k0": (("bbcn", "exhaustive --schedule balanced"), 2),
        "schedule": (("exhaustive",), None),
    },
    "verify": {
        "k": (_COMPONENT_CLAIMS, 3),
        "noise": (_COMPONENT_CLAIMS, 0.5),
        "trials": (("orthogonality", "theorem1", "prop1", "theorem2"), 1000),
        "h": (("theorem2",), 3),
        "activation": (("scaled-activation",), "logistic"),
        "epsilon": (("scaled-activation",), 0.1),
    },
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from calling sys.exit(2)
        raise UsageError(message)


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> _Parser:
    parser = _Parser(prog="compnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"compnet {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    p = sub.add_parser("synth", parents=[], help="generate a synthetic task bundle", add_help=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=400, help="number of rows")
    p.add_argument("--k", type=int, help="number of graded components (default 3)")
    p.add_argument("--d", type=int, default=6, help="input features")
    p.add_argument("--m", type=int, default=1, help="label width")
    p.add_argument("--teacher", default="mlp-teacher", choices=["linear", "mlp-teacher", "sum-of-experts"])
    p.add_argument("--noise", type=float, default=0.0, help="label noise standard deviation")
    p.add_argument("--qualities", default=None, help="comma list of perturbation levels, one per component")
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--out", required=True, help="output directory for the bundle")
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("solve-linear", help="closed-form optimal combination of component outputs")
    p.add_argument(
        "--data", required=True, help="CSV with a y column; every other column is a component output"
    )
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_solve_linear)

    p = sub.add_parser("compose", help="construct a composite network from a pool")
    p.add_argument("mode", choices=["dbcn", "bbcn", "exhaustive"])
    p.add_argument("--pool", required=True, help="components JSON bundle")
    p.add_argument("--data", required=True, help="data CSV (features, labels, optional split)")
    p.add_argument("--delta", type=float, help="pruning threshold (inf allowed)")
    p.add_argument("--activations", default="linear,sl", help="comma list, e.g. linear,sl")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k0", type=int, help="base components for the balanced stage")
    p.add_argument("--selection", default="train", choices=["train", "validation"])
    p.add_argument("--epochs", type=int, default=150)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--patience", type=int, default=30)
    p.add_argument("--schedule", choices=["balanced", "chain"], help="exhaustive merge tree")
    p.add_argument("--history", help="write step{j}-cand{i}.csv training histories here")
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("verify", help="verify a statistical claim empirically")
    p.add_argument(
        "claim",
        choices=["orthogonality", "theorem1", "prop1", "theorem2", "scaled-activation"],
    )
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--k", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=int, help="layer count (theorem2 only)")
    p.add_argument("--noise", type=float, help="component noise level")
    p.add_argument("--activation", help="activation for scaled-activation")
    p.add_argument("--epsilon", type=float, help="epsilon for scaled-activation")
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("impute", help="fill missing grid cells by k-nearest-neighbor averaging")
    p.add_argument("--grid", default=None, help="grid CSV with empty cells for missing values")
    p.add_argument("--demo", action="store_true", help="use a built-in demo grid")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--out", default=None, help="write the filled grid CSV here")
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_impute)

    return parser


# -- report / manifest plumbing ---------------------------------------------


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _report_path(args) -> Path | None:
    if getattr(args, "report", None):
        return Path(args.report)
    env = os.environ.get(REPORT_DIR_ENV)
    if env:
        name = args.subcommand + ("-" + args.mode if hasattr(args, "mode") else "")
        return Path(env) / f"{name}-report.json"
    return None


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_report(payload: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # one line: without indent, json.dumps runs the stdlib's C encoder
    text = json.dumps(payload, sort_keys=True, default=_json_default)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _read_mode_flags(args) -> None:
    """Reject a ``_MODE_FLAGS`` flag that the run's mode does not read, then
    fill in the defaults; ``args._unread`` names the flags left unread."""
    kind, mode = ("claim", args.claim) if args.subcommand == "verify" else ("mode", args.mode)
    if mode == "exhaustive":
        mode += f" --schedule {args.schedule or 'balanced'}"
    args._unread = set()
    for flag, (readers, default) in _MODE_FLAGS[args.subcommand].items():
        if mode not in readers and mode.split(" --")[0] not in readers:
            if getattr(args, flag) is not None:
                raise UsageError(
                    f"--{flag} conflicts with {kind} {mode!r}: "
                    f"--{flag} is only valid with {' or '.join(readers)}"
                )
            args._unread.add(flag)
        if getattr(args, flag) is None:
            setattr(args, flag, default)


def _write_manifest(args, argv, inputs, report_path: Path, started: float) -> None:
    config = {k: v for k, v in vars(args).items() if k != "func" and not k.startswith("_")}
    config.update(dict.fromkeys(getattr(args, "_unread", ())))
    manifest = {
        "subcommand": args.subcommand,
        "argv": list(argv),
        "config": config,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "report": str(report_path),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(started)),
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime()),
    }
    write_report(manifest, Path(str(report_path) + ".manifest.json"))


def replay_manifest(manifest_path, report_path=None) -> int:
    """Re-run the argv recorded in a manifest (optionally redirecting the
    report) -- the numeric payload must reproduce bit-exactly."""
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    argv = list(manifest["argv"])
    if report_path is not None:
        if "--report" in argv:
            argv[argv.index("--report") + 1] = str(report_path)
        else:
            argv += ["--report", str(report_path)]
    return main(argv)


# -- subcommand handlers -----------------------------------------------------


def _cmd_synth(args):
    if args.qualities is None:
        if args.k is None:
            args.k = 3  # so the manifest records the count used
        qualities = tuple(0.1 * (i + 1) for i in range(args.k))
    elif args.k is not None:
        raise UsageError("--k conflicts with --qualities: pass at most one of them")
    else:
        try:
            qualities = tuple(float(tok) for tok in args.qualities.split(","))
        except ValueError as exc:
            raise DataError(f"--qualities: {exc}") from None
    spec = SyntheticTaskSpec(
        n=args.n,
        d=args.d,
        m=args.m,
        true_function=args.teacher,
        noise_sd=args.noise,
        component_quality=qualities,
        seed=args.seed,
    )
    dataset, comps = generate_synthetic(spec, train_fraction=args.train_fraction)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    features = [f"x{i + 1}" for i in range(args.d)]
    labels = [f"y{i + 1}" for i in range(args.m)]
    save_csv(out / "data.csv", dataset, features, labels)
    bundle = {
        "features": features,
        "labels": labels,
        "components": [c.to_dict() for c in comps],
    }
    write_report(bundle, out / "components.json")
    save_task_spec(spec, out / "task.spec")

    losses = {comp.id: component_loss(comp, dataset, "train") for comp in comps}
    print(f"wrote {out / 'data.csv'}, {out / 'components.json'}, {out / 'task.spec'}")
    for cid, lv in losses.items():
        print(f"  {cid}: train RMSE {np.sqrt(lv):.6f}")
    payload = {
        "task": asdict(spec),
        "component_train_losses": losses,
        "out": str(out),
    }
    return payload, []


def _cmd_solve_linear(args):
    with open(args.data, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), [])
    names = [h for h in header if h != "y"]
    dataset = load_csv(args.data, names, ["y"])
    columns, y = dataset.inputs, dataset.labels[:, 0]
    theta = solve_theta_star(build_gram(columns, y), ridge=args.ridge)
    per = component_losses(columns, y)
    comp_loss = combination_loss(theta, columns, y)
    report = check_assumptions(columns, y)

    print("theta* (bias first):")
    print("  " + "  ".join(f"{t:+.10f}" for t in theta))
    for name, lv in zip(names, per):
        print(f"  loss({name}) = {lv:.10f}   (RMSE {np.sqrt(lv):.6f})")
    print(f"  loss(combination) = {comp_loss:.10f}   (RMSE {np.sqrt(comp_loss):.6f})")
    a = report.to_dict()
    print(
        "assumptions: "
        f"A1 holds={a['a1']['holds']} (min singular value {a['a1']['min_singular_value']:.3e}); "
        f"A2 holds={a['a2']['holds']} (min L1 error {a['a2']['min_l1_error']:.6g}); "
        f"A4 holds={a['a4']['holds']} (bound {a['a4']['bound']:.4f})"
    )
    payload = {
        "theta": [float(t) for t in theta],
        "component_losses": {n: float(v) for n, v in zip(names, per)},
        "combination_loss": float(comp_loss),
        "assumptions": a,
        "ridge": args.ridge,
    }
    return payload, [args.data]


def _cmd_compose(args):
    if args.selection == "validation":
        selection = "validation_loss"
    else:
        selection = "train_loss"
    activations = tuple(parse_activation(tok) for tok in args.activations.split(","))
    bundle = json.loads(Path(args.pool).read_text(encoding="utf-8"))
    comps = [Component.from_dict(cd) for cd in bundle["components"]]
    dataset = load_csv(args.data, bundle["features"], bundle["labels"])
    cfg = ConstructionConfig(
        activations=activations,
        delta=args.delta,
        k0=1 if args.schedule == "chain" else args.k0,  # the chain is the k0 = 1 tree
        train_cfg=TrainConfig(
            learning_rate=args.lr,
            batch_size=args.batch,
            max_epochs=args.epochs,
            seed=args.seed,
            early_stop_patience=args.patience,
        ),
        selection_metric=selection,
    )
    report = {"dbcn": dbcn, "bbcn": bbcn, "exhaustive": exhaustive}[args.mode](comps, dataset, cfg)
    if args.history:
        out = Path(args.history)
        out.mkdir(parents=True, exist_ok=True)
        for j, step in enumerate(report.steps, start=1):
            for i, cand in enumerate(step.candidates, start=1):
                (out / f"step{j}-cand{i}.csv").write_text(
                    history_csv(cand.history), encoding="utf-8"
                )
    payload = report.to_dict()
    _print_construction(payload)
    return payload, [args.pool, args.data]


def _rmse(loss: float) -> str:
    if not np.isfinite(loss):
        return "-"
    return f"{np.sqrt(loss):.6f}"


def _print_construction(payload: dict) -> None:
    print(f"algorithm: {payload['algorithm']}   insertion order: {', '.join(payload['order'])}")
    width = max(
        [24]
        + [len(c["description"]) for s in payload["steps"] for c in s["candidates"]]
    )
    header = (
        f"{'candidate':<{width}}  {'train RMSE':>12}  {'test RMSE':>12}  "
        f"{'trainable/total':>18}  front-runner"
    )
    for step in payload["steps"]:
        print(f"-- {step['label']}")
        print(header)
        for cand in step["candidates"]:
            mark = "*" if cand["description"] == step["front_runner"] else ""
            print(
                f"{cand['description']:<{width}}  {_rmse(cand['train_loss']):>12}  "
                f"{_rmse(cand['test_loss']):>12}  "
                f"{str(cand['trainable']) + '/' + str(cand['total']):>18}  {mark}"
            )
    fin = payload["final"]
    print(
        f"final depth {payload['final_depth']} (built {payload['pruned_from']}): "
        f"train RMSE {_rmse(fin['train_loss'])}, test RMSE {_rmse(fin['test_loss'])}, "
        f"{fin['trainable']}/{fin['total']} parameters"
    )
    for note in payload["notes"]:
        print(f"note: {note}")


def _cmd_verify(args):
    spec = TrialSpec(
        n=args.n, k=args.k, trials=args.trials, seed=args.seed, component_noise=args.noise
    )
    if args.claim == "scaled-activation":
        return _verify_scaled(args, spec)
    if args.claim == "orthogonality":
        report = verify_orthogonality(spec)
    elif args.claim == "theorem1":
        report = verify_strict_improvement(spec)
    elif args.claim == "prop1":
        report = verify_add_width(spec)
    else:
        report = verify_depth_compounding(spec, h=args.h)
    d = report.to_dict()
    print(
        f"{d['claim']:<24} rate {d['empirical_rate']:.4f}  bound {d['bound']:.4f}  "
        f"ci95 [{d['ci95'][0]:.4f}, {d['ci95'][1]:.4f}]  trials {d['trials']}  "
        f"{'SATISFIED' if d['satisfied'] else 'VIOLATED'}"
    )
    for flag in d["details"].get("flags", []):
        print(f"note: {flag}")
    return d, []


def _verify_scaled(args, spec: TrialSpec):
    activation = parse_activation(args.activation)
    rng = np.random.default_rng(spec.seed)
    y = rng.standard_normal(spec.n)
    cols = y[:, None] + spec.component_noise * rng.standard_normal((spec.n, spec.k))
    theta = solve_theta_star(build_gram(cols, y))
    g_star = theta[0] + cols @ theta[1:]
    wrapper = construct_wrapper(g_star, activation, args.epsilon)
    wrapped = np.asarray(apply_wrapper(wrapper, g_star))
    max_err = float(np.max(np.abs(wrapped - g_star)))
    ok = max_err < args.epsilon
    print(
        f"scaled-activation {activation.tag}: epsilon {args.epsilon}  "
        f"max pointwise error {max_err:.3e}  analytic bound {wrapper.error_bound():.3e}  "
        f"{'PASS' if ok else 'FAIL'}"
    )
    payload = {
        "claim": "scaled-activation",
        "activation": activation.tag,
        "epsilon": args.epsilon,
        "max_pointwise_error": max_err,
        "error_bound": wrapper.error_bound(),
        "gamma": wrapper.gamma,
        "m0": wrapper.m0,
        "m1": wrapper.m1,
        "ok": ok,
    }
    return payload, []


_DEMO_GRID = [
    [12.0, None, 14.0, 15.0, None],
    [None, 13.5, None, 16.0, 17.0],
    [11.0, None, 15.0, None, 18.0],
    [10.5, 12.5, None, 17.5, None],
]


def _cmd_impute(args):
    if args.grid and args.demo:
        raise UsageError("--grid conflicts with --demo: pass exactly one of them")
    if not args.grid and not args.demo:
        raise UsageError("one of --grid or --demo is required")
    if args.grid:
        grid = load_grid_csv(args.grid)
        inputs = [args.grid]
    else:
        grid = np.array(
            [[np.nan if v is None else v for v in row] for row in _DEMO_GRID], dtype=float
        )
        inputs = []
    filled = knn_impute(grid, k=args.k)
    n_filled = int(np.sum(~np.isfinite(grid)))
    if args.out:
        save_grid_csv(args.out, filled)
        print(f"wrote {args.out}")
    if not args.out and _report_path(args) is None:  # no file holds the grid
        for row in filled.tolist():
            print("  ".join(f"{v:8.3f}" for v in row))
    print(f"filled {n_filled} missing cells with k={args.k}")
    payload = {
        "k": args.k,
        "rows": int(filled.shape[0]),
        "cols": int(filled.shape[1]),
        "filled_cells": n_filled,
        "grid": filled.tolist(),
    }
    return payload, inputs


# -- entry -------------------------------------------------------------------


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            raise UsageError("a subcommand is required")
        if args.subcommand in _MODE_FLAGS:
            _read_mode_flags(args)
        started = time.time()
        payload, inputs = args.func(args)
        report_path = _report_path(args)
        if report_path is not None:
            write_report(payload, report_path)
            _write_manifest(args, argv, inputs, report_path, started)
            print(f"report written to {report_path}")
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(parser.format_help(), file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit code 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
