"""The four benchmark workloads: inputs, operations and output checks.

Every input is generated during set-up from the run seed (and, for the
compose loss-ratio panel, from fixed seeds); the program only ever sees
the generated files and the command-line flags.  An operation is one
``compnet`` CLI command.  The operations of a workload form a fixed
cycle; cycle ``c`` of a compose workload passes ``--seed c`` and every
verify operation gets its own seed, so no two timed commands of a run are
identical unless the workload has no seed flag (impute).

Every operation writes its outputs to paths no earlier operation used:
truncating or deleting a file is slow on file systems mounted with online
discard, and would otherwise be timed as part of the next operation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from compnet import cli
from compnet.data import load_csv
from compnet.model import Component, CompositeNetwork, loss_l2, single_component_network

TRAIN_FLAGS = ["--activations", "linear,sl", "--epochs", "60", "--patience", "15"]
# criterion-7 task shape
CHAIN_SYNTH = ["--n", "240", "--d", "5", "--qualities", "0.1,0.18,0.28,0.4,0.55", "--noise", "0.02"]
# README task shape
EXHAUSTIVE_SYNTH = ["--n", "400", "--k", "3"]
VERIFY_CLAIMS = [
    ["theorem1", "--n", "400", "--k", "3"],
    ["theorem2", "--n", "400", "--k", "3", "--h", "3"],
    ["prop1", "--n", "100", "--k", "2"],
    ["orthogonality", "--n", "10000"],
]
LOSS_RTOL = 1e-9
IMPUTE_RTOL = 1e-12
IMPUTE_SAMPLE = 16


def derive_seed(seed: int, *keys) -> int:
    digest = hashlib.sha256(":".join(str(k) for k in (seed, *keys)).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass
class Op:
    kind: str  # the command without its input files and seed
    argv: list[str]
    key: int  # which generated input the command reads
    report: Path
    panel: bool = False  # counts towards the loss ratios


@dataclass
class Outcome:
    ok: bool
    work: float = 0.0
    reason: str = ""
    quality: tuple[float, float] | None = None  # (train, test) loss ratios


class Workload:
    """Base: subclasses set ``name`` and ``work_unit`` and fill in the hooks."""

    name = ""
    work_unit = ""
    traced_ops = 1  # operations per traced pass; the per-layer counts cover exactly these

    def __init__(self, workdir: Path, seed: int, tiny: bool = False):
        self.workdir = workdir
        self.seed = seed
        self.tiny = tiny

    def traced_count(self) -> int:
        return 1 if self.tiny else self.traced_ops

    @property
    def inputs(self) -> Path:
        return self.workdir / "inputs"

    @property
    def reports(self) -> Path:
        return self.workdir / "reports"

    def generate(self, call) -> None:
        """Write this run's inputs (timed as part of set-up).

        ``call(fn, *args)`` runs a program function with its output captured.
        """

    def prepare_checks(self) -> None:
        """Load what the output checks need (untimed)."""

    def ops(self, cycle: int, tag: str = "") -> list[Op]:
        """The operations of cycle `cycle`; `tag` names their output files
        (default ``c<cycle>``)."""
        raise NotImplementedError

    def check(self, op: Op, rc: int) -> Outcome:
        raise NotImplementedError

    def checked(self, op: Op, rc: int) -> Outcome:
        """``check``, with a malformed report counted as a failed check."""
        try:
            return self.check(op, rc)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return Outcome(False, reason=f"malformed output: {type(exc).__name__}: {exc}")

    def final_check(self, call) -> str:
        """Once per run, after the timed window; returns a failure reason or ''."""
        return ""


def _load_report(op: Op, rc: int):
    if rc != 0:
        return None, f"exit code {rc}"
    try:
        return json.loads(op.report.read_text(encoding="utf-8")), ""
    except (OSError, ValueError) as exc:
        return None, f"unreadable report: {exc}"


def _numeric_payload(value):
    """The report minus wall-clock fields (ROADMAP item 4 plans per-phase
    timings in reports), which differ between runs by nature."""
    if isinstance(value, dict):
        return {
            k: _numeric_payload(v)
            for k, v in value.items()
            if not any(t in k.lower() for t in ("time", "wall", "elapsed", "seconds"))
        }
    if isinstance(value, list):
        return [_numeric_payload(v) for v in value]
    return value


# -- compose -----------------------------------------------------------------


class _Compose(Workload):
    """Bundles ``0 .. panel-1`` come from fixed seeds and the rest from the
    run seed.  The loss ratios are taken over the cycle-0 networks of the
    fixed panel only: how far composition can beat the best component is a
    property of each drawn task and varies by 80% between seeds, which
    would hide any change the code makes to it."""

    work_unit = "networks composed"
    synth_flags: list[str] = []
    bundles = 12
    panel = 6

    def _count(self) -> int:
        return 1 if self.tiny else self.bundles

    def _bundle_seed(self, b: int) -> int:
        return derive_seed("panel" if b < self.panel else self.seed, self.name, b)

    def _train_flags(self) -> list[str]:
        if self.tiny:
            return ["--activations", "linear,sl", "--epochs", "4", "--patience", "2"]
        return TRAIN_FLAGS

    def generate(self, call) -> None:
        for b in range(self._count()):
            argv = ["synth", "--seed", str(self._bundle_seed(b)), *self.synth_flags]
            rc = call(cli.main, argv + ["--out", str(self.inputs / f"b{b}")])
            if rc != 0:
                raise RuntimeError(f"set-up command failed with exit code {rc}: {argv}")

    def prepare_checks(self) -> None:
        self.data = []
        self.best = []
        for b in range(self._count()):
            bundle = json.loads((self.inputs / f"b{b}" / "components.json").read_text("utf-8"))
            ds = load_csv(self.inputs / f"b{b}" / "data.csv", bundle["features"], bundle["labels"])
            comps = [Component.from_dict(c) for c in bundle["components"]]
            best = [
                min(loss_l2(single_component_network(c.id), {c.id: c}, ds, split) for c in comps)
                for split in ("train", "test")
            ]
            self.data.append(ds)
            self.best.append(best)

    def variants(self) -> list[list[str]]:
        raise NotImplementedError

    def ops(self, cycle: int, tag: str = "") -> list[Op]:
        out = []
        for b in range(self._count()):
            bundle = self.inputs / f"b{b}"
            for variant in self.variants():
                report = self.reports / f"{tag or f'c{cycle}'}-op{len(out)}.json"
                argv = [
                    "compose", *variant,
                    "--pool", str(bundle / "components.json"),
                    "--data", str(bundle / "data.csv"),
                    *self._train_flags(),
                    "--seed", str(cycle),
                    "--report", str(report),
                ]
                out.append(Op(" ".join(["compose", *variant]), argv, b, report, b < self.panel))
        return out

    def check(self, op: Op, rc: int) -> Outcome:
        rep, why = _load_report(op, rc)
        if rep is None:
            return Outcome(False, reason=why)
        metric = "train_loss" if rep["selection_metric"] == "train_loss" else "test_loss"
        for step in rep["steps"]:
            values = [c[metric] for c in step["candidates"]]
            best = step["candidates"][values.index(min(values))]["description"]
            if best != step["front_runner"]:
                return Outcome(False, reason=f"{step['label']}: front runner is not the argmin")
        net = CompositeNetwork.from_dict(rep["network"])
        comps = {c["id"]: Component.from_dict(c) for c in rep["components"]}
        ds = self.data[op.key]
        final = rep["final"]
        losses = []
        for split in ("train", "test"):
            got = loss_l2(net, comps, ds, split)
            if not math.isclose(got, final[f"{split}_loss"], rel_tol=LOSS_RTOL):
                return Outcome(
                    False,
                    reason=f"reloaded network {split} loss {got!r} != reported {final[f'{split}_loss']!r}",
                )
            losses.append(final[f"{split}_loss"])
        ratios = tuple(loss / ref for loss, ref in zip(losses, self.best[op.key]))
        return Outcome(True, work=1.0, quality=ratios)

    def final_check(self, call) -> str:
        first = self.ops(0)[0].report
        replay = self.reports / "replay.json"
        rc = call(cli.replay_manifest, str(first) + ".manifest.json", str(replay))
        if rc != 0:
            return f"manifest replay exited with {rc}"
        a = json.loads(first.read_text("utf-8"))
        b = json.loads(replay.read_text("utf-8"))
        if _numeric_payload(a) != _numeric_payload(b):
            return "manifest replay did not reproduce the numeric payload"
        return ""


class ComposeChain(_Compose):
    name = "compose-chain"
    synth_flags = CHAIN_SYNTH
    traced_ops = 4  # one bundle's four commands

    def variants(self):
        return [
            [mode, *extra, "--selection", sel]
            for mode, extra in (("dbcn", []), ("bbcn", ["--k0", "4"]))
            for sel in ("train", "validation")
        ]


class ComposeExhaustive(_Compose):
    name = "compose-exhaustive"
    synth_flags = EXHAUSTIVE_SYNTH
    traced_ops = 2  # one bundle's two schedules

    def variants(self):
        return [["exhaustive", "--schedule", s] for s in ("chain", "balanced")]


# -- verify ------------------------------------------------------------------


class VerifyBounds(Workload):
    name = "verify-bounds"
    work_unit = "Monte Carlo trials"
    traced_ops = 4  # one of each claim

    def ops(self, cycle: int, tag: str = "") -> list[Op]:
        out = []
        for pos, claim in enumerate(VERIFY_CLAIMS):
            report = self.reports / f"{tag or f'c{cycle}'}-op{pos}.json"
            seed = derive_seed(self.seed, self.name, cycle, pos)
            extra = ["--trials", "100"] if self.tiny else []
            argv = ["verify", *claim, *extra, "--seed", str(seed), "--report", str(report)]
            out.append(Op(f"verify {claim[0]}", argv, pos, report))
        return out

    def check(self, op: Op, rc: int) -> Outcome:
        rep, why = _load_report(op, rc)
        if rep is None:
            return Outcome(False, reason=why)
        if rep.get("satisfied") is not True:
            return Outcome(False, reason=f"{rep.get('claim')}: bound not satisfied")
        return Outcome(True, work=float(rep["trials"]))


# -- impute ------------------------------------------------------------------


def _smooth_grid(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    r = np.arange(rows)[:, None] / rows
    c = np.arange(cols)[None, :] / cols
    field = 10.0 + rng.normal() * r + rng.normal() * c
    for _ in range(3):
        fr, fc = rng.uniform(0.5, 3.0, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        field = field + rng.uniform(0.5, 2.0) * np.sin(2 * np.pi * (fr * r + fc * c) + phase)
    return field


def _write_grid(path: Path, grid: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in grid:
            writer.writerow(["" if math.isnan(v) else repr(float(v)) for v in row])


def _read_grid(path: Path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [[math.nan if cell == "" else float(cell) for cell in row] for row in csv.reader(fh) if row]
    return np.array(rows, dtype=float)


def knn_reference(grid: np.ndarray, r: int, c: int, k: int) -> float:
    """Mean of the k nearest known cells by grid distance, ties by (row, col)."""
    rows, cols = np.nonzero(np.isfinite(grid))
    d2 = (rows - r) ** 2 + (cols - c) ** 2
    cutoff = np.partition(d2, k - 1)[k - 1]
    near = sorted(
        (int(d), int(rr), int(cc)) for d, rr, cc in zip(d2, rows, cols) if d <= cutoff
    )[:k]
    return sum(float(grid[rr, cc]) for _, rr, cc in near) / k


class ImputeGrid(Workload):
    name = "impute-grid"
    work_unit = "missing cells filled"
    traced_ops = 2
    grids = 16
    side = 80
    missing = 0.3
    k = 4

    def _shape(self):
        return (1, 12) if self.tiny else (self.grids, self.side)

    def generate(self, call) -> None:
        count, side = self._shape()
        self.inputs.mkdir(parents=True, exist_ok=True)
        for g in range(count):
            rng = np.random.default_rng(derive_seed(self.seed, self.name, g))
            grid = _smooth_grid(rng, side, side)
            grid[rng.random(grid.shape) < self.missing] = np.nan
            _write_grid(self.inputs / f"g{g}.csv", grid)

    def prepare_checks(self) -> None:
        count, _ = self._shape()
        self.grid_values = [_read_grid(self.inputs / f"g{g}.csv") for g in range(count)]

    def ops(self, cycle: int, tag: str = "") -> list[Op]:
        out = []
        for g in range(self._shape()[0]):
            report = self.reports / f"{tag or f'c{cycle}'}-op{g}.json"
            argv = [
                "impute", "--grid", str(self.inputs / f"g{g}.csv"), "--k", str(self.k),
                "--out", str(report.with_suffix(".csv")), "--report", str(report),
            ]
            out.append(Op(f"impute --k {self.k}", argv, g, report))
        return out

    def check(self, op: Op, rc: int) -> Outcome:
        rep, why = _load_report(op, rc)
        if rep is None:
            return Outcome(False, reason=why)
        grid = self.grid_values[op.key]
        filled = np.array(rep["grid"], dtype=float)
        known = np.isfinite(grid)
        if filled.shape != grid.shape or not np.array_equal(filled[known], grid[known]):
            return Outcome(False, reason="known cells changed")
        if not np.all(np.isfinite(filled)):
            return Outcome(False, reason="missing cells left unfilled")
        written = _read_grid(op.report.with_suffix(".csv"))
        if not np.array_equal(written, filled):
            return Outcome(False, reason="written CSV differs from the report grid")
        missing = np.argwhere(~known)
        rng = random.Random(derive_seed(self.seed, op.key))
        for r, c in rng.sample(missing.tolist(), min(IMPUTE_SAMPLE, len(missing))):
            want = knn_reference(grid, r, c, self.k)
            if not math.isclose(filled[r, c], want, rel_tol=IMPUTE_RTOL):
                return Outcome(False, reason=f"cell ({r}, {c}) is {filled[r, c]!r}, rule gives {want!r}")
        return Outcome(True, work=float(len(missing)))


WORKLOADS = {w.name: w for w in (ComposeChain, ComposeExhaustive, VerifyBounds, ImputeGrid)}
