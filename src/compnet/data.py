"""Synthetic task generation, CSV ingestion, grid imputation, and
time-series upsampling.

The synthetic generator builds a teacher function plus pre-trained
components that approximate it at controlled quality levels: component
j computes teacher(x) + q_j * r_j(x) exactly, with r_j a random smooth
perturbation normalized to unit RMS on the training inputs, so the
per-component losses are graded by construction.  Generated ensembles
always satisfy the independence (A1) and imperfection (A2) checks;
violating draws are resampled.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .activations import LINEAR, TANH
from .linear import check_assumptions
from .model import AffineLayer, Component, Dataset, KIND_PRETRAINED, ROLE_BASE


class DataError(ValueError):
    pass


# -- grid imputation -------------------------------------------------------


@dataclass
class GridSpec:
    rows: int
    cols: int
    stations: list[tuple[int, int, str]] = field(default_factory=list)
    features: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DataError("grid must have positive dimensions")
        ids = [s[2] for s in self.stations]
        if len(set(ids)) != len(ids):
            raise DataError("station ids must be unique")
        for r, c, sid in self.stations:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise DataError(f"station {sid!r} at ({r}, {c}) is outside the grid")


def knn_impute(grid_values, spec: GridSpec | None = None, k: int = 4) -> np.ndarray:
    """Fill missing (NaN) cells with the mean of the k nearest known
    cells by Euclidean distance on grid coordinates; distance ties break
    by (row, col) order."""
    g = np.array(grid_values, dtype=float)
    if g.ndim != 2:
        raise DataError("grid must be 2-D")
    if spec is not None and (spec.rows, spec.cols) != g.shape:
        raise DataError(f"grid shape {g.shape} does not match spec ({spec.rows}, {spec.cols})")
    if k < 1:
        raise DataError("k must be positive")
    known_mask = np.isfinite(g)
    known = np.argwhere(known_mask)
    if known.shape[0] < k:
        raise DataError(f"need at least {k} known cells, found {known.shape[0]}")
    out = g.copy()
    missing = np.argwhere(~known_mask)
    if missing.size == 0:
        return out
    known_values = g[known_mask]  # argwhere and boolean indexing share C order
    for r, c in missing:
        d2 = (known[:, 0] - r) ** 2 + (known[:, 1] - c) ** 2
        order = np.lexsort((known[:, 1], known[:, 0], d2))
        out[r, c] = float(np.mean(known_values[order[:k]]))
    return out


def rasterize_stations(spec: GridSpec, station_values: dict[str, float]) -> np.ndarray:
    """Place station readings on the grid (NaN elsewhere); co-located
    stations are averaged."""
    sums = np.zeros((spec.rows, spec.cols))
    counts = np.zeros((spec.rows, spec.cols))
    for r, c, sid in spec.stations:
        if sid in station_values:
            sums[r, c] += station_values[sid]
            counts[r, c] += 1
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


# -- time interpolation ----------------------------------------------------


def interpolate_time(series, step: int = 6) -> np.ndarray:
    """Linear interpolation from coarse ticks to unit steps; tick values
    are preserved exactly and interior midpoints are exact averages."""
    v = np.asarray(series, dtype=float)
    one_d = v.ndim == 1
    if one_d:
        v = v[:, None]
    if v.ndim != 2 or v.shape[0] < 1:
        raise DataError("series must be a non-empty 1-D or 2-D array")
    if step < 1:
        raise DataError("step must be positive")
    t = v.shape[0]
    if t == 1:
        warnings.warn("single tick: returning a constant series")
        out = v.copy()
    else:
        n_out = (t - 1) * step + 1
        out = np.empty((n_out, v.shape[1]))
        for p in range(n_out):
            q, r = divmod(p, step)
            if r == 0:
                out[p] = v[q]
            else:
                f = r / step
                out[p] = (1.0 - f) * v[q] + f * v[q + 1]
    return out[:, 0] if one_d else out


# -- synthetic tasks -------------------------------------------------------

_TEACHERS = ("linear", "mlp-teacher", "sum-of-experts")


@dataclass
class SyntheticTaskSpec:
    n: int
    d: int
    m: int = 1
    true_function: str = "mlp-teacher"
    noise_sd: float = 0.0
    component_quality: tuple[float, ...] = (0.1, 0.2, 0.3)
    seed: int = 0

    def __post_init__(self):
        if min(self.n, self.d, self.m) < 1:
            raise DataError("n, d, m must be positive")
        if self.true_function not in _TEACHERS:
            raise DataError(f"unknown true_function {self.true_function!r}")
        if not np.isfinite(self.noise_sd) or self.noise_sd < 0:
            raise DataError("noise_sd must be finite and non-negative")
        self.component_quality = tuple(float(q) for q in self.component_quality)
        if any(q < 0 for q in self.component_quality):
            raise DataError("component_quality entries must be non-negative")


def save_task_spec(spec: SyntheticTaskSpec, path) -> None:
    lines = [
        f"n={spec.n}",
        f"d={spec.d}",
        f"m={spec.m}",
        f"true_function={spec.true_function}",
        f"noise_sd={spec.noise_sd!r}",
        "component_quality=" + ",".join(repr(q) for q in spec.component_quality),
        f"seed={spec.seed}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_task_spec(path) -> SyntheticTaskSpec:
    kv = {}
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataError(f"line {i}: expected key=value")
            key, value = line.split("=", 1)
            kv[key.strip()] = value.strip()
    try:
        return SyntheticTaskSpec(
            n=int(kv["n"]),
            d=int(kv["d"]),
            m=int(kv.get("m", 1)),
            true_function=kv.get("true_function", "mlp-teacher"),
            noise_sd=float(kv.get("noise_sd", 0.0)),
            component_quality=tuple(
                float(tok) for tok in kv.get("component_quality", "0.1,0.2,0.3").split(",")
            ),
            seed=int(kv.get("seed", 0)),
        )
    except KeyError as exc:
        raise DataError(f"missing task spec field: {exc}") from exc


class _Teacher:
    """Ground-truth function plus the recipe for graded components."""

    def __init__(self, spec: SyntheticTaskSpec, rng: np.random.Generator):
        self.spec = spec
        d, m = spec.d, spec.m
        self.kind = spec.true_function
        if self.kind == "linear":
            self.w = rng.standard_normal((d, m)) / np.sqrt(d)
            self.b = 0.1 * rng.standard_normal(m)
        elif self.kind == "mlp-teacher":
            h = 8
            self.w1 = rng.standard_normal((d, h)) * np.sqrt(2.0 / (d + h))
            self.b1 = 0.1 * rng.standard_normal(h)
            self.w2 = rng.standard_normal((h, m)) / np.sqrt(h)
            self.b2 = np.zeros(m)
        else:  # sum-of-experts
            e = max(1, len(spec.component_quality))
            self.experts = []
            for _ in range(e):
                w1 = rng.standard_normal((d, 4)) * np.sqrt(2.0 / (d + 4))
                b1 = 0.1 * rng.standard_normal(4)
                w2 = rng.standard_normal((4, m)) / 2.0
                self.experts.append((w1, b1, w2))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "linear":
            return x @ self.w + self.b
        if self.kind == "mlp-teacher":
            return np.tanh(x @ self.w1 + self.b1) @ self.w2 + self.b2
        out = 0.0
        for w1, b1, w2 in self.experts:
            out = out + np.tanh(x @ w1 + b1) @ w2
        return out

    def component(
        self, index: int, quality: float, rng: np.random.Generator, x_train: np.ndarray
    ) -> Component:
        """Component index approximates the teacher (or its expert) with a
        parallel perturbation of RMS `quality` on the training inputs."""
        d, m = self.spec.d, self.spec.m
        cid = f"f{index + 1}"
        if self.kind == "linear":
            u = rng.standard_normal((d, m))
            scale = _rms(x_train @ u)
            layers = [AffineLayer(self.w + quality * u / scale, self.b.copy(), LINEAR)]
            return Component(cid, KIND_PRETRAINED, ROLE_BASE, layers)
        if self.kind == "mlp-teacher":
            base = (self.w1, self.b1, self.w2, self.b2)
        else:
            w1, b1, w2 = self.experts[index % len(self.experts)]
            base = (w1, b1, w2, np.zeros(m))
        w1, b1, w2, b2 = base
        p = 4
        v1 = rng.standard_normal((d, p)) * np.sqrt(2.0 / (d + p))
        c1 = 0.1 * rng.standard_normal(p)
        v2 = rng.standard_normal((p, m))
        scale = _rms(np.tanh(x_train @ v1 + c1) @ v2)
        layers = [
            AffineLayer(np.hstack([w1, v1]), np.concatenate([b1, c1]), TANH),
            AffineLayer(np.vstack([w2, quality * v2 / scale]), b2.copy(), LINEAR),
        ]
        return Component(cid, KIND_PRETRAINED, ROLE_BASE, layers)


def _rms(values: np.ndarray) -> float:
    r = float(np.sqrt(np.mean(values**2)))
    if r == 0.0:
        raise DataError("degenerate perturbation (zero RMS)")
    return r


def generate_synthetic(
    spec: SyntheticTaskSpec,
    train_fraction: float = 0.8,
    max_retries: int = 50,
) -> tuple[Dataset, list[Component]]:
    """Teacher-labelled dataset plus graded pre-trained components.

    The returned ensemble passes the A1/A2 checks on the training split;
    draws that violate them are regenerated up to ``max_retries`` times.
    """
    if not (0.0 < train_fraction <= 1.0):
        raise DataError("train_fraction must lie in (0, 1]")
    rng = np.random.default_rng(spec.seed)
    x = rng.standard_normal((spec.n, spec.d))
    teacher = _Teacher(spec, rng)
    labels = teacher(x)
    if spec.noise_sd > 0:
        labels = labels + spec.noise_sd * rng.standard_normal(labels.shape)

    n_train = max(1, int(round(train_fraction * spec.n)))
    dataset = Dataset(
        inputs=x,
        labels=labels,
        train_idx=np.arange(n_train),
        test_idx=np.arange(n_train, spec.n),
    )
    x_train = x[dataset.train_idx]
    y_train = labels[dataset.train_idx]

    for _ in range(max_retries):
        comps = [
            teacher.component(j, q, rng, x_train)
            for j, q in enumerate(spec.component_quality)
        ]
        cols = np.column_stack([c.forward(x_train).ravel() for c in comps])
        report = check_assumptions(cols, y_train.ravel())
        if report.a1.holds and report.a2.holds:
            return dataset, comps
    raise DataError(
        f"could not satisfy A1/A2 within {max_retries} retries; "
        "a component matches the labels exactly or outputs are dependent"
    )


# -- CSV -------------------------------------------------------------------


def load_csv(path, features: list[str], labels: list[str]) -> Dataset:
    """Read a header CSV into a dataset.

    An optional ``split`` column assigns rows to train/test; without it
    every row lands in the training split.  Rows with unparseable or
    non-finite values are reported by line number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        duplicates = sorted({c for c in header if header.count(c) > 1})
        if duplicates:
            raise DataError(f"{path}: duplicate header columns: {', '.join(duplicates)}")
        missing = [c for c in list(features) + list(labels) if c not in header]
        if missing:
            raise DataError(f"{path}: missing columns: {', '.join(missing)}")
        col_idx = {name: header.index(name) for name in header}
        has_split = "split" in header

        rows_x, rows_y, split_tags = [], [], []
        bad_rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}: line {line_no}: {len(row)} cells, header has {len(header)}"
                )
            try:
                xs = [float(row[col_idx[c]]) for c in features]
                ys = [float(row[col_idx[c]]) for c in labels]
            except ValueError as exc:
                raise DataError(f"{path}: line {line_no}: cannot parse row ({exc})") from exc
            if not all(np.isfinite(xs)) or not all(np.isfinite(ys)):
                bad_rows.append(line_no)
                continue
            rows_x.append(xs)
            rows_y.append(ys)
            if has_split:
                tag = row[col_idx["split"]].strip().lower()
                if tag not in ("train", "test"):
                    raise DataError(f"{path}: line {line_no}: split must be train or test")
                split_tags.append(tag)
    if bad_rows:
        raise DataError(f"{path}: non-finite values in rows: {bad_rows}")
    if not rows_x:
        raise DataError(f"{path}: no data rows")
    x = np.asarray(rows_x, dtype=float)
    y = np.asarray(rows_y, dtype=float)
    if has_split:
        tags = np.asarray(split_tags)
        train_idx = np.flatnonzero(tags == "train")
        test_idx = np.flatnonzero(tags == "test")
    else:
        train_idx = np.arange(x.shape[0])
        test_idx = np.empty(0, dtype=int)
    return Dataset(inputs=x, labels=y, train_idx=train_idx, test_idx=test_idx)


def save_csv(
    path,
    dataset: Dataset,
    features: list[str] | None = None,
    labels: list[str] | None = None,
) -> None:
    """Write a dataset as CSV with exact (round-trippable) floats."""
    d = dataset.inputs.shape[1]
    m = dataset.labels.shape[1]
    features = features if features is not None else [f"x{i + 1}" for i in range(d)]
    labels = labels if labels is not None else [f"y{i + 1}" for i in range(m)]
    if len(features) != d or len(labels) != m:
        raise DataError("feature/label name counts do not match the data")
    tags = np.empty(dataset.n, dtype=object)
    tags[dataset.train_idx] = "train"
    tags[dataset.test_idx] = "test"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(features) + list(labels) + ["split"])
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.inputs[i]]
            row += [repr(float(v)) for v in dataset.labels[i]]
            row.append(tags[i])
            writer.writerow(row)


def load_grid_csv(path) -> np.ndarray:
    """Read a rectangular grid CSV; empty cells become NaN."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                rows.append([np.nan if cell.strip() == "" else float(cell) for cell in row])
            except ValueError as exc:
                raise DataError(f"{path}: line {line_no}: cannot parse cell ({exc})") from exc
    if not rows or len({len(r) for r in rows}) != 1:
        raise DataError(f"{path}: grid must be non-empty and rectangular")
    return np.asarray(rows, dtype=float)


def save_grid_csv(path, grid: np.ndarray) -> None:
    grid = np.asarray(grid, dtype=float)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in grid:
            writer.writerow(["" if not np.isfinite(v) else repr(float(v)) for v in row])
