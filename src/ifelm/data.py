"""Dataset ingestion, normalization and synthetic data generation.

CSV layout: UTF-8, comma-delimited, one sample per row, optional single
header row, every other cell a finite number, the last `target_columns`
columns are targets.  Internally samples become columns: X is N x K, Y is
M x K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CsvParseError, DomainError, ShapeError


class TaskKind(Enum):
    REGRESSION = "regression"
    CLASSIFICATION = "classification"


class SynthKind(Enum):
    SINE_MIXTURE = "sine-mixture"
    LINEAR_NOISY = "linear-noisy"
    TWO_GAUSSIANS = "two-gaussians"


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray
    Y: np.ndarray
    task: TaskKind

    def __post_init__(self):
        if self.X.ndim != 2 or self.Y.ndim != 2 or self.X.shape[1] != self.Y.shape[1]:
            raise ShapeError(f"dataset shapes: X {self.X.shape}, Y {self.Y.shape}")
        if self.X.shape[1] < 1:
            raise DomainError("dataset needs at least one sample")

    @property
    def sample_count(self) -> int:
        return self.X.shape[1]


def one_hot(labels: np.ndarray) -> np.ndarray:
    """Encode with {0,1} rows, class order = first appearance in the data."""
    seen: list[float] = []
    for v in labels:
        if v not in seen:
            seen.append(float(v))
    y = np.zeros((len(seen), labels.size))
    for k, v in enumerate(labels):
        y[seen.index(float(v)), k] = 1.0
    return y


def load_csv(path, target_columns: int, task: TaskKind,
             has_header: bool = False) -> Dataset:
    if target_columns < 1:
        raise DomainError(f"target_columns must be >= 1, got {target_columns}")
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = 1 if has_header and lines else 0
    width = None
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise CsvParseError(
                f"line {lineno}: expected {width} columns, found {len(cells)}",
                line=lineno,
            )
        parsed = []
        for colno, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise CsvParseError(
                    f"line {lineno}, column {colno}: not a finite number: {cell.strip()!r}",
                    line=lineno, column=colno,
                )
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise DomainError(f"no data rows in {path}")
    if width is not None and target_columns >= width:
        raise DomainError(
            f"target_columns={target_columns} leaves no features (row width {width})"
        )

    table = np.array(rows, dtype=np.float64)
    x = table[:, :-target_columns].T
    targets = table[:, -target_columns:]
    if task is TaskKind.CLASSIFICATION and target_columns == 1:
        return Dataset(X=x, Y=one_hot(targets[:, 0]), task=task)
    return Dataset(X=x, Y=targets.T, task=task)


def normalize_features(ds: Dataset):
    """Affinely map each feature to [-1, 1]; constant features map to 0.

    Returns the normalized dataset and the per-feature (min, max) transform
    for reuse on held-out data.
    """
    lo = ds.X.min(axis=1)
    hi = ds.X.max(axis=1)
    transform = list(zip(lo.tolist(), hi.tolist()))
    return apply_normalization(ds, transform), transform


def apply_normalization(ds: Dataset, transform) -> Dataset:
    lo = np.array([t[0] for t in transform])
    hi = np.array([t[1] for t in transform])
    if lo.size != ds.X.shape[0]:
        raise ShapeError(
            f"transform has {lo.size} features, dataset has {ds.X.shape[0]}"
        )
    span = hi - lo
    safe = np.where(span == 0.0, 1.0, span)
    x = 2.0 * (ds.X - lo[:, None]) / safe[:, None] - 1.0
    x[span == 0.0, :] = 0.0
    return Dataset(X=x, Y=ds.Y, task=ds.task)


def synth_dataset(kind: SynthKind, k: int, n: int, m: int, seed: int,
                  noise: float = 0.05) -> Dataset:
    """Deterministic seeded synthetic data with a known generating process."""
    if k < 1 or n < 1 or m < 1:
        raise DomainError(f"need K, N, M >= 1, got K={k}, N={n}, M={m}")
    rng = np.random.default_rng(seed)

    if kind is SynthKind.SINE_MIXTURE:
        x = rng.uniform(-1.0, 1.0, size=(n, k))
        freq = rng.uniform(0.5, 3.0, size=(m, n))
        phase = rng.uniform(-np.pi, np.pi, size=m)
        y = np.sin(freq @ x + phase[:, None]) + noise * rng.standard_normal((m, k))
        return Dataset(X=x, Y=y, task=TaskKind.REGRESSION)

    if kind is SynthKind.LINEAR_NOISY:
        x = rng.uniform(-1.0, 1.0, size=(n, k))
        coeff = rng.uniform(-2.0, 2.0, size=(m, n))
        y = coeff @ x + noise * rng.standard_normal((m, k))
        return Dataset(X=x, Y=y, task=TaskKind.REGRESSION)

    if kind is SynthKind.TWO_GAUSSIANS:
        # m >= 2: one well-separated spherical cluster per class, one-hot Y
        classes = max(m, 2)
        means = 4.0 * rng.standard_normal((classes, n))
        assign = rng.integers(0, classes, size=k)
        x = means[assign].T + noise * rng.standard_normal((n, k))
        if m == 1:
            y = np.where(assign == 0, 1.0, -1.0).reshape(1, -1)
            return Dataset(X=x, Y=y, task=TaskKind.CLASSIFICATION)
        y = np.zeros((classes, k))
        y[assign, np.arange(k)] = 1.0
        return Dataset(X=x, Y=y, task=TaskKind.CLASSIFICATION)

    raise DomainError(f"unknown synthetic kind {kind!r}")

