"""Error measures, classification metrics and cross-validation splits."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .data import _check_counts
from .errors import DomainError, ShapeError


@dataclass(frozen=True)
class StepRecord:
    l: int
    weight_error: float
    output_error: float
    flops: int
    elapsed_ns: int


@dataclass
class GrowthTrace:
    """Per-iteration record of one solver's growth run."""

    algorithm: str
    records: list[StepRecord] = field(default_factory=list)

    def append(self, rec: StepRecord) -> None:
        if self.records and rec.l != self.records[-1].l + 1:
            raise DomainError(
                f"trace node counts must increase by 1, got {self.records[-1].l} -> {rec.l}"
            )
        self.records.append(rec)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["l", "weight_error", "output_error", "flops", "elapsed_ns"])
            for r in self.records:
                writer.writerow([r.l, repr(r.weight_error), repr(r.output_error),
                                 r.flops, r.elapsed_ns])


@dataclass(frozen=True)
class ClassificationReport:
    acc: float
    sn: float
    pe: float
    mcc: float
    tp: int
    tn: int
    fp: int
    fn: int


def mse(z: np.ndarray, y: np.ndarray) -> float:
    if z.shape != y.shape:
        raise ShapeError(f"mse shape mismatch: {z.shape} vs {y.shape}")
    return float(np.mean((np.asarray(z) - np.asarray(y)) ** 2))


def weight_output_errors(w_alg, w_ref, h) -> tuple[float, float]:
    """Weight and output errors (|D|_F, |D H|_F) of W_alg from W_ref, D = W_alg - W_ref."""
    if w_alg.shape != w_ref.shape or w_alg.shape[-1] != h.shape[0]:
        raise ShapeError(f"weight_output_errors shape mismatch: W {w_alg.shape} vs "
                         f"W_ref {w_ref.shape}, H {h.shape}")
    d = w_alg - w_ref
    return float(np.linalg.norm(d)), float(np.linalg.norm(d @ h))


def _safe_div(num: float, den: float) -> float:
    # 0/0 cases are reported as 0 by convention
    return num / den if den != 0.0 else 0.0


def _binary_report(pred: np.ndarray, true: np.ndarray) -> ClassificationReport:
    """Report for boolean "is positive" predictions and targets."""
    tp = int(np.sum(pred & true))
    tn = int(np.sum(~pred & ~true))
    fp = int(np.sum(pred & ~true))
    fn = int(np.sum(~pred & true))
    mcc_den = math.sqrt(float(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    return ClassificationReport(
        acc=(tp + tn) / pred.size, sn=_safe_div(tp, tp + fn), pe=_safe_div(tp, tp + fp),
        mcc=_safe_div(tp * tn - fp * fn, mcc_den), tp=tp, tn=tn, fp=fp, fn=fn,
    )


def classification_metrics(z: np.ndarray, y: np.ndarray) -> ClassificationReport:
    """ACC/SN/PE/MCC from argmax-decoded predictions.

    Binary convention: class index 0 is "positive" for one-hot targets with
    two rows; sign-positive (z >= 0) for single-row +/- coded targets.
    With more than two classes ACC is micro-averaged and SN/PE/MCC are
    macro-averaged over one-vs-rest splits.
    """
    if z.shape != y.shape:
        raise ShapeError(f"metrics shape mismatch: {z.shape} vs {y.shape}")
    m, k = z.shape
    if k == 0:
        raise DomainError("cannot score an empty sample set")

    if m == 1:
        return _binary_report(z[0] >= 0.0, y[0] >= 0.0)
    pred_label = np.argmax(z, axis=0)
    true_label = np.argmax(y, axis=0)
    if m == 2:
        # positive class is row index 0
        return _binary_report(pred_label == 0, true_label == 0)

    # multiclass: micro accuracy, macro SN/PE/MCC and summed counts over one-vs-rest
    reps = [_binary_report(pred_label == cls, true_label == cls) for cls in range(m)]
    return ClassificationReport(
        acc=float(np.mean(pred_label == true_label)),
        sn=float(np.mean([r.sn for r in reps])), pe=float(np.mean([r.pe for r in reps])),
        mcc=float(np.mean([r.mcc for r in reps])), tp=sum(r.tp for r in reps),
        tn=sum(r.tn for r in reps), fp=sum(r.fp for r in reps), fn=sum(r.fn for r in reps),
    )


def kfold_split(k: int, folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded permutation split into `folds` near-equal disjoint test blocks."""
    _check_counts(1, K=k)
    _check_counts(2, folds=folds)
    _check_counts(0, seed=seed)
    if folds > k:
        raise DomainError(f"cannot make {folds} folds from {k} samples")
    perm = np.random.default_rng(seed).permutation(k)
    blocks = np.array_split(perm, folds)
    out = []
    for i, test in enumerate(blocks):
        train = np.concatenate([b for j, b in enumerate(blocks) if j != i])
        out.append((np.sort(train), np.sort(test)))
    return out
