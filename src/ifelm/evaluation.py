"""Error measures, classification metrics and cross-validation splits."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

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


def weight_output_errors(w_alg, w_base, z_alg, z_base) -> tuple[float, float]:
    """Frobenius distances of a rule's weights and outputs from the direct solve's."""
    if w_alg.shape != w_base.shape or z_alg.shape != z_base.shape:
        raise ShapeError(f"weight_output_errors shape mismatch: W {w_alg.shape} vs "
                         f"{w_base.shape}, Z {z_alg.shape} vs {z_base.shape}")
    return float(np.linalg.norm(w_alg - w_base)), float(np.linalg.norm(z_alg - z_base))


def _safe_div(num: float, den: float) -> float:
    # 0/0 cases are reported as 0 by convention
    return num / den if den != 0.0 else 0.0


def _binary_counts(pred: np.ndarray, true: np.ndarray) -> tuple[int, int, int, int]:
    tp = int(np.sum(pred & true))
    tn = int(np.sum(~pred & ~true))
    fp = int(np.sum(pred & ~true))
    fn = int(np.sum(~pred & true))
    return tp, tn, fp, fn


def _mcc(tp: int, tn: int, fp: int, fn: int) -> float:
    den = math.sqrt(float(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    return _safe_div(tp * tn - fp * fn, den)


def _binary_report(pred: np.ndarray, true: np.ndarray) -> ClassificationReport:
    """Report for boolean "is positive" predictions and targets."""
    tp, tn, fp, fn = _binary_counts(pred, true)
    return ClassificationReport(
        acc=(tp + tn) / pred.size, sn=_safe_div(tp, tp + fn), pe=_safe_div(tp, tp + fp),
        mcc=_mcc(tp, tn, fp, fn), tp=tp, tn=tn, fp=fp, fn=fn,
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

    # multiclass: micro accuracy, macro SN/PE/MCC over one-vs-rest
    acc = float(np.mean(pred_label == true_label))
    sns, pes, mccs = [], [], []
    tot = [0, 0, 0, 0]
    for cls in range(m):
        tp, tn, fp, fn = _binary_counts(pred_label == cls, true_label == cls)
        sns.append(_safe_div(tp, tp + fn))
        pes.append(_safe_div(tp, tp + fp))
        mccs.append(_mcc(tp, tn, fp, fn))
        for i, v in enumerate((tp, tn, fp, fn)):
            tot[i] += v
    return ClassificationReport(
        acc=acc, sn=float(np.mean(sns)), pe=float(np.mean(pes)),
        mcc=float(np.mean(mccs)), tp=tot[0], tn=tot[1], fp=tot[2], fn=tot[3],
    )


def kfold_split(k: int, folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded permutation split into `folds` near-equal disjoint test blocks."""
    if folds < 2:
        raise DomainError(f"need at least 2 folds, got {folds}")
    if folds > k:
        raise DomainError(f"cannot make {folds} folds from {k} samples")
    perm = np.random.default_rng(seed).permutation(k)
    blocks = np.array_split(perm, folds)
    out = []
    for i, test in enumerate(blocks):
        train = np.concatenate([b for j, b in enumerate(blocks) if j != i])
        out.append((np.sort(train), np.sort(test)))
    return out
