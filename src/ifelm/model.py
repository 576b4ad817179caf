"""Random frozen hidden layer of the network and its evaluation.

The hidden layer is h = f(A x + d) with A and d drawn once from a seeded
uniform [-1, 1] generator and never trained.  Only the output weights W
(fitted elsewhere) change as hidden nodes are added.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, ShapeError


class ActivationKind(Enum):
    LINEAR = "linear"
    SIGMOID = "sigmoid"
    GAUSSIAN = "gaussian"
    SINE = "sine"
    TRIANGULAR = "triangular"
    HARDLIM = "hardlim"


@dataclass(frozen=True)
class ElmParams:
    """Input weights A (l x N), biases d (l,) and the activation kind."""

    A: np.ndarray
    d: np.ndarray
    kind: ActivationKind

    def __post_init__(self):
        if self.A.ndim != 2 or self.d.ndim != 1:
            raise ShapeError(f"params shapes: A {self.A.shape}, d {self.d.shape}")
        if self.A.shape[0] != self.d.shape[0]:
            raise ShapeError(
                f"A has {self.A.shape[0]} rows but d has {self.d.shape[0]} entries"
            )

    @property
    def hidden_count(self) -> int:
        return self.A.shape[0]

    @property
    def input_count(self) -> int:
        return self.A.shape[1]


def init_random_params(l: int, n: int, kind: ActivationKind, seed: int) -> ElmParams:
    """Draw A (l x n) and d (l,) i.i.d. uniform on [-1, 1], deterministically."""
    if l < 1 or n < 1:
        raise DomainError(f"need l >= 1 and N >= 1, got l={l}, N={n}")
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(l, n))
    d = rng.uniform(-1.0, 1.0, size=l)
    return ElmParams(A=a, d=d, kind=kind)


def activate(kind: ActivationKind, m: np.ndarray) -> np.ndarray:
    """Apply the activation entry-wise.

    Hardlim uses the step convention x >= 0 -> 1; triangular is
    max(0, 1 - |x|); gaussian is exp(-x^2) with unit width.
    """
    if kind is ActivationKind.LINEAR:
        return np.array(m, dtype=np.float64, copy=True)
    if kind is ActivationKind.SIGMOID:
        return 1.0 / (1.0 + np.exp(-m))
    if kind is ActivationKind.GAUSSIAN:
        return np.exp(-np.square(m))
    if kind is ActivationKind.SINE:
        return np.sin(m)
    if kind is ActivationKind.TRIANGULAR:
        return np.maximum(0.0, 1.0 - np.abs(m))
    if kind is ActivationKind.HARDLIM:
        return np.where(m >= 0.0, 1.0, 0.0)
    raise DomainError(f"unknown activation kind {kind!r}")


def hidden_matrix(params: ElmParams, x: np.ndarray) -> np.ndarray:
    """All hidden-node values over the sample columns: f(A X + d 1^T)."""
    if x.ndim != 2 or x.shape[0] != params.input_count:
        raise ShapeError(
            f"X must be {params.input_count} x K, got {x.shape}"
        )
    return activate(params.kind, params.A @ x + params.d[:, None])
