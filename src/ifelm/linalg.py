"""Dense double-precision matrix helpers with optional flop instrumentation.

Matrices are plain 2-D float64 numpy arrays (row-major).  Only products of
the kind "l1 x l2 times l2 x l3" are metered, at 2*l1*l2*l3 multiply-adds;
element-wise work and rank-one updates are deliberately left uncounted so
the recorded numbers match the dominant-cost model used in reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import ShapeError, SingularMatrixError


@dataclass
class FlopCounter:
    """Accumulates multiply-add counts for metered matrix products."""

    multiply_adds: int = 0


def gemm(a: np.ndarray, b: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
    """Matrix product a @ b, metered at 2*rows(a)*cols(a)*cols(b)."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"gemm needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"gemm shape mismatch: {a.shape} x {b.shape}")
    if counter is not None:
        counter.multiply_adds += 2 * a.shape[0] * a.shape[1] * b.shape[1]
    return a @ b


def cholesky(r: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor C of the SPD matrix R = C C^T, upper triangle zeroed.

    Raises SingularMatrixError naming the first non-positive pivot.
    """
    c, info = lapack.dpotrf(r, lower=1, clean=1)
    if info > 0:
        raise SingularMatrixError(
            f"matrix is not positive definite (pivot {info - 1})", pivot_index=info - 1
        )
    return c


def solve_spd(r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Solve R @ X = M for symmetric positive definite R via Cholesky.

    Never forms the explicit inverse; raises SingularMatrixError naming the
    failing pivot when R is not SPD.
    """
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ShapeError(f"solve_spd needs a square matrix, got {r.shape}")
    if m.shape[0] != r.shape[0]:
        raise ShapeError(f"solve_spd shape mismatch: {r.shape} x {m.shape}")
    scale = np.abs(r).max()
    if scale > 0 and np.abs(r - r.T).max() > 1e-12 * scale:
        raise ShapeError("solve_spd requires a symmetric matrix")
    return lapack.dpotrs(cholesky(r), m, lower=1)[0]
