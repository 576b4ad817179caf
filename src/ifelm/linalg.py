"""Dense double-precision matrix helpers with optional flop instrumentation.

Matrices are plain 2-D float64 numpy arrays (row-major).  Products of the
kind "l1 x l2 times l2 x l3" are metered at 2*l1*l2*l3 multiply-adds, and an
in-place rank-one update of an l1 x l3 matrix at 2*l1*l3, when a counter is
passed; element-wise work is deliberately left uncounted so the recorded
numbers match the dominant-cost model used in reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

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


# Entries per dgemm call in `add_outer`.  OpenBLAS runs a gemm of at most
# 4 * 65536 multiply-adds on one thread.  With its default threads on a
# 2-vCPU machine, a 2000 x 501 update in one call took about 8 ms in over a
# quarter of 200 calls; in bands, 0.42-0.49 ms (quartiles).  Shared with
# `solvers._row_bands`, which walks EXISTING's B in bands of at most this
# many entries, cut at multiples of 8 rows so that each band's gemv rounds
# as the full-width call does.
_BAND = 1 << 17


def add_outer(dst: np.ndarray, x: np.ndarray, y: np.ndarray,
              counter: FlopCounter | None = None) -> np.ndarray:
    """dst += outer(x, y) in place; returns dst.

    Runs BLAS dgemm with inner dimension 1 on row bands of dst of at most
    `_BAND` entries (one row if a row is longer).  Each product x[i] y[j]
    is rounded once and added to dst with one more rounding, so the result
    is bitwise numpy's `dst + outer(x, y)`; negation is exact, so with -y it
    is bitwise `dst - outer(x, y)`.  dst must be C-contiguous, x and y 1-D
    of lengths rows(dst) and cols(dst); metered at 2*rows*cols.
    """
    rows, cols = dst.shape
    if not dst.flags.c_contiguous or x.shape != (rows,) or y.shape != (cols,):
        raise ShapeError(f"add_outer needs a C-contiguous dst matching outer({x.shape}, "
                         f"{y.shape}), got {dst.shape}")
    if counter is not None:
        counter.multiply_adds += 2 * rows * cols
    y_col = y.reshape(-1, 1)
    step = max(1, _BAND // cols)
    for i in range(0, rows, step):
        band = dst[i:i + step].T                 # F-contiguous, updated in place
        # f2py copies a c it cannot write in place; the update would be lost
        if blas.dgemm(1.0, y_col, x[i:i + step].reshape(1, -1), 1.0, band,
                      overwrite_c=1) is not band:
            raise ShapeError("add_outer: BLAS did not update dst in place")
    return dst


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
