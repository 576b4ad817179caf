"""Dense double-precision matrix helpers.

Matrices are plain 2-D float64 numpy arrays (row-major).  The solvers run
the products their cost model charges through `gemm`, an l1 x l2 times
l2 x l3 product at 2*l1*l2*l3 multiply-adds, and `add_outer`, an in-place
rank-one update of an l1 x l3 matrix at 2*l1*l3; `solvers.step_multiply_adds`
sums them per step.  A symmetric positive definite system is solved in two
calls: `cholesky` factors it once, and `solve_spd` solves with that factor
or a leading block of it.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas, lapack

from .errors import NumericalBreakdownError, ShapeError


def gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product a @ b of 2-D operands, costed at 2*rows(a)*cols(a)*cols(b)."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"gemm needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"gemm shape mismatch: {a.shape} x {b.shape}")
    return a @ b


# Entries per row band, the one band size of both row-band walks,
# `_store._bordered` (alg1's B, alg2's Q, every W border) and
# `solvers._existing`, for three reasons.  OpenBLAS runs a gemm of at most
# 4 * 65536 multiply-adds on one thread, and a band's dgemm stays under it:
# with its default threads on a 2-vCPU machine, a 2000 x 501 update in one
# dgemm took about 8 ms in over a quarter of 200 calls.  `row_bands` cuts at
# multiples of 8 rows, where OpenBLAS's gemv over a band rounds each row as
# its call over all rows does; over bands of 257 or 262 rows it did not.
# And `_existing` keeps four band arrays live (B's band, the scratch g and
# t1, the new B's band), 1 MiB together at this size, so they fit a 2 MiB L2.
_BAND = 1 << 15


def row_bands(rows: int, cols: int) -> list[slice]:
    """Row slices tiling 0..rows in order, each of at most `_BAND` entries of `cols` columns.

    Every band starts at a multiple of 8 rows, and holds 8 rows if 8 rows
    alone exceed `_BAND`.
    """
    step = _BAND // cols // 8 * 8 or 8               # a multiple of 8, so max(8, ...)
    if 0 < rows <= step:                             # one band, without the comprehension's cost
        return [slice(0, rows)]
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def add_outer(dst: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """dst += outer(x, y) in place by one BLAS dgemm of inner dimension 1; returns dst.

    Callers band large updates themselves, one `row_bands` band per call.
    Each product x[i] y[j] is rounded once and added to dst with one more
    rounding, so the result is bitwise numpy's `dst + outer(x, y)`; negation
    is exact, so with -y it is bitwise `dst - outer(x, y)`.  dst must be
    C-contiguous, x and y 1-D of lengths rows(dst) and cols(dst); costed at
    2*rows*cols.
    """
    rows, cols = dst.shape
    if not dst.flags.c_contiguous or x.shape != (rows,) or y.shape != (cols,):
        raise ShapeError(f"add_outer needs a C-contiguous dst matching outer({x.shape}, "
                         f"{y.shape}), got {dst.shape}")
    dst_t = dst.T                                    # F-contiguous, updated in place
    # f2py copies a c it cannot write in place; the update would be lost.  The
    # optional arguments beta, c, trans_a, trans_b, overwrite_c go by position:
    # f2py parses them at twice the speed of keywords
    if blas.dgemm(1.0, y.reshape(-1, 1), x.reshape(1, -1), 1.0, dst_t, 0, 0, 1) is not dst_t:
        raise ShapeError("add_outer: BLAS did not update dst in place")
    return dst


def cholesky(r: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor C of the SPD matrix R = C C^T, upper triangle zeroed.

    C[n-1, n-1]^2 is the Schur denominator of node n, so a pivot that is not
    positive raises NumericalBreakdownError with `node_index` n, from 1.
    """
    c, info = lapack.dpotrf(r, lower=1, clean=1)
    if info > 0:
        raise NumericalBreakdownError(f"matrix is not positive definite at node {info}",
                                      node_index=info)
    return c


def solve_spd(c: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Solve C C^T X = M for X, C the lower factor from `cholesky` or a leading block of it.

    Never forms the explicit inverse; only C's lower triangle is read.
    """
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ShapeError(f"solve_spd needs a square factor, got {c.shape}")
    if m.shape[0] != c.shape[0]:
        raise ShapeError(f"solve_spd shape mismatch: {c.shape} x {m.shape}")
    return lapack.dpotrs(c, m, lower=1)[0]
