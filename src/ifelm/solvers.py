"""Incremental output-weight solvers: add one hidden node, update W.

Five interchangeable update rules over the regularized least-squares
problem W = Y H^T (H H^T + k0sq I)^-1:

* BASELINE    re-solves the full system after every appended row of H.
* EXISTING    maintains the regularized pseudo-inverse B = H^T Q with the
              literal two-term bordered recursion (kept verbatim, redundant
              arithmetic included, so its cost model stays honest).
* ALG1        maintains B with the simplified recursion that reuses the
              row u = h^T B across the step.
* ALG2        maintains Q = (H H^T + k0sq I)^-1 directly; B is never formed.
* ALG3        maintains the factors L (unit upper-triangular) and D with
              L diag(D) L^T = Q, avoiding the drift of updating Q itself.

Every rule starts through `warm_start` (`init_solver` is its l0 = 1 case)
from one Cholesky factor C of H H^T + k0sq I; ALG3's factors come straight
from C as L = C^-T diag(C) and D = 1/diag(C)^2.

All rules grow W by a bordered column and agree with BASELINE up to
rounding.  Products along the K (sample) dimension run through the metered
gemm; l- and M-sized bookkeeping is deliberately unmetered so recorded
flops follow the dominant-cost model.  A step's metered count is the new
state's `multiply_adds` minus its parent's.

Storage model.  States are immutable to the caller, but the append-only
arrays H (a row per node), L (a column per node) and D (an entry per node)
live in buffers owned by the solver, whose capacity doubles when full; the
state's fields are exact l-sized views of them.  A step writes the new row
or column past the fill level in place only when the state's field is the
buffer's latest view.  Any other state copies into a new buffer first: one
that was already stepped, one with a `dataclasses.replace`d field, or one
whose arrays the caller passed in (`init_solver`'s h1 and `warm_start`'s h
are never written).  So re-stepping an old state is correct but pays a
copy, and chained growth appends in place.  B, Q and W are rewritten by
every step and are allocated once per step at their new size.  Two threads
must not step the same state at the same time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import lapack

from .errors import (
    DefinitenessLossError,
    DomainError,
    NumericalBreakdownError,
    ShapeError,
)
from .linalg import FlopCounter, cholesky, gemm, solve_spd

BREAKDOWN_RTOL = 1e-12


class AlgorithmKind(Enum):
    BASELINE = "baseline"
    EXISTING = "existing"
    ALG1 = "alg1"
    ALG2 = "alg2"
    ALG3 = "alg3"


class _Tail:
    """Owned buffer behind one append-only state array (H, L or D).

    `view` is the array most recently handed out: the filled part of
    `buf`, which has spare capacity along its grown axes.
    """

    __slots__ = ("buf", "view")

    def __init__(self, buf: np.ndarray):
        self.buf = buf
        self.view = None


def _owns(tail: _Tail | None, a: np.ndarray) -> bool:
    """True if `a` is `tail`'s latest view and the buffer has room past it."""
    return tail is not None and tail.view is a and tail.buf.shape[0] > a.shape[0]


def _append_row(tail: _Tail | None, a: np.ndarray, row) -> _Tail:
    """Append `row` to the rows of `a` (H, or the entries of D)."""
    n = a.shape[0]
    if not _owns(tail, a):
        tail = _Tail(np.empty((2 * (n + 1),) + a.shape[1:]))
        tail.buf[:n] = a
    tail.buf[n] = row
    tail.view = tail.buf[: n + 1]
    return tail


def _append_unit_column(tail: _Tail | None, a: np.ndarray, col: np.ndarray) -> _Tail:
    """Border the unit upper-triangular `a` with column `col` and a unit diagonal."""
    n = a.shape[0]
    if not _owns(tail, a):
        tail = _Tail(np.empty((2 * (n + 1),) * 2))
        tail.buf[:n, :n] = a
    buf = tail.buf
    buf[:n, n] = col
    buf[n, :n] = 0.0
    buf[n, n] = 1.0
    tail.view = buf[: n + 1, : n + 1]
    return tail


@dataclass(frozen=True)
class SolverState:
    """Immutable snapshot of one solver after l node additions.

    Aux content by kind: EXISTING/ALG1 carry B (K x l); ALG2 carries
    Q (l x l); ALG3 carries L (l x l, unit upper-triangular) and D (l,);
    BASELINE carries nothing beyond H, Y, W.  H, L and D may be views of
    solver-owned buffers (see the module docstring); treat every array as
    read-only.  `multiply_adds` is the metered cost of the steps from the
    start state (0 after `warm_start`) to this one.
    """

    kind: AlgorithmKind
    k0sq: float
    H: np.ndarray
    Y: np.ndarray
    W: np.ndarray
    B: np.ndarray | None = None
    Q: np.ndarray | None = None
    L: np.ndarray | None = None
    D: np.ndarray | None = None
    multiply_adds: int = 0
    _h_tail: _Tail | None = field(default=None, repr=False, compare=False)
    _l_tail: _Tail | None = field(default=None, repr=False, compare=False)
    _d_tail: _Tail | None = field(default=None, repr=False, compare=False)

    @property
    def l(self) -> int:
        return self.H.shape[0]

    @property
    def sample_count(self) -> int:
        return self.H.shape[1]


def _check_k0sq(k0sq: float) -> float:
    if not (k0sq > 0.0 and math.isfinite(k0sq)):
        raise DomainError(f"regularization k0sq must be finite and > 0, got {k0sq}")
    return float(k0sq)


def solve_direct(h: np.ndarray, y: np.ndarray, k0sq: float,
                 counter: FlopCounter | None = None) -> np.ndarray:
    """Direct regularized solve W = Y H^T (H H^T + k0sq I)^-1.

    Uses a Cholesky solve, never an explicit inverse; this is the oracle
    every incremental rule is compared against (`solve_direct_prefixes`
    gives it for many prefixes of H at once).
    """
    _check_k0sq(k0sq)
    if h.ndim != 2 or y.ndim != 2 or h.shape[1] != y.shape[1]:
        raise ShapeError(f"solve_direct shapes: H {h.shape}, Y {y.shape}")
    r = gemm(h, h.T, counter) + k0sq * np.eye(h.shape[0])
    rhs = gemm(h, y.T, counter)
    return solve_spd(r, rhs).T


def solve_direct_prefixes(h: np.ndarray, y: np.ndarray, k0sq: float,
                          ls) -> dict[int, np.ndarray]:
    """`solve_direct(h[:l], y, k0sq)` for every l in `ls`, from one Cholesky factor.

    The leading l x l block of the Cholesky factor C of the Gram matrix
    R = H H^T + k0sq I (n = max(ls) rows of h) is the Cholesky factor of
    the prefix Gram H_l H_l^T + k0sq I, and the first l rows of Y H^T are
    the prefix right-hand side.  So one Gram product and one factorization
    serve every l, each solved with two triangular solves on C[:l, :l].
    At l = n the result is bitwise equal to `solve_direct(h[:n], y, k0sq)`;
    at smaller l it differs from it by rounding only.  A Gram matrix that
    is not positive definite raises SingularMatrixError at its first
    non-positive pivot, as the per-l solve of the next larger prefix does.
    """
    _check_k0sq(k0sq)
    if h.ndim != 2 or y.ndim != 2 or h.shape[1] != y.shape[1]:
        raise ShapeError(f"solve_direct_prefixes shapes: H {h.shape}, Y {y.shape}")
    ls = list(ls)
    if not ls or not 1 <= min(ls) <= max(ls) <= h.shape[0]:
        span = f"{min(ls)}..{max(ls)}" if ls else "none"
        raise DomainError(f"prefix lengths must lie in 1..{h.shape[0]}, got {span}")
    n = max(ls)
    c = cholesky(gemm(h[:n], h[:n].T) + k0sq * np.eye(n))
    rhs = gemm(h[:n], y.T)
    return {l: lapack.dpotrs(c[:l, :l], rhs[:l], lower=1)[0].T for l in ls}


def init_solver(kind: AlgorithmKind, h1: np.ndarray, y: np.ndarray, k0sq: float) -> SolverState:
    """Start from the single hidden row h1: `warm_start` with l0 = 1."""
    h1 = np.asarray(h1, dtype=np.float64).reshape(1, -1)
    return warm_start(kind, h1, y, k0sq)


def warm_start(kind: AlgorithmKind, h: np.ndarray, y: np.ndarray, k0sq: float) -> SolverState:
    """Start any rule from an l0 >= 1 node block with one Cholesky factorization.

    With C the lower Cholesky factor of R = H H^T + k0sq I, Q = R^-1 comes
    from two triangular solves with C (symmetrised), B = H^T Q and W = Y B.
    ALG3 takes its factors from C without forming Q: C^-T is upper
    triangular with diagonal 1/diag(C), so Q = C^-T C^-1 = L diag(D) L^T for
    L = C^-T diag(C) (unit diagonal) and D = 1/diag(C)^2.  The start is
    unmetered: the returned state's `multiply_adds` is 0.
    """
    k0sq = _check_k0sq(k0sq)
    h = np.asarray(h, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if h.ndim != 2 or y.ndim != 2 or h.shape[1] != y.shape[1]:
        raise ShapeError(f"warm_start shapes: H {h.shape}, Y {y.shape}")
    if h.size < 1:
        raise ShapeError(f"warm_start needs a non-empty H, got {h.shape}")
    eye = np.eye(h.shape[0])
    c = cholesky(h @ h.T + k0sq * eye)
    q = lapack.dpotrs(c, eye, lower=1)[0]
    q = 0.5 * (q + q.T)
    b = h.T @ q
    aux = {}
    if kind in (AlgorithmKind.EXISTING, AlgorithmKind.ALG1):
        aux = {"B": b}
    elif kind is AlgorithmKind.ALG2:
        aux = {"Q": q}
    elif kind is AlgorithmKind.ALG3:
        diag = np.diag(c)
        upper = lapack.dtrtri(c, lower=1)[0].T * diag
        np.fill_diagonal(upper, 1.0)
        aux = {"L": upper, "D": 1.0 / diag**2}
    return SolverState(kind=kind, k0sq=k0sq, H=h, Y=y, W=y @ b, **aux)


def _row(state: SolverState, h_bar: np.ndarray) -> np.ndarray:
    """The new hidden row as a flat float64 array; every rule checks it has K entries."""
    h_bar = np.asarray(h_bar, dtype=np.float64).reshape(-1)
    if h_bar.size != state.sample_count:
        raise ShapeError(f"h_bar has {h_bar.size} entries, expected K={state.sample_count}")
    return h_bar


def compute_p(state: SolverState, h_bar: np.ndarray, counter: FlopCounter) -> np.ndarray:
    """Cross term p = H h_bar shared by every incremental rule (cost 2lK)."""
    return gemm(state.H, np.asarray(h_bar, dtype=np.float64).reshape(-1, 1), counter).reshape(-1)


def _schur_denominator(c: float, correction: float, node_index: int) -> float:
    """Validate 1/tau = c - correction; c = h^T h + k0sq is the safe scale."""
    delta = c - correction
    if abs(delta) <= BREAKDOWN_RTOL * c:
        raise NumericalBreakdownError(
            f"Schur denominator {delta:.3e} vanished at node {node_index}"
        )
    if delta <= 0.0:
        raise DefinitenessLossError(
            f"lost positive definiteness at node {node_index} (denominator {delta:.3e})",
            node_index=node_index,
        )
    return delta


def _grown(state: SolverState, h_bar: np.ndarray, w_new: np.ndarray,
           counter: FlopCounter, **aux) -> SolverState:
    """The child state with h_bar appended to H; `aux` is the rule's whole aux set.

    Aux fields a rule does not pass are None, as in every state of that rule.
    """
    h_tail = _append_row(state._h_tail, state.H, h_bar)
    return SolverState(kind=state.kind, k0sq=state.k0sq, H=h_tail.view, Y=state.Y,
                       W=w_new, multiply_adds=counter.multiply_adds, _h_tail=h_tail, **aux)


# A leading block of at most this many entries is computed in a contiguous
# scratch array and then copied in: at such sizes numpy's per-row loop
# overhead on the strided block costs more than the copy.  Larger blocks
# are computed in place, which saves a temporary and a pass over memory.
_SCRATCH_MAX = 1 << 15


def _with_block(rows: int, cols: int, fill) -> np.ndarray:
    """New rows x (cols + 1) array whose leading block `fill(block)` computes.

    `fill` writes into and returns the array it is given; the last column is
    left for the caller.
    """
    out = np.empty((rows, cols + 1))
    if rows * cols <= _SCRATCH_MAX:
        out[:, :-1] = fill(np.empty((rows, cols)))
    else:
        fill(out[:, :-1])
    return out


def _bordered(a: np.ndarray, col: np.ndarray, row: np.ndarray,
              subtract: bool = False) -> np.ndarray:
    """[a + outer(col, row), col] (a - outer with `subtract`) in one new array.

    Rounds exactly as forming the outer product, the sum and the hstack apart.
    """
    op = np.subtract if subtract else np.add
    out = _with_block(*a.shape, lambda blk: op(a, np.outer(col, row, out=blk), out=blk))
    out[:, -1] = col
    return out


def add_node_baseline(state: SolverState, h_bar: np.ndarray) -> SolverState:
    cnt = FlopCounter(state.multiply_adds)
    h_tail = _append_row(state._h_tail, state.H, _row(state, h_bar))
    w = solve_direct(h_tail.view, state.Y, state.k0sq, cnt)
    return SolverState(kind=state.kind, k0sq=state.k0sq, H=h_tail.view, Y=state.Y, W=w,
                       multiply_adds=cnt.multiply_adds, _h_tail=h_tail)


def add_node_existing(state: SolverState, h_bar: np.ndarray) -> SolverState:
    """Literal two-term bordered update of the pseudo-inverse B.

    Both terms evaluate their own ((c I - h h^T) B) product and the output
    weights are recomputed in full as Y B, which is exactly the 16lK + 2MlK
    cost this rule is charged in comparisons.
    """
    cnt = FlopCounter(state.multiply_adds)
    h_bar = _row(state, h_bar)
    h_col = h_bar.reshape(-1, 1)
    b = state.B
    c = float(h_bar @ h_bar) + state.k0sq

    # first term: ((c I - h h^T) B) (H h) (h^T B) / (c (c - h^T B H h))
    u1 = gemm(h_col.T, b, cnt)                       # 1 x l
    g1 = c * b - gemm(h_col, u1, cnt)                # K x l
    p = gemm(state.H, h_col, cnt)                    # l x 1
    v = gemm(g1, p, cnt)                             # K x 1
    t1 = gemm(v, u1, cnt)                            # K x l
    d = gemm(u1, p, cnt)[0, 0]                       # h^T B H h
    delta = _schur_denominator(c, d, state.l + 1)
    # second term: ((c I - h h^T) B) / c, evaluated afresh as printed
    u2 = gemm(h_col.T, b, cnt)
    g2 = c * b - gemm(h_col, u2, cnt)
    b_new = _with_block(state.sample_count, state.l, lambda blk: np.add(
        np.divide(t1, c * delta, out=blk), g2 / c, out=blk))

    b_new[:, -1] = (-gemm(b_new[:, :-1], p, cnt).reshape(-1) + h_bar) / c
    w = gemm(state.Y, b_new, cnt)
    return _grown(state, h_bar, w, cnt, B=b_new)


def add_node_alg1(state: SolverState, h_bar: np.ndarray) -> SolverState:
    """Simplified B update; the row u = h^T B is computed once and reused."""
    cnt = FlopCounter(state.multiply_adds)
    h_bar = _row(state, h_bar)
    h_col = h_bar.reshape(-1, 1)
    b = state.B
    c = float(h_bar @ h_bar) + state.k0sq

    p = gemm(state.H, h_col, cnt)                    # l x 1
    u = gemm(h_col.T, b, cnt).reshape(-1)            # h^T B, reused twice
    delta = _schur_denominator(c, float(u @ p.reshape(-1)), state.l + 1)
    tau = 1.0 / delta
    b_bar = tau * (h_bar - gemm(b, p, cnt).reshape(-1))
    b_new = _bordered(b, b_bar, u, subtract=True)
    w_bar = gemm(state.Y, b_bar.reshape(-1, 1), cnt).reshape(-1)
    w = _bordered(state.W, w_bar, u, subtract=True)
    return _grown(state, h_bar, w, cnt, B=b_new)


def _weight_border(state: SolverState, h_bar: np.ndarray, p: np.ndarray,
                   tau: float, t_tilde: np.ndarray, counter: FlopCounter) -> np.ndarray:
    """Shared W growth for the Q- and factor-based rules.

    w_bar = tau (Y h - W p); the retained block moves by the rank-one
    correction W + w_bar t_tilde^T, where t_tilde = t / tau.
    """
    w_bar = tau * (
        gemm(state.Y, h_bar.reshape(-1, 1), counter).reshape(-1) - state.W @ p
    )
    return _bordered(state.W, w_bar, t_tilde)


def add_node_alg2(state: SolverState, h_bar: np.ndarray) -> SolverState:
    """Bordered update of the inverse Q; the pseudo-inverse is never formed."""
    cnt = FlopCounter(state.multiply_adds)
    h_bar = _row(state, h_bar)
    c = float(h_bar @ h_bar) + state.k0sq
    p = compute_p(state, h_bar, cnt)

    qp = state.Q @ p
    delta = _schur_denominator(c, float(p @ qp), state.l + 1)
    tau = 1.0 / delta
    t = -tau * qp
    q_new = np.empty((state.l + 1, state.l + 1))
    q_tilde = np.outer(t, t, out=q_new[:-1, :-1])
    q_tilde /= tau
    q_tilde += state.Q
    q_new[:-1, -1] = t
    q_new[-1, :-1] = t
    q_new[-1, -1] = tau

    w = _weight_border(state, h_bar, p, tau, t / tau, cnt)
    return _grown(state, h_bar, w, cnt, Q=q_new)


def add_node_alg3(state: SolverState, h_bar: np.ndarray) -> SolverState:
    """Bordered update of the factors L, D with L diag(D) L^T = Q.

    The product L D L^T is never materialized: v = L^T p, then the scaled
    back product gives both the new column and the Schur denominator.
    """
    cnt = FlopCounter(state.multiply_adds)
    h_bar = _row(state, h_bar)
    c = float(h_bar @ h_bar) + state.k0sq
    p = compute_p(state, h_bar, cnt)

    v = state.L.T @ p
    dv = state.D * v
    t_tilde = -(state.L @ dv)
    delta = _schur_denominator(c, float(v @ dv), state.l + 1)
    tau = 1.0 / delta

    w = _weight_border(state, h_bar, p, tau, t_tilde, cnt)
    l_tail = _append_unit_column(state._l_tail, state.L, t_tilde)
    d_tail = _append_row(state._d_tail, state.D, tau)
    return _grown(state, h_bar, w, cnt,
                  L=l_tail.view, D=d_tail.view, _l_tail=l_tail, _d_tail=d_tail)


_ADDERS = {
    AlgorithmKind.BASELINE: add_node_baseline,
    AlgorithmKind.EXISTING: add_node_existing,
    AlgorithmKind.ALG1: add_node_alg1,
    AlgorithmKind.ALG2: add_node_alg2,
    AlgorithmKind.ALG3: add_node_alg3,
}


def add_node(state: SolverState, h_bar: np.ndarray) -> SolverState:
    """Dispatch one node addition to the state's update rule."""
    return _ADDERS[state.kind](state, h_bar)
