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

All rules grow W by a bordered column and agree with BASELINE up to
rounding.  Products along the K (sample) dimension run through the metered
gemm; l- and M-sized bookkeeping is deliberately unmetered so recorded
flops follow the dominant-cost model.

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

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
import scipy.linalg

from .errors import (
    DefinitenessLossError,
    DomainError,
    NumericalBreakdownError,
    ShapeError,
)
from .linalg import FlopCounter, gemm, solve_spd

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
    read-only.
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
    counter: FlopCounter | None = None
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
    every incremental rule is compared against.
    """
    _check_k0sq(k0sq)
    if h.ndim != 2 or y.ndim != 2 or h.shape[1] != y.shape[1]:
        raise ShapeError(f"solve_direct shapes: H {h.shape}, Y {y.shape}")
    r = gemm(h, h.T, counter) + k0sq * np.eye(h.shape[0])
    rhs = gemm(h, y.T, counter)
    return solve_spd(r, rhs).T


def init_solver(kind: AlgorithmKind, h1: np.ndarray, y: np.ndarray, k0sq: float,
                enable_flops: bool = False) -> SolverState:
    """Closed-form l = 1 base case; all kinds agree with solve_direct."""
    k0sq = _check_k0sq(k0sq)
    h1 = np.asarray(h1, dtype=np.float64).reshape(-1)
    if h1.size < 1:
        raise ShapeError("h1 must have at least one entry")
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != h1.size:
        raise ShapeError(f"Y must be M x {h1.size}, got {y.shape}")
    r = float(h1 @ h1) + k0sq
    counter = FlopCounter() if enable_flops else None
    state = SolverState(
        kind=kind, k0sq=k0sq, H=h1.reshape(1, -1), Y=y,
        W=(y @ h1 / r).reshape(-1, 1), counter=counter,
    )
    if kind in (AlgorithmKind.EXISTING, AlgorithmKind.ALG1):
        state = replace(state, B=(h1 / r).reshape(-1, 1))
    elif kind is AlgorithmKind.ALG2:
        state = replace(state, Q=np.array([[1.0 / r]]))
    elif kind is AlgorithmKind.ALG3:
        state = replace(state, L=np.array([[1.0]]), D=np.array([1.0 / r]))
    return state


def warm_start(kind: AlgorithmKind, h: np.ndarray, y: np.ndarray, k0sq: float,
               enable_flops: bool = False) -> SolverState:
    """Start from an l0 > 1 node block via one direct factorization.

    Gives every kind a consistent state (W, and B, Q or L/D as needed)
    without replaying l0 incremental steps.
    """
    k0sq = _check_k0sq(k0sq)
    h = np.asarray(h, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if h.ndim != 2 or y.ndim != 2 or h.shape[1] != y.shape[1]:
        raise ShapeError(f"warm_start shapes: H {h.shape}, Y {y.shape}")
    if h.shape[0] == 1:
        return init_solver(kind, h[0], y, k0sq, enable_flops=enable_flops)
    r = h @ h.T + k0sq * np.eye(h.shape[0])
    q = solve_spd(r, np.eye(h.shape[0]))
    q = 0.5 * (q + q.T)
    w = y @ (h.T @ q)
    counter = FlopCounter() if enable_flops else None
    state = SolverState(kind=kind, k0sq=k0sq, H=h, Y=y, W=w, counter=counter)
    if kind in (AlgorithmKind.EXISTING, AlgorithmKind.ALG1):
        state = replace(state, B=h.T @ q)
    elif kind is AlgorithmKind.ALG2:
        state = replace(state, Q=q)
    elif kind is AlgorithmKind.ALG3:
        ld, dd, _ = scipy.linalg.ldl(r, lower=True)
        # R = Ll diag(dl) Ll^T  =>  Q = L diag(D) L^T with L = Ll^-T
        upper = scipy.linalg.solve_triangular(
            ld, np.eye(h.shape[0]), lower=True, unit_diagonal=True
        ).T
        state = replace(state, L=upper, D=1.0 / np.diag(dd))
    return state


def compute_p(state: SolverState, h_bar: np.ndarray) -> np.ndarray:
    """Cross term p = H h_bar shared by every incremental rule (cost 2lK)."""
    h_bar = np.asarray(h_bar, dtype=np.float64).reshape(-1)
    if h_bar.size != state.sample_count:
        raise ShapeError(
            f"h_bar has {h_bar.size} entries, expected K={state.sample_count}"
        )
    return gemm(state.H, h_bar.reshape(-1, 1), state.counter).reshape(-1)


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


def _grown(state: SolverState, h_bar: np.ndarray, w_new: np.ndarray, **aux) -> SolverState:
    h_tail = _append_row(state._h_tail, state.H, h_bar)
    return replace(state, H=h_tail.view, W=w_new, _h_tail=h_tail, **aux)


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
    h_bar = np.asarray(h_bar, dtype=np.float64).reshape(-1)
    h_tail = _append_row(state._h_tail, state.H, h_bar)
    w = solve_direct(h_tail.view, state.Y, state.k0sq, state.counter)
    return replace(state, H=h_tail.view, W=w, _h_tail=h_tail)


def add_node_existing(state: SolverState, h_bar: np.ndarray) -> SolverState:
    """Literal two-term bordered update of the pseudo-inverse B.

    Both terms evaluate their own ((c I - h h^T) B) product and the output
    weights are recomputed in full as Y B, which is exactly the 16lK + 2MlK
    cost this rule is charged in comparisons.
    """
    cnt = state.counter
    h_bar = np.asarray(h_bar, dtype=np.float64).reshape(-1)
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
    return _grown(state, h_bar, w, B=b_new)


def add_node_alg1(state: SolverState, h_bar: np.ndarray) -> SolverState:
    """Simplified B update; the row u = h^T B is computed once and reused."""
    cnt = state.counter
    h_bar = np.asarray(h_bar, dtype=np.float64).reshape(-1)
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
    return _grown(state, h_bar, w, B=b_new)


def _weight_border(state: SolverState, h_bar: np.ndarray, p: np.ndarray,
                   tau: float, t_tilde: np.ndarray) -> np.ndarray:
    """Shared W growth for the Q- and factor-based rules.

    w_bar = tau (Y h - W p); the retained block moves by the rank-one
    correction W + w_bar t_tilde^T, where t_tilde = t / tau.
    """
    cnt = state.counter
    w_bar = tau * (
        gemm(state.Y, h_bar.reshape(-1, 1), cnt).reshape(-1) - state.W @ p
    )
    return _bordered(state.W, w_bar, t_tilde)


def add_node_alg2(state: SolverState, h_bar: np.ndarray) -> SolverState:
    """Bordered update of the inverse Q; the pseudo-inverse is never formed."""
    h_bar = np.asarray(h_bar, dtype=np.float64).reshape(-1)
    c = float(h_bar @ h_bar) + state.k0sq
    p = compute_p(state, h_bar)

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

    w = _weight_border(state, h_bar, p, tau, t / tau)
    return _grown(state, h_bar, w, Q=q_new)


def add_node_q_unsimplified(state: SolverState, h_bar: np.ndarray) -> SolverState:
    """Reference Q recursion in its original order and form.

    Q_tilde is corrected first, then t from Q_tilde, then tau with the
    squared denominator.  Retained only to cross-check the simplified rule;
    both must produce identical states up to rounding.
    """
    h_bar = np.asarray(h_bar, dtype=np.float64).reshape(-1)
    c = float(h_bar @ h_bar) + state.k0sq
    p = compute_p(state, h_bar)

    qp = state.Q @ p
    delta = _schur_denominator(c, float(p @ qp), state.l + 1)
    q_tilde = state.Q + np.outer(qp, qp) / delta
    qtp = q_tilde @ p
    t = -qtp / c
    tau = float(p @ qtp) / (c * c) + 1.0 / c
    q_new = np.block([[q_tilde, t.reshape(-1, 1)], [t.reshape(1, -1), tau]])

    w = _weight_border(state, h_bar, p, tau, t / tau)
    return _grown(state, h_bar, w, Q=q_new)


def add_node_alg3(state: SolverState, h_bar: np.ndarray) -> SolverState:
    """Bordered update of the factors L, D with L diag(D) L^T = Q.

    The product L D L^T is never materialized: v = L^T p, then the scaled
    back product gives both the new column and the Schur denominator.
    """
    h_bar = np.asarray(h_bar, dtype=np.float64).reshape(-1)
    c = float(h_bar @ h_bar) + state.k0sq
    p = compute_p(state, h_bar)

    v = state.L.T @ p
    dv = state.D * v
    t_tilde = -(state.L @ dv)
    delta = _schur_denominator(c, float(v @ dv), state.l + 1)
    tau = 1.0 / delta

    w = _weight_border(state, h_bar, p, tau, t_tilde)
    l_tail = _append_unit_column(state._l_tail, state.L, t_tilde)
    d_tail = _append_row(state._d_tail, state.D, tau)
    return _grown(state, h_bar, w,
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


def current_weights(state: SolverState) -> np.ndarray:
    return state.W


def state_to_json(state: SolverState, include_debug: bool = False) -> str:
    """Snapshot for cross-implementation weight comparison."""
    doc = {
        "kind": state.kind.value,
        "l": state.l,
        "k0sq": state.k0sq,
        "W": {"rows": state.W.shape[0], "cols": state.W.shape[1],
              "data": state.W.reshape(-1).tolist()},
    }
    if include_debug:
        debug = {}
        for name in ("B", "Q", "L"):
            m = getattr(state, name)
            if m is not None:
                debug[name] = {"rows": m.shape[0], "cols": m.shape[1],
                               "data": m.reshape(-1).tolist()}
        if state.D is not None:
            debug["D"] = state.D.tolist()
        doc["debug"] = debug
    return json.dumps(doc)
