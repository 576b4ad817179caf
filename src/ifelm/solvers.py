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

Each rule is a kernel in `_RULES` holding only its own algebra.  `add_node` is
the one frame around every step: it computes c = h_bar^T h_bar + k0sq and the
cross term p = H h_bar once per step and hands both to the kernel.
Every rule starts through `warm_start` (`init_solver` is its l0 = 1 case)
from one Cholesky factor C of H H^T + k0sq I, and builds only what it
carries.  The start W of every rule is the oracle's own Cholesky solve.
ALG2 takes Q from C by `dpotri`, EXISTING and ALG1 form B = H^T Q from that
Q and drop it, BASELINE keeps W only, and ALG3 never forms Q: its factors
come straight from C as L = C^-T diag(C) and D = 1/diag(C)^2.  `_factor` is
the one checked entry to C, and `solve_spd` the one solve with it, for the
start, the direct-solve oracle `solve_direct_prefixes` and BASELINE's step.

All rules grow W by a bordered column and agree with BASELINE up to
rounding.  Products along the K (sample) dimension run through the metered
gemm; l- and M-sized bookkeeping is deliberately unmetered so recorded
flops follow the dominant-cost model.  A step's metered count, the new
state's `multiply_adds` minus its parent's, is `step_multiply_adds`.

Storage model.  States are immutable to the caller, but a step does not
copy the append-only arrays H (a row per node), L (a column per node) and
D (an entry per node).  Each chain of states keeps them in one store of
buffers whose capacity doubles when full; the state's fields are exact
l-sized views of them.  The store's owner is the newest state grown from
it, held weakly so that a dropped chain is freed at once.  A step appends
in place only when the state it steps is the owner and the store has room.
Any other state copies into a new store first: one already stepped, a
`dataclasses.replace`d one, or one from `warm_start`, which owns no store
(its h is never written).  So re-stepping an old state is correct but pays
a copy, and chained growth appends in place.  B, Q and W are rewritten by
every step, each into a fresh array at its new size; `_fresh` carves the
large ones from whole blocks, so a block its parent's array freed can
serve them.  Two threads must not step the same state at the same time.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import lapack

from .errors import DomainError, NumericalBreakdownError, ShapeError
from .linalg import FlopCounter, add_outer, cholesky, gemm, row_bands, solve_spd

BREAKDOWN_RTOL = 1e-12

# `_fresh` rounds an array of at least this many entries up to whole blocks of it
_BLOCK = 1 << 16


class AlgorithmKind(Enum):
    BASELINE = "baseline"
    EXISTING = "existing"
    ALG1 = "alg1"
    ALG2 = "alg2"
    ALG3 = "alg3"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown rule {value!r}; expected one of "
                          f"{', '.join(k.value for k in cls)}")


# the four incremental rules, in the order every report lists them
ALL_INCREMENTAL = (AlgorithmKind.EXISTING, AlgorithmKind.ALG1,
                   AlgorithmKind.ALG2, AlgorithmKind.ALG3)


class _Store:
    """One chain's H, plus L and D for ALG3, in buffers with spare capacity.

    `owner` weakly references the newest state grown from the store, the
    only state that may append to it.
    """

    __slots__ = ("H", "L", "D", "owner")

    def __init__(self, state: SolverState):
        n, size = state.l, 2 * (state.l + 1)
        self.H = np.empty((size, state.sample_count))
        self.H[:n] = state.H
        self.L = self.D = None
        if state.kind is AlgorithmKind.ALG3:
            self.L = np.empty((size, size))
            self.L[:n, :n] = state.L
            self.D = np.empty(size)
            self.D[:n] = state.D
        self.owner = None


@dataclass(frozen=True, eq=False)
class SolverState:
    """Immutable snapshot of one solver after l node additions.

    Aux content by kind: EXISTING/ALG1 carry B (K x l); ALG2 carries
    Q (l x l); ALG3 carries L (l x l, unit upper-triangular) and D (l,);
    BASELINE carries nothing beyond H, Y, W.  In a grown state H, L and D
    are views of its chain's store, which only the chain's newest state
    appends to (see the module docstring); treat every array as read-only.
    `multiply_adds` sums each step's `step_multiply_adds` from the start (0
    after `warm_start`) to this one.  States compare and hash by identity.
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
    _store: _Store | None = field(default=None, repr=False)

    @property
    def l(self) -> int:
        return self.H.shape[0]

    @property
    def sample_count(self) -> int:
        return self.H.shape[1]

    def __getstate__(self) -> dict:
        # The store's owner is a weak reference, which cannot be pickled; a
        # pickled or deep-copied state owns no store and copies on its first step.
        return {**self.__dict__, "_store": None}


def _check_k0sq(k0sq: float) -> float:
    # text passes float() but fails untyped in numpy, complex fails float(); and a
    # step divides by c * delta >= k0sq^2, so k0sq's square must be finite too
    if np.asarray(k0sq).dtype.kind in "SUc":
        raise DomainError(f"regularization k0sq must be a number, not text or complex: {k0sq!r}")
    try:
        f = float(k0sq)
    except OverflowError:
        raise DomainError("regularization k0sq is beyond float range") from None
    if not (f > 0.0 and math.isfinite(f * f)):
        raise DomainError(f"regularization k0sq must be > 0 with a finite square, got {k0sq}")
    return f


def _real(a, name: str) -> np.ndarray:
    """`a` as a float64 array; DomainError if complex, whose imaginary part the cast drops."""
    a = np.asarray(a)
    if a.dtype.kind == "c":
        raise DomainError(f"{name} must be real, got {a.dtype}")
    return a.astype(np.float64, copy=False)


def _factor(h: np.ndarray, y: np.ndarray, k0sq: float,
            counter: FlopCounter | None = None) -> tuple[np.ndarray, ...]:
    """Float64 H and Y, the lower Cholesky factor C of H H^T + k0sq I, and H Y^T.

    k0sq must be a number > 0 with a finite square, H and Y real, and the
    Gram matrix and Y finite (DomainError); H must be non-empty and 2-D, and
    Y 2-D with H's K columns (ShapeError); a pivot that is not positive raises
    NumericalBreakdownError at its node, from 1.  Both products meter on `counter`.
    """
    k0sq = _check_k0sq(k0sq)
    h, y = _real(h, "H"), _real(y, "Y")
    if h.ndim != 2 or h.size < 1 or y.ndim != 2 or h.shape[1] != y.shape[1]:
        raise ShapeError(f"need a non-empty 2-D H and a 2-D Y with as many columns, "
                         f"got H {h.shape}, Y {y.shape}")
    r = gemm(h, h.T, counter) + k0sq * np.eye(h.shape[0])
    if not (np.isfinite(r).all() and np.isfinite(y).all()):
        raise DomainError("H H^T and Y must be finite")
    return h, y, cholesky(r), gemm(h, y.T, counter)


def solve_direct(h: np.ndarray, y: np.ndarray, k0sq: float) -> np.ndarray:
    """Direct regularized solve W = Y H^T (H H^T + k0sq I)^-1.

    The oracle every incremental rule is compared against, as the last
    prefix of `solve_direct_prefixes`: a Cholesky solve, never an explicit
    inverse.
    """
    return solve_direct_prefixes(h, y, k0sq, [len(h)])[len(h)]


def solve_direct_prefixes(h: np.ndarray, y: np.ndarray, k0sq: float,
                          ls) -> dict[int, np.ndarray]:
    """`solve_direct(h[:l], y, k0sq)` for every l in `ls`, from one Cholesky factor.

    The leading l x l block of the Cholesky factor C of the Gram matrix
    R = H H^T + k0sq I (n = max(ls) rows of h) is the Cholesky factor of
    the prefix Gram H_l H_l^T + k0sq I, and the first l rows of Y H^T are
    the prefix right-hand side.  So one Gram product and one factorization
    serve every l, each solved by `solve_spd` on C[:l, :l].
    At l = n the result is `solve_direct(h[:n], y, k0sq)`; at smaller l it
    differs from it by rounding only.  A Gram matrix that is not positive
    definite raises NumericalBreakdownError at the first node, from 1, whose
    pivot in C is not positive.  LAPACK blocks each size apart, so a prefix's
    own `solve_direct` may round that pivot the other way.
    """
    ls = list(ls)
    if not all(isinstance(l, (int, np.integer)) for l in ls):
        raise DomainError(f"prefix lengths must be integers, got {ls}")
    n = max(ls, default=0)
    # H's shape is checked first, on the rows the prefixes read (at least one)
    h, y, c, rhs = _factor(h[:max(n, 1)], y, k0sq)
    if not ls or min(ls) < 1 or n > h.shape[0]:
        span = f"{min(ls)}..{n}" if ls else "none"
        raise DomainError(f"prefix lengths must lie in 1..rows(H), got {span}")
    return {l: solve_spd(c[:l, :l], rhs[:l]).T for l in ls}


def init_solver(kind: AlgorithmKind | str, h1: np.ndarray, y: np.ndarray,
                k0sq: float) -> SolverState:
    """Start from the single hidden row h1: `warm_start` with l0 = 1."""
    return warm_start(kind, np.asarray(h1).reshape(1, -1), y, k0sq)


def warm_start(kind: AlgorithmKind | str, h: np.ndarray, y: np.ndarray,
               k0sq: float) -> SolverState:
    """Start any rule from an l0 >= 1 node block with one Cholesky factorization.

    `kind` is an `AlgorithmKind` or its name (DomainError for any other).
    With C the lower Cholesky factor of R = H H^T + k0sq I from `_factor`,
    every kind gets W = Y H^T R^-1 by `solve_spd` with C, the oracle's own
    solve, so bitwise `solve_direct(h, y, k0sq)`, and builds only the state
    its rule carries.  ALG2 takes Q = R^-1 from C by `dpotri`, mirrored to
    be exactly symmetric; EXISTING and ALG1 take the same Q only to form
    B = H^T Q, and keep B.  ALG3 never forms Q: C^-T is upper triangular
    with diagonal 1/diag(C), so Q = C^-T C^-1 = L diag(D) L^T for
    L = C^-T diag(C) (unit diagonal) and D = 1/diag(C)^2.  BASELINE keeps
    W only.  The start is unmetered: the returned state's `multiply_adds` is 0.
    """
    kind = AlgorithmKind(kind)
    h, y, c, rhs = _factor(h, y, k0sq)
    w = solve_spd(c, rhs).T
    aux = {}
    if kind is AlgorithmKind.ALG3:
        diag = np.diag(c)
        upper = lapack.dtrtri(c, lower=1)[0].T * diag
        np.fill_diagonal(upper, 1.0)
        aux = {"L": upper, "D": 1.0 / diag**2}
    elif kind is not AlgorithmKind.BASELINE:
        # R^-1 in the lower triangle; above it dpotri leaves C's zeros
        q = lapack.dpotri(c, lower=1)[0]
        q += np.tril(q, -1).T
        q = q.T                                      # exactly symmetric, so C order for free
        aux = {"Q": q} if kind is AlgorithmKind.ALG2 else {"B": h.T @ q}
    return SolverState(kind=kind, k0sq=float(k0sq), H=h, Y=y, W=w, **aux)


def compute_p(state: SolverState, h_bar: np.ndarray, counter: FlopCounter) -> np.ndarray:
    """Cross term p = H h_bar shared by every incremental rule (cost 2lK).

    `add_node` computes it and c once per step; kernels hold only their own algebra.
    """
    return gemm(state.H, _real(h_bar, "h_bar").reshape(-1, 1), counter).reshape(-1)


def _schur_denominator(c: float, correction: float, node_index: int) -> float:
    """1/tau = c - correction, or NumericalBreakdownError unless > BREAKDOWN_RTOL * c."""
    delta = c - correction
    if not delta > BREAKDOWN_RTOL * c:
        raise NumericalBreakdownError(
            f"Schur denominator {delta:.3e} is not safely positive at node {node_index}",
            node_index=node_index,
        )
    return delta


def _fresh(shape: tuple[int, ...]) -> np.ndarray:
    """np.empty(shape), carved from whole `_BLOCK`-entry blocks when that large.

    Fresh B, Q and W arrays grow by a column every step, so a freed parent's
    array of the exact size is always one column too short for the next
    one.  Rounded up to whole blocks, the sizes coincide and a block freed
    a step or two before serves the next array.  The result is C-contiguous;
    below `_BLOCK` entries it is a plain allocation.
    """
    size = math.prod(shape)
    if size < _BLOCK:
        return np.empty(shape)
    return np.empty(-(-size // _BLOCK) * _BLOCK)[:size].reshape(shape)


def _bordered(a: np.ndarray, col: np.ndarray, row: np.ndarray,
              corner: float | None = None) -> np.ndarray:
    """[a + outer(col, row), col] in one new array; pass -row to subtract.

    With a `corner`, the square a also gets the last row [col^T, corner].
    The new array comes from `_fresh`.  Each band of `row_bands` is copied
    from a, updated in place by one `add_outer` with row padded by a 0 for
    the last column, and given its stretch of col in that column while it
    is in cache.  Rounds exactly as forming the outer product, the sum and
    the block apart.
    """
    rows, cols = a.shape
    out = _fresh((rows + (corner is not None), cols + 1))
    padded = np.zeros(cols + 1)
    padded[:-1] = row
    for band in row_bands(rows, cols + 1):
        o, c = out[band], col[band]
        o[:, :-1] = a[band]
        add_outer(o, c, padded)
        o[:, -1] = c
    if corner is not None:
        out[-1, :-1], out[-1, -1] = col, corner
    return out


def _baseline(state: SolverState, h_bar: np.ndarray, c: float, p: np.ndarray | None,
              store: _Store, cnt: FlopCounter) -> tuple[np.ndarray, dict]:
    """Re-solve the whole system on the stored H, which already holds h_bar."""
    _, _, factor, rhs = _factor(store.H[: state.l + 1], state.Y, state.k0sq, cnt)
    return solve_spd(factor, rhs).T, {}


def _existing(state: SolverState, h_bar: np.ndarray, c: float, p: np.ndarray,
              store: _Store, cnt: FlopCounter) -> tuple[np.ndarray, dict]:
    """Literal two-term bordered update of the pseudo-inverse B.

    Both terms evaluate their own ((c I - h h^T) B) product and the output
    weights are recomputed in full as Y B; `step_multiply_adds` is the cost
    this rule is charged in comparisons.  Reductions over K (the rows h^T B
    and the Schur denominator) run over all of B; the rest walks B in
    `row_bands`, forming each band of both terms and of the new B while it
    is in cache, in two band-sized scratch arrays.  Every product keeps its
    operands and its rounding.
    """
    h_col = h_bar.reshape(-1, 1)
    b = state.B
    k, l = b.shape
    p = p.reshape(-1, 1)                             # l x 1
    u1 = gemm(h_col.T, b, cnt)                       # 1 x l
    d = gemm(u1, p, cnt)[0, 0]                       # h^T B H h
    delta = _schur_denominator(c, d, l + 1)
    # the second term's row, evaluated afresh as printed
    u2 = gemm(h_col.T, b, cnt)
    u1, minus_u1, minus_u2 = u1.reshape(-1), -u1.reshape(-1), -u2.reshape(-1)
    bands = row_bands(k, l)
    g_buf, t_buf = np.empty((bands[0].stop, l)), np.empty((bands[0].stop, l))
    b_new = _fresh((k, l + 1))
    for band in bands:
        n, h = band.stop - band.start, h_bar[band]
        g, t1, b_band = g_buf[:n], t_buf[:n], b_new[band]
        # first term: ((c I - h h^T) B) (H h) (h^T B) / (c (c - h^T B H h))
        np.multiply(c, b[band], out=g)
        add_outer(g, h, minus_u1, cnt)
        v = gemm(g, p, cnt).reshape(-1)
        t1.fill(0.0)                                 # 0 + v u1^T rounds as the product v u1^T
        add_outer(t1, v, u1, cnt)
        # second term: ((c I - h h^T) B) / c, in g once v is formed
        np.multiply(c, b[band], out=g)
        add_outer(g, h, minus_u2, cnt)
        t1 /= c * delta
        g /= c
        np.add(t1, g, out=b_band[:, :-1])
        b_band[:, -1] = (-gemm(b_band[:, :-1], p, cnt).reshape(-1) + h) / c
    return gemm(state.Y, b_new, cnt), {"B": b_new}


def _alg1(state: SolverState, h_bar: np.ndarray, c: float, p: np.ndarray,
          store: _Store, cnt: FlopCounter) -> tuple[np.ndarray, dict]:
    """Simplified B update; the row u = h^T B is computed once and reused."""
    b = state.B
    u = gemm(h_bar.reshape(1, -1), b, cnt).reshape(-1)  # h^T B, reused twice
    delta = _schur_denominator(c, float(u @ p), state.l + 1)
    tau = 1.0 / delta
    b_bar = tau * (h_bar - gemm(b, p.reshape(-1, 1), cnt).reshape(-1))
    minus_u = -u                                     # B - b_bar u^T and W - w_bar u^T
    b_new = _bordered(b, b_bar, minus_u)
    w_bar = gemm(state.Y, b_bar.reshape(-1, 1), cnt).reshape(-1)
    return _bordered(state.W, w_bar, minus_u), {"B": b_new}


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


def _alg2(state: SolverState, h_bar: np.ndarray, c: float, p: np.ndarray,
          store: _Store, cnt: FlopCounter) -> tuple[np.ndarray, dict]:
    """Bordered update of the inverse Q by t_tilde = t / tau, the vector W's border takes."""
    qp = state.Q @ p
    delta = _schur_denominator(c, float(p @ qp), state.l + 1)
    tau = 1.0 / delta
    t = -tau * qp
    t_tilde = t / tau
    q_new = _bordered(state.Q, t, t_tilde, corner=tau)
    return _weight_border(state, h_bar, p, tau, t_tilde, cnt), {"Q": q_new}


def _alg3(state: SolverState, h_bar: np.ndarray, c: float, p: np.ndarray,
          store: _Store, cnt: FlopCounter) -> tuple[np.ndarray, dict]:
    """Bordered update of the factors L, D with L diag(D) L^T = Q.

    The product L D L^T is never materialized: v = L^T p, then the scaled
    back product gives both the new column and the Schur denominator.  The
    new column of L above a unit diagonal, and D's new entry tau, are
    written into the store past the state's l nodes.
    """
    v = state.L.T @ p
    dv = state.D * v
    t_tilde = -(state.L @ dv)
    delta = _schur_denominator(c, float(v @ dv), state.l + 1)
    tau = 1.0 / delta

    w = _weight_border(state, h_bar, p, tau, t_tilde, cnt)
    n = state.l
    store.L[:n, n] = t_tilde
    store.L[n, :n] = 0.0
    store.L[n, n] = 1.0
    store.D[n] = tau
    return w, {"L": store.L[:n + 1, :n + 1], "D": store.D[:n + 1]}


_RULES = {
    AlgorithmKind.BASELINE: _baseline,
    AlgorithmKind.EXISTING: _existing,
    AlgorithmKind.ALG1: _alg1,
    AlgorithmKind.ALG2: _alg2,
    AlgorithmKind.ALG3: _alg3,
}


def step_multiply_adds(kind: AlgorithmKind | str, l: int, k: int, m: int) -> int:
    """Metered multiply-adds of one `kind` step from l to l + 1 nodes, K samples, M outputs.

    The rules' one cost model, exactly what `add_node` meters; `kind` is an
    `AlgorithmKind` or its name, as in `warm_start`.
    """
    return {
        AlgorithmKind.BASELINE: 2 * (l + 1) ** 2 * k + 2 * m * (l + 1) * k,
        AlgorithmKind.EXISTING: 16 * l * k + 2 * l + 2 * m * (l + 1) * k,
        AlgorithmKind.ALG1: 6 * l * k + 2 * m * k,
        AlgorithmKind.ALG2: 2 * l * k + 2 * m * k,
        AlgorithmKind.ALG3: 2 * l * k + 2 * m * k,
    }[AlgorithmKind(kind)]


def add_node(state: SolverState, h_bar: np.ndarray) -> SolverState:
    """Add one hidden node with row h_bar to `state`; returns the child state.

    The frame common to every rule, in order: h_bar becomes a flat float64
    row, real (DomainError) with K entries (ShapeError); the step scalar
    c = h_bar^T h_bar + k0sq is computed once, and must be finite
    (DomainError, so a row with a NaN, an inf or an overflowing square is
    rejected before it is stored); h_bar is appended to the chain's store,
    in place only if `state` is the store's owner and the store has room,
    else into a new store that copies `state`'s arrays; a counter starts
    from `state.multiply_adds`; the cross term p = H h_bar is computed once
    by `compute_p`, except for BASELINE, which re-solves from scratch; the
    rule's kernel in `_RULES` gets c and p, holds only its own algebra, and
    returns the new W and the rule's aux arrays; the child is built over
    the store's first l + 1 rows and becomes the store's owner.  A kernel
    that raises leaves `state` and its chain as they were: the row it
    appended lies past every state's view and the owner is unchanged.
    """
    h_bar = _real(h_bar, "h_bar").reshape(-1)
    if h_bar.size != state.sample_count:
        raise ShapeError(f"h_bar has {h_bar.size} entries, expected K={state.sample_count}")
    c = float(np.vdot(h_bar, h_bar)) + state.k0sq
    if not math.isfinite(c):
        raise DomainError(f"h_bar^T h_bar + k0sq is {c}; h_bar must be finite")
    n = state.l
    store = state._store
    if store is None or store.owner() is not state or store.H.shape[0] == n:
        store = _Store(state)
    store.H[n] = h_bar
    cnt = FlopCounter(state.multiply_adds)
    p = None if state.kind is AlgorithmKind.BASELINE else compute_p(state, h_bar, cnt)
    w, aux = _RULES[state.kind](state, h_bar, c, p, store, cnt)
    child = SolverState(kind=state.kind, k0sq=state.k0sq, H=store.H[:n + 1], Y=state.Y, W=w,
                        multiply_adds=cnt.multiply_adds, _store=store, **aux)
    store.owner = weakref.ref(child)
    return child
