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

Each incremental rule in `_RULES` is a correction and an update.  `add_node`,
the one frame around every step, computes c = h_bar^T h_bar + k0sq and
p = H h_bar, subtracts the rule's correction from c, runs the one breakdown
test on that Schur denominator delta before any update, and borders W.
Every rule starts through `warm_start` (`init_solver` is its l0 = 1 case)
from one Cholesky factor C of H H^T + k0sq I, and builds only what it
carries.  The start W of every rule is the oracle's own Cholesky solve.
ALG2 takes Q from C by `dpotri`, EXISTING and ALG1 form B = H^T Q from that
Q and drop it, BASELINE keeps W only, and ALG3 never forms Q: its factors
come straight from C as L = C^-T diag(C) and D = 1/diag(C)^2.  Outside
values are read through one allowlist, `_read`, and checked once: H, Y and
k0sq by `_operands` at the start and the oracle, each row by `_row` in `add_node`.
`_factor`, the one way to C, and `solve_spd`, the one solve with it, serve
the start, the direct-solve oracle `solve_direct_prefixes` and BASELINE's step.
`_store` decides where H, L and D live; the rules see only their arrays.

All rules grow W by a bordered column and agree with BASELINE up to
rounding.  A step's cost is a function of its rule and sizes alone,
`step_multiply_adds(kind, l, K, M)`, the one cost model; states carry no
cost.  It charges the products a rule runs through `gemm` and `add_outer`:
those along the K (sample) dimension, and EXISTING's h^T B H h.  Other l-
and M-sized work and the updates inside `_bordered` are left out, as in
the paper's dominant-cost model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import lapack

from ._store import _bordered, _fresh, _Store
from .data import _as_list, _check_counts
from .errors import DomainError, NumericalBreakdownError, ShapeError
from .linalg import add_outer, cholesky, gemm, row_bands, solve_spd

BREAKDOWN_RTOL = 1e-12

# the native float64 dtype, which `_row` takes as it is
_FLOAT64 = np.dtype(np.float64)


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


@dataclass(frozen=True, eq=False)
class SolverState:
    """Immutable snapshot of one solver after l node additions.

    Aux content by kind: EXISTING/ALG1 carry B (K x l); ALG2 carries
    Q (l x l); ALG3 carries L (l x l, unit upper-triangular) and D (l,);
    BASELINE carries nothing beyond H, Y, W.  In a grown state H, L and D
    are views into storage that `add_node` alone writes (see `_store`);
    treat every array as read-only.  States compare and hash by identity.
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
    _store: _Store | None = field(default=None, init=False, repr=False)

    @property
    def l(self) -> int:
        return self.H.shape[0]

    @property
    def sample_count(self) -> int:
        return self.H.shape[1]

    def __getstate__(self) -> dict:
        # keeps the store's spare capacity out of pickles and deep copies; such a
        # state holds no store and copies on its first step
        return {**self.__dict__, "_store": None}


def _read(a, kinds: str) -> np.ndarray | None:
    """`a` as numpy reads it if that is an array of one of the dtype `kinds`, else None."""
    try:
        a = np.asarray(a)
    except ValueError:                               # a ragged list, say
        return None
    return a if a.dtype.kind in kinds else None


def _check_k0sq(k0sq: float) -> float:
    # one int or float number; a step divides by c * delta >= k0sq^2, so k0sq^2 is normal
    a = _read(k0sq, "iuf")
    if a is None or a.ndim:
        raise DomainError(f"regularization k0sq must be a number numpy reads as an int or "
                          f"float, not text, complex, a bool, None or an array: {k0sq!r}")
    f = float(a)
    if not (f > 0.0 and np.finfo(float).tiny <= f * f < math.inf):
        raise DomainError(f"regularization k0sq must lie in about 1.49e-154..1.34e154, "
                          f"where its square is a normal float, got {k0sq}")
    return f


def _real(a, name: str) -> np.ndarray:
    """`a` as a float64 array if `_read` takes it as bool, int or float, else DomainError."""
    a = _read(a, "biuf")
    if a is None:
        raise DomainError(f"{name} must be real numbers, read by numpy as bool, int or float")
    return a.astype(np.float64, copy=False)


def _row(h_bar, k: int) -> np.ndarray:
    """`h_bar` as `_real` reads it if its shape is (k,), else ShapeError naming its shape."""
    if type(h_bar) is np.ndarray and h_bar.dtype is _FLOAT64 and h_bar.shape == (k,):
        return h_bar                                 # what the full read returns
    h_bar = _real(h_bar, "h_bar")
    if h_bar.shape != (k,):
        raise ShapeError(f"h_bar must have shape (K,) = ({k},), got {h_bar.shape}")
    return h_bar


def _check_rows(cs, first: int) -> None:
    """The one row rule: DomainError at the first of nodes first, first + 1, ... whose
    c = h_bar^T h_bar + k0sq has no finite square, as a step divides by c delta <= c^2."""
    for node, c in enumerate(cs, first):
        if not math.isfinite(c * c):
            raise DomainError(f"h_bar^T h_bar + k0sq is {c} at node {node}; "
                              f"it must be finite and < 1.34e154")


def _operands(h, y, k0sq: float) -> tuple[float, np.ndarray, np.ndarray]:
    """k0sq, float64 H and Y, checked once where they enter, before the Gram product.

    k0sq must pass `_check_k0sq`, H and Y `_real`, Y be finite and every row
    of H `_check_rows` (DomainError); H must be non-empty and 2-D, and Y 2-D
    with H's K columns (ShapeError).
    """
    k0sq = _check_k0sq(k0sq)
    h, y = _real(h, "H"), _real(y, "Y")
    if h.ndim != 2 or h.size < 1 or y.ndim != 2 or h.shape[1] != y.shape[1]:
        raise ShapeError(f"need a non-empty 2-D H and a 2-D Y with as many columns, "
                         f"got H {h.shape}, Y {y.shape}")
    if not np.isfinite(y).all():
        raise DomainError("Y must be finite")
    # each row's c, the diagonal of H H^T + k0sq I; by Cauchy-Schwarz their squares
    # bound all of it
    _check_rows((np.einsum("ij,ij->i", h, h) + k0sq).tolist(), 1)
    return k0sq, h, y


def _factor(h: np.ndarray, y: np.ndarray, k0sq: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factor C of H H^T + k0sq I and H Y^T, for operands from `_operands`
    or rows `add_node` checked; NumericalBreakdownError at a pivot <= 0."""
    return cholesky(gemm(h, h.T) + k0sq * np.eye(h.shape[0])), gemm(h, y.T)


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
    # H's shape first, so that solve_direct of an empty H, prefix 0, is a ShapeError
    k0sq, h, y = _operands(h, y, k0sq)
    ls = _as_list(ls, "prefix lengths")
    if not ls:
        raise DomainError("need at least one prefix length")
    for l in ls:
        _check_counts(1, **{"prefix length": l})
    n = max(ls)
    if n > h.shape[0]:
        raise DomainError(f"prefix lengths must lie in 1..{h.shape[0]}, the rows of H, "
                          f"got {min(ls)}..{n}")
    c, rhs = _factor(h[:n], y, k0sq)
    return {l: solve_spd(c[:l, :l], rhs[:l]).T for l in ls}


def init_solver(kind: AlgorithmKind | str, h1: np.ndarray, y: np.ndarray,
                k0sq: float) -> SolverState:
    """Start from the single hidden row h1, real as H is and 1-D (ShapeError naming
    its shape): `warm_start` with l0 = 1."""
    h1 = _real(h1, "H")
    if h1.ndim != 1:
        raise ShapeError(f"h1 must be one row, of shape (K,), got {h1.shape}")
    return warm_start(kind, h1.reshape(1, -1), y, k0sq)


def warm_start(kind: AlgorithmKind | str, h: np.ndarray, y: np.ndarray,
               k0sq: float) -> SolverState:
    """Start any rule from an l0 >= 1 node block with one Cholesky factorization.

    `kind` is an `AlgorithmKind` or its name (DomainError for any other),
    and k0sq a real number > 0 whose square is a normal float, about
    1.49e-154..1.34e154; `_operands` checks H, Y and k0sq, once, before any
    product.  With C the lower Cholesky factor of R = H H^T + k0sq I from
    `_factor`, every kind gets W = Y H^T R^-1 by `solve_spd` with C, the
    oracle's own solve, so bitwise `solve_direct(h, y, k0sq)`, and builds
    only the state its rule carries.  ALG2 takes Q = R^-1 from C by
    `dpotri`, mirrored to be exactly symmetric; EXISTING and ALG1 take the
    same Q only to form B = H^T Q, and keep B.  ALG3 never forms Q: C^-T is
    upper triangular with diagonal 1/diag(C), so Q = C^-T C^-1 =
    L diag(D) L^T for L = C^-T diag(C) (unit diagonal) and
    D = 1/diag(C)^2.  BASELINE keeps W only.
    """
    kind = AlgorithmKind(kind)
    k0sq, h, y = _operands(h, y, k0sq)
    c, rhs = _factor(h, y, k0sq)
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
    return SolverState(kind=kind, k0sq=k0sq, H=h, Y=y, W=w, **aux)


def compute_p(state: SolverState, h_bar: np.ndarray) -> np.ndarray:
    """Cross term p = H h_bar of every incremental rule, once per step (cost 2lK);
    h_bar is read by `_row`, as in `add_node`."""
    h = state.H
    return gemm(h, _row(h_bar, h.shape[1]).reshape(-1, 1)).reshape(-1)


def _schur_denominator(c: float, correction: float, node_index: int) -> float:
    """1/tau = c - correction, or NumericalBreakdownError unless > BREAKDOWN_RTOL * c."""
    delta = c - correction
    if not delta > BREAKDOWN_RTOL * c:
        raise NumericalBreakdownError(
            f"Schur denominator {delta:.3e} is not safely positive at node {node_index}",
            node_index=node_index,
        )
    return delta


def _w_border(state: SolverState, h_bar: np.ndarray, p: np.ndarray, tau: float) -> np.ndarray:
    """W's new column w_bar = tau (Y h_bar - W p), which ALG2 and ALG3 share."""
    return tau * (gemm(state.Y, h_bar.reshape(-1, 1)).reshape(-1) - state.W.dot(p))


def _existing_correction(state: SolverState, h_bar: np.ndarray,
                         p: np.ndarray) -> tuple[float, np.ndarray]:
    u1 = gemm(h_bar.reshape(-1, 1).T, state.B)      # 1 x l
    return gemm(u1, p.reshape(-1, 1))[0, 0], u1      # h^T B H h


def _existing(state: SolverState, h_bar: np.ndarray, c: float, p: np.ndarray, delta: float,
              u1: np.ndarray) -> tuple:
    """Literal two-term bordered update of the pseudo-inverse B.

    Both terms evaluate their own ((c I - h h^T) B) product and the output
    weights are recomputed in full as Y B, so W takes no border (row None);
    `step_multiply_adds` is the cost this rule is charged in comparisons.
    The rows h^T B, here and in the correction, run over all of B; the
    rest walks B in `row_bands`, forming each band of both terms and of the
    new B while it is in cache, in two band-sized scratch arrays.
    Every product keeps its operands and its rounding.
    """
    b = state.B
    k, l = b.shape
    p = p.reshape(-1, 1)                             # l x 1
    # the second term's row, evaluated afresh as printed
    u2 = gemm(h_bar.reshape(-1, 1).T, b)
    u1, minus_u1, minus_u2 = u1.reshape(-1), -u1.reshape(-1), -u2.reshape(-1)
    bands = row_bands(k, l)
    g_buf, t_buf = np.empty((bands[0].stop, l)), np.empty((bands[0].stop, l))
    b_new = _fresh((k, l + 1))
    for band in bands:
        n, h = band.stop - band.start, h_bar[band]
        g, t1, b_band = g_buf[:n], t_buf[:n], b_new[band]
        # first term: ((c I - h h^T) B) (H h) (h^T B) / (c (c - h^T B H h))
        np.multiply(c, b[band], out=g)
        add_outer(g, h, minus_u1)
        v = gemm(g, p).reshape(-1)
        t1.fill(0.0)                                 # 0 + v u1^T rounds as the product v u1^T
        add_outer(t1, v, u1)
        # second term: ((c I - h h^T) B) / c, in g once v is formed
        np.multiply(c, b[band], out=g)
        add_outer(g, h, minus_u2)
        t1 /= c * delta
        g /= c
        np.add(t1, g, out=b_band[:, :-1])
        # (-B~p + h) / c, bitwise, without the two temporaries
        np.divide(np.subtract(h, gemm(b_band[:, :-1], p).reshape(-1)), c, out=b_band[:, -1])
    return gemm(state.Y, b_new), None, {"B": b_new}


def _alg1_correction(state: SolverState, h_bar: np.ndarray,
                     p: np.ndarray) -> tuple[float, np.ndarray]:
    u = gemm(h_bar.reshape(1, -1), state.B).reshape(-1)  # h^T B, reused twice
    # here and below, ndarray.dot rounds as @ does, in about half its call time; it
    # copies a strided matrix first, so L, a view of the store, keeps @
    return float(u.dot(p)), u


def _alg1(state: SolverState, h_bar: np.ndarray, c: float, p: np.ndarray, delta: float,
          u: np.ndarray) -> tuple:
    """Simplified B update; the row u = h^T B is computed once and reused."""
    tau = 1.0 / delta
    b_bar = tau * (h_bar - gemm(state.B, p.reshape(-1, 1)).reshape(-1))
    minus_u = -u                                     # B - b_bar u^T and W - w_bar u^T
    b_new = _bordered(state.B, b_bar, minus_u)
    return gemm(state.Y, b_bar.reshape(-1, 1)).reshape(-1), minus_u, {"B": b_new}


def _alg2_correction(state: SolverState, h_bar: np.ndarray,
                     p: np.ndarray) -> tuple[float, np.ndarray]:
    qp = state.Q.dot(p)
    return float(p.dot(qp)), qp


def _alg2(state: SolverState, h_bar: np.ndarray, c: float, p: np.ndarray, delta: float,
          qp: np.ndarray) -> tuple:
    """Bordered update of the inverse Q by t_tilde = t / tau, the row W's border takes."""
    tau = 1.0 / delta
    t = -tau * qp
    t_tilde = t / tau
    q_new = _bordered(state.Q, t, t_tilde, corner=tau)
    return _w_border(state, h_bar, p, tau), t_tilde, {"Q": q_new}


def _alg3_correction(state: SolverState, h_bar: np.ndarray,
                     p: np.ndarray) -> tuple[float, np.ndarray]:
    v = p @ state.L                                  # L^T p, so Q p = L D v, Q never formed
    dv = state.D * v
    return float(v.dot(dv)), state.L @ dv


def _alg3(state: SolverState, h_bar: np.ndarray, c: float, p: np.ndarray, delta: float,
          ldv: np.ndarray) -> tuple:
    """Bordered update of the factors L, D with L diag(D) L^T = Q: L's new column
    t_tilde = -L D v above a unit diagonal, also W's border row, and D's new entry tau."""
    tau, t_tilde = 1.0 / delta, -ldv
    return _w_border(state, h_bar, p, tau), t_tilde, {"L": t_tilde, "D": tau}


# the four incremental rules, in the order every report lists them: rule ->
# (correction(state, h_bar, p) -> (c - delta, q), update(state, h_bar, c, p, delta, q) ->
# (W's border column w_bar and row, the child's B or Q or ALG3's L column and D entry))
_RULES = {
    AlgorithmKind.EXISTING: (_existing_correction, _existing),
    AlgorithmKind.ALG1: (_alg1_correction, _alg1),
    AlgorithmKind.ALG2: (_alg2_correction, _alg2),
    AlgorithmKind.ALG3: (_alg3_correction, _alg3),
}
ALL_INCREMENTAL = tuple(_RULES)

# the aux fields of a child state that its rule's update does not return
_NO_AUX = dict.fromkeys(("B", "Q", "L", "D"))

# rule -> (l, K, M) -> multiply-adds of one step from l nodes, its `gemm` and `add_outer`
# products outside `_bordered`
_COST = {
    AlgorithmKind.BASELINE: lambda l, k, m: 2 * (l + 1) ** 2 * k + 2 * m * (l + 1) * k,
    AlgorithmKind.EXISTING: lambda l, k, m: 16 * l * k + 2 * l + 2 * m * (l + 1) * k,
    AlgorithmKind.ALG1: lambda l, k, m: 6 * l * k + 2 * m * k,
    AlgorithmKind.ALG2: lambda l, k, m: 2 * l * k + 2 * m * k,
    AlgorithmKind.ALG3: lambda l, k, m: 2 * l * k + 2 * m * k,
}


def step_multiply_adds(kind: AlgorithmKind | str, l: int, k: int, m: int) -> int:
    """Multiply-adds of one `kind` step from l to l + 1 nodes, K samples, M outputs.

    The rules' one cost model, the checked entry to `_COST`.  A chain's
    cost from l0 to l nodes is the sum of this over l0..l-1.  `kind` is an
    `AlgorithmKind` or its name, as in `warm_start`, and l, K >= 1 and
    M >= 0 (DomainError).
    """
    _check_counts(1, l=l, K=k)
    _check_counts(0, M=m)
    return _COST[AlgorithmKind(kind)](l, k, m)


def add_node(state: SolverState, h_bar: np.ndarray) -> SolverState:
    """Add one hidden node with row h_bar to `state`; returns the child state.

    The frame common to every rule, in order: `_row` reads h_bar as a real
    (DomainError) float64 row of shape (K,) (ShapeError naming any other
    shape); c = h_bar^T h_bar + k0sq is computed once and must pass
    `_check_rows`, the start's and the oracle's row rule (DomainError naming
    the node).  BASELINE stores h_bar after `state`'s rows by `_Store.grow`
    and re-solves on them.  Any other rule's correction in `_RULES` gets
    p = H h_bar from `compute_p`; the one breakdown test `_schur_denominator`
    forms delta = c - correction before anything is updated; the rule's
    update returns W's border, and W becomes [W + w_bar row^T, w_bar]
    (EXISTING returns its full Y B, row None).  Last, `_Store.grow` stores
    h_bar and ALG3's new column and entry and gives the child's H, L and D.
    A step that raises leaves `state` and its chain as they were; only a
    BASELINE re-solve has stored its row by then (see `_store`).
    """
    n, k = state.H.shape
    h_bar = _row(h_bar, k)
    c = float(np.vdot(h_bar, h_bar)) + state.k0sq
    _check_rows((c,), n + 1)
    rule = _RULES.get(state.kind)
    if rule is None:                                 # BASELINE, on the child's rows
        aux = _Store.grow(state, h_bar, {})
        factor, rhs = _factor(aux["H"], state.Y, state.k0sq)
        w = solve_spd(factor, rhs).T
    else:
        correction, update = rule
        p = compute_p(state, h_bar)
        corr, q = correction(state, h_bar, p)
        delta = _schur_denominator(c, corr, n + 1)
        w_bar, row, aux = update(state, h_bar, c, p, delta, q)
        w = w_bar if row is None else _bordered(state.W, w_bar, row)
        aux = _Store.grow(state, h_bar, aux)
    # all ten fields in one update, without the frozen __init__'s ten setattr calls
    child = object.__new__(SolverState)
    child.__dict__.update(_NO_AUX, kind=state.kind, k0sq=state.k0sq, Y=state.Y, W=w, **aux)
    return child
