"""Where a chain of solver states keeps H, L and D: the one storage policy.

States are immutable to the caller, but a step does not copy the
append-only arrays H (a row per node), L (a column per node) and D (an
entry per node).  Each chain of states keeps them in one store, `_Store`;
the state's fields are exact l-sized views.  The store's fill level n is
the node count of the newest state grown from it.  One rule decides reuse:
a step appends in place only when its state has l == n, the store has room
and h_bar can be row n there, written into a buffer of the store's own or,
on the view path, already in place.  Every other step, and the first step
of a state with no store (a pickled, copied or replaced one), gets a new
store, which copies L and D.  It views the caller's rows in one layout,
the one `hidden_matrix` returns: if h_bar is the row right after the
state's H in a 2-D C-contiguous float64 array with K columns, by data
address and not by overlap, the child's H is that array's view one row
longer, and no H is allocated or written.  The caller must not write those
rows while the states are in use; ifelm never writes them.  Else H is
copied into a buffer of the store's own.  That buffer has a 1-D owner, so
no store takes it for caller rows, which its own store may still write.
It, and ALG3's L and D on either path, doubles when full.  So re-stepping
an old state is correct but may pay a copy, and chained growth appends in
place.  A step writes storage once, by `_Store.grow`, after its algebra, so
an incremental step that raises writes nothing.  BASELINE re-solves on the
child's rows, so it grows first; if that raises, the store holds a row past
every state's view and a fill level past the parent's, whose next step gets
a new store.  B, Q and W are rewritten by every step, each into a fresh
array at its new size; `_fresh` carves the large ones from whole blocks,
which a freed parent's array can leave behind.  Two threads must not step
the same state at once.
"""

from __future__ import annotations

import ctypes
from typing import TYPE_CHECKING

import numpy as np

from .linalg import add_outer, row_bands

if TYPE_CHECKING:
    from .solvers import SolverState

# `_fresh` rounds an array of at least this many entries up to whole blocks of it
_BLOCK = 1 << 16


def _address(a: np.ndarray) -> int | None:
    """The data address of the array a if it is C-contiguous, else None; a ctypes
    view of a's buffer reads it at a third of the cost of `a.ctypes.data`."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except TypeError:                                # read-only or not C-contiguous
        return a.ctypes.data if a.flags.c_contiguous else None


class _Store:
    """Where one chain's H lives, plus L and D for ALG3, with room for more nodes.

    On the view path H is the caller's rows, of the array that holds the
    chain's first state's H, from that H's first row on, and `at` is their
    address; on the copy path H is a buffer of the store's own and `at` is
    None.  `n` is the fill level and `room` the node count the store can
    hold.  L is zeroed, so a step writes only its column.
    """

    __slots__ = ("H", "at", "L", "D", "n", "room")

    def __init__(self, state: SolverState, rows: np.ndarray | None):
        # over the caller's `rows`, or a buffer of its own holding state's H
        n, k, size = state.l, state.sample_count, 2 * (state.l + 1)
        if rows is None:                             # a 1-D owner: never caller rows
            self.H, self.at, self.room = np.empty(size * k).reshape(size, k), None, size
            self.H[:n] = state.H
        else:
            self.H, self.at, self.room = rows, _address(rows), rows.shape[0]
        self.L = self.D = None
        if state.L is not None:                      # ALG3, the one rule that carries L
            self.L = np.zeros((size, size))
            self.L[:n, :n] = state.L
            self.D = np.empty(size)
            self.D[:n] = state.D
            self.room = min(self.room, size)
        self.n = n

    @staticmethod
    def _caller_rows(h: np.ndarray, row: np.ndarray) -> np.ndarray | None:
        """The rows of the 2-D C-contiguous float64 array with K columns that holds h,
        from h's first on, if `row` is the row right after h's last there, else None;
        by data address, not overlap, so a shifted flat view over the next row is another row."""
        base, at, k = h.base, _address(h), h.shape[1]
        if not (at is not None and _address(row) == at + h.nbytes and type(base) is np.ndarray
                and base.dtype == np.float64 and base.ndim == 2 and base.shape[1] == k
                and base.flags.c_contiguous):
            return None
        first, misaligned = divmod(at - _address(base), 8 * k)
        return None if misaligned or base.shape[0] - first <= h.shape[0] else base[first:]

    @staticmethod
    def grow(state: SolverState, h_bar: np.ndarray, aux: dict) -> dict:
        """`aux` with the child's H, L, D and _store, the one storage write of a step: in
        `state`'s store if the reuse rule allows, else a new one, h_bar becomes row n,
        ALG3's aux["L"] and aux["D"] column and entry n, and n + 1 the fill level."""
        store, n = state._store, state.H.shape[0]
        if not (store is not None and store.n == n < store.room and (
                store.at is None or _address(h_bar) == store.at + n * store.H.strides[0])):
            store = _Store(state, _Store._caller_rows(state.H, h_bar))
        if store.at is None:
            store.H[n] = h_bar
        aux["H"], aux["_store"] = store.H[:n + 1], store
        if store.L is not None:
            store.L[:n, n], store.L[n, n], store.D[n] = aux["L"], 1.0, aux["D"]
            aux["L"], aux["D"] = store.L[:n + 1, :n + 1], store.D[:n + 1]
        store.n = n + 1
        return aux


def _fresh(shape: tuple[int, int]) -> np.ndarray:
    """np.empty(shape), 2-D, carved from whole `_BLOCK`-entry blocks when that large.

    Fresh B, Q and W arrays grow by a column every step, so a freed parent's
    array of the exact size is always one column too short for the next
    one.  Rounded up to whole blocks, the sizes coincide and a block freed
    a step or two before serves the next array.  The result is C-contiguous;
    below `_BLOCK` entries it is a plain allocation.
    """
    rows, cols = shape
    size = rows * cols
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
    is in cache; a lone band takes out (its first rows, with a corner), col
    and a whole, not sliced.  Rounds exactly as forming the outer product,
    the sum and the block apart.
    """
    rows, cols = a.shape
    out = _fresh((rows + (corner is not None), cols + 1))
    padded = np.zeros(cols + 1)
    padded[:-1] = row
    bands = row_bands(rows, cols + 1)
    if len(bands) == 1:
        parts = [(out if corner is None else out[:rows], col, a)]
    else:
        parts = ((out[band], col[band], a[band]) for band in bands)
    for o, c, a_band in parts:
        o[:, :-1] = a_band
        add_outer(o, c, padded)
        o[:, -1] = c
    if corner is not None:
        out[-1, :-1], out[-1, -1] = col, corner
    return out
