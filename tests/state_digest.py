"""Print sha256 digests of the solver states of fixed growth runs.

Run from a checkout, with one BLAS thread so that products round the same
way from run to run:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/state_digest.py

For each configuration (K, l0, steps), every rule starts from the first l0
rows (`init_solver` when l0 = 1, else `warm_start`) and takes `steps`
chained steps.  Half-way, the parent of the newest state is stepped once
more with another row, which takes the copy path.  The digest covers the
rule, l, H, W, B, Q, L and D of every state, then `solve_direct` and
`solve_direct_prefixes` on all rows of each configuration.

The first line is one digest over all of it; two commits that print the
same first line produce bitwise the same states.  The lines after it
digest the same bytes split by source, one per rule (`baseline`,
`existing`, `alg1`, `alg2`, `alg3`) and one for the oracle (`oracle`), so
they show which of them moved.  The last line, `copies`, feeds none of
the others: it digests the same chains stepped with value-equal copies of
their rows, so that every step writes H into a buffer of the store's own
and the buffer doubles, and half-way the steps of a `copy.copy` of the
newest state, which holds no store.  Only public names are used, so the
script runs unchanged on older commits.
"""

import copy
import hashlib

import numpy as np

from ifelm.solvers import (
    AlgorithmKind,
    add_node,
    init_solver,
    solve_direct,
    solve_direct_prefixes,
    warm_start,
)


class Tee:
    """Feeds every update to several digests."""

    def __init__(self, *digests):
        self.digests = digests

    def update(self, data):
        for d in self.digests:
            d.update(data)


CONFIGS = [(270, 1, 60), (1000, 6, 80), (2000, 500, 20), (1999, 40, 30)]
M, K0SQ = 3, 0.1


def feed_array(digest, a):
    if a is None:
        digest.update(b"none")
        return
    digest.update(repr(a.shape).encode())
    digest.update(np.ascontiguousarray(a).tobytes())


def feed_state(digest, st):
    digest.update(f"{st.kind.value} {st.l}".encode())
    for name in ("H", "W", "B", "Q", "L", "D"):
        feed_array(digest, getattr(st, name))


def problem(k, rows, seed):
    rng = np.random.default_rng(seed)
    h = np.exp(-np.square(rng.uniform(-1, 1, (rows, k))))
    return h, rng.standard_normal((M, k))


def start(kind, h, y, l0):
    return init_solver(kind, h[0], y, K0SQ) if l0 == 1 else warm_start(kind, h[:l0], y, K0SQ)


def feed_copies(digest, kind, h, y, l0, steps):
    st = start(kind, h, y, l0)
    for i in range(steps):
        st = add_node(st, h[l0 + i].copy())
        feed_state(digest, st)
        if i == steps // 2:
            twin = copy.copy(st)
            for row in (h[l0 + i + 1], h[l0 + steps]):
                twin = add_node(twin, row)
                feed_state(digest, twin)


def main():
    digest, copies = hashlib.sha256(), hashlib.sha256()
    parts = {name: hashlib.sha256() for name in [k.value for k in AlgorithmKind] + ["oracle"]}
    for seed, (k, l0, steps) in enumerate(CONFIGS):
        h, y = problem(k, l0 + steps + 1, seed)
        for kind in AlgorithmKind:
            feed = Tee(digest, parts[kind.value])
            st = start(kind, h, y, l0)
            feed_state(feed, st)
            for i in range(steps):
                parent, st = st, add_node(st, h[l0 + i])
                feed_state(feed, st)
                if i == steps // 2:
                    feed_state(feed, add_node(parent, h[l0 + steps]))
            feed_copies(copies, kind, h, y, l0, steps)
        feed = Tee(digest, parts["oracle"])
        n = l0 + steps
        feed_array(feed, solve_direct(h[:n], y, K0SQ))
        prefixes = solve_direct_prefixes(h[:n], y, K0SQ, range(1, n + 1))
        for l in range(1, n + 1):
            feed_array(feed, prefixes[l])
    print(digest.hexdigest())
    for name, part in parts.items():
        print(f"{name:9s}{part.hexdigest()}")
    print(f"{'copies':9s}{copies.hexdigest()}")


if __name__ == "__main__":
    main()
