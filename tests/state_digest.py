"""Print one sha256 over the solver states of fixed growth runs.

Run from a checkout, with one BLAS thread so that products round the same
way from run to run:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/state_digest.py

Two commits that print the same digest produce bitwise the same states.
For each configuration (K, l0, steps), every rule starts from the first l0
rows (`init_solver` when l0 = 1, else `warm_start`) and takes `steps`
chained steps.  Half-way, the parent of the newest state is stepped once
more with another row, which takes the copy path.  The digest covers H, W,
B, Q, L, D and `multiply_adds` of every state, then `solve_direct` and
`solve_direct_prefixes` on all rows of each configuration.  Only public
names are used, so the script runs unchanged on older commits.
"""

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

CONFIGS = [(270, 1, 60), (1000, 6, 80), (2000, 500, 20), (1999, 40, 30)]
M, K0SQ = 3, 0.1


def feed_array(digest, a):
    if a is None:
        digest.update(b"none")
        return
    digest.update(repr(a.shape).encode())
    digest.update(np.ascontiguousarray(a).tobytes())


def feed_state(digest, st):
    digest.update(f"{st.kind.value} {st.l} {st.multiply_adds}".encode())
    for name in ("H", "W", "B", "Q", "L", "D"):
        feed_array(digest, getattr(st, name))


def problem(k, rows, seed):
    rng = np.random.default_rng(seed)
    h = np.exp(-np.square(rng.uniform(-1, 1, (rows, k))))
    return h, rng.standard_normal((M, k))


def main():
    digest = hashlib.sha256()
    for seed, (k, l0, steps) in enumerate(CONFIGS):
        h, y = problem(k, l0 + steps + 1, seed)
        for kind in AlgorithmKind:
            st = init_solver(kind, h[0], y, K0SQ) if l0 == 1 else warm_start(kind, h[:l0], y, K0SQ)
            feed_state(digest, st)
            for i in range(steps):
                parent, st = st, add_node(st, h[l0 + i])
                feed_state(digest, st)
                if i == steps // 2:
                    feed_state(digest, add_node(parent, h[l0 + steps]))
        n = l0 + steps
        feed_array(digest, solve_direct(h[:n], y, K0SQ))
        prefixes = solve_direct_prefixes(h[:n], y, K0SQ, range(1, n + 1))
        for l in range(1, n + 1):
            feed_array(digest, prefixes[l])
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
