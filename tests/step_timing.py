"""Print the small-step time of every rule, for comparison across commits.

Run from a checkout, with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/step_timing.py [chains]

Each rule starts from one row (`init_solver`) at K = 270 samples and M = 2
outputs, and takes the chained steps from l = 1 to l = 40 nodes with
`add_node`, the size of one fit of a small cross-validation.  A chain's
time is the mean of its 39 steps (`time.perf_counter_ns`); the script
prints, per rule, the minimum over `chains` chains (default 300), in µs.
The minimum is the figure least moved by other work on the machine.  At
this size a step's fixed cost, not its counted products, sets the rules'
times.  Only public names are used, so the script runs unchanged on older
commits.
"""

import sys
import time

import numpy as np

from ifelm.solvers import AlgorithmKind, add_node, init_solver

K, M, NODES, K0SQ = 270, 2, 40, 0.1


def chain_us(kind, h, y) -> float:
    """Mean time of one step, in µs, over a chain from 1 to NODES nodes."""
    st = init_solver(kind, h[0], y, K0SQ)
    start = time.perf_counter_ns()
    for l in range(1, NODES):
        st = add_node(st, h[l])
    return (time.perf_counter_ns() - start) / (NODES - 1) / 1e3


def main():
    chains = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    rng = np.random.default_rng(0)
    h = np.exp(-np.square(rng.uniform(-1, 1, (NODES, K))))
    y = rng.standard_normal((M, K))
    best = {kind: float("inf") for kind in AlgorithmKind}
    for _ in range(chains):                          # rules interleaved, as drift hits all
        for kind in AlgorithmKind:
            best[kind] = min(best[kind], chain_us(kind, h, y))
    print(f"step time, min over {chains} chains of the mean step, K={K} M={M} l 1->{NODES}")
    for kind, us in best.items():
        print(f"{kind.value:9s}{us:8.2f} us")


if __name__ == "__main__":
    main()
