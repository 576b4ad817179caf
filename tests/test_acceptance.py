"""End-to-end acceptance checks.

Each test prints exactly one line, `ACCEPT <id> <name>: pass` or `: FAIL`,
before asserting, so a -s run gives a one-screen scoreboard.  The expensive
growth and benchmark runs are shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from ifelm.data import SynthKind, synth_dataset
from ifelm.evaluation import classification_metrics, kfold_split
from ifelm.experiments import bench_run, eval_run, grow_run
from ifelm.model import ActivationKind, hidden_matrix, init_random_params
from ifelm.solvers import (
    ALL_INCREMENTAL,
    AlgorithmKind,
    add_node,
    init_solver,
    warm_start,
)

from reference_rules import add_node_q_unsimplified, count_products


def report(ident, name, ok):
    print(f"\nACCEPT {ident} {name}: {'pass' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def deep_growth():
    """Grow all four incremental rules to 500 nodes on the fixed-seed set."""
    ds = synth_dataset(SynthKind.SINE_MIXTURE, 500, 8, 3, seed=7)
    t0 = time.perf_counter()
    _, summary = grow_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 500,
                          ALL_INCREMENTAL, seed=7)
    return summary, time.perf_counter() - t0


def bench_data():
    """The benchmark's data set: K=2000 samples, 8 features, M=10 outputs."""
    return synth_dataset(SynthKind.SINE_MIXTURE, 2000, 8, 10, seed=1)


@pytest.fixture(scope="module")
def big_bench():
    """100 timed node additions at K=2000, l=500, M=10, with their costs."""
    return bench_run(bench_data(), ActivationKind.GAUSSIAN, 0.1, 500, ALL_INCREMENTAL,
                     seed=1, repeats=100)


def test_1_oracle_equivalence_to_100_nodes():
    ds = synth_dataset(SynthKind.SINE_MIXTURE, 500, 8, 3, seed=7)
    t0 = time.perf_counter()
    _, summary = grow_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 100,
                          [AlgorithmKind.EXISTING, AlgorithmKind.ALG1,
                           AlgorithmKind.ALG3], seed=7)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    for name in ("existing", "alg1", "alg3"):
        entry = summary["algorithms"][name]
        ok = ok and entry["breakdown"] is None
        ok = ok and entry["max_weight_error"] <= 1e-8
        ok = ok and entry["max_output_error"] <= 1e-8
    report(1, "oracle equivalence at 100 nodes", ok)


def test_2_stability_drift_to_500_nodes(deep_growth):
    summary, elapsed = deep_growth
    a2 = summary["algorithms"]["alg2"]
    a3 = summary["algorithms"]["alg3"]
    ok = elapsed < 180.0
    ok = ok and a2["breakdown"] is None and a3["breakdown"] is None
    ok = ok and a2["max_weight_error"] <= 1e-4
    ok = ok and a3["max_weight_error"] <= 1e-7
    final2 = a2["checkpoint_errors"]["500"]["weight_error"]
    final3 = a3["checkpoint_errors"]["500"]["weight_error"]
    ok = ok and final2 > final3
    report(2, "direct-inverse drift bounded, factored rule tighter", ok)


def test_3_flop_counts_match_cost_models(big_bench, monkeypatch):
    """Each rule's reported cost is within 20% of the products its bench step runs.

    The step is the bench's first, from l = 500 over the bench's own hidden
    rows, metered by `count_products`; a warm start's products are not counted.
    """
    ds = bench_data()
    params = init_random_params(600, ds.X.shape[0], ActivationKind.GAUSSIAN, seed=1)
    h = hidden_matrix(params, ds.X)
    counted = count_products(monkeypatch)
    ok = (big_bench["K"], big_bench["l"], big_bench["M"]) == (2000, 500, 10)
    for name in ("existing", "alg1", "alg2", "alg3"):
        state = warm_start(name, h[:500], ds.Y, 0.1)
        counted[0] = 0
        add_node(state, h[500])
        model = big_bench["algorithms"][name]["flops_per_step"]
        ok = ok and abs(counted[0] - model) <= 0.20 * model
    ratio = big_bench["algorithms"]["alg2"]["flop_ratio_vs_existing"]
    ok = ok and abs(ratio - 18.0) <= 0.20 * 18.0
    report(3, "per-step flops within 20% of cost models", ok)


def test_4_wall_clock_ordering(big_bench):
    """K=2000, l=500 lies in the l ≤ K regime, where alg2 beats alg1.

    The times are `bench_run`'s: 100 chained steps over l = 500…600, the
    first of which also builds the chain's store.

    At l = 2K alg2's l x l update of Q costs more than alg1's K x l update
    of B and alg1 is the faster of the two (see the README), so this
    ordering holds for this configuration, not for every K and l.
    """
    t = {name: big_bench["algorithms"][name]["mean_ns"]
         for name in ("existing", "alg1", "alg2")}
    ok = t["alg2"] < t["alg1"] < t["existing"]
    report(4, "mean step time ordering alg2 < alg1 < existing", ok)


def test_5_unsimplified_and_simplified_inverse_updates_agree():
    rng = np.random.default_rng(15)
    rows = rng.uniform(-1, 1, (50, 60))
    y = rng.standard_normal((3, 60))
    simp = init_solver(AlgorithmKind.ALG2, rows[0], y, 0.1)
    uns = init_solver(AlgorithmKind.ALG2, rows[0], y, 0.1)
    ok = True
    for i in range(1, 50):
        simp = add_node(simp, rows[i])
        uns = add_node_q_unsimplified(uns, rows[i])
        diff = np.linalg.norm(simp.Q - uns.Q)
        ok = ok and diff <= 1e-11 * (1.0 + np.linalg.norm(simp.Q))
    report(5, "rearranged inverse recursions agree at every step", ok)


def test_6_cross_representation_identity_suite():
    kinds = [AlgorithmKind.ALG1, AlgorithmKind.ALG2, AlgorithmKind.ALG3]
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        rows = np.exp(-np.square(rng.uniform(-1, 1, (30, 40))))
        y = rng.standard_normal((2, 40))
        states = {k: init_solver(k, rows[0], y, 0.1) for k in kinds}
        for i in range(1, 30):
            h_bar = rows[i]
            q_old = states[AlgorithmKind.ALG2].Q
            h_old = states[AlgorithmKind.ALG2].H
            c = float(h_bar @ h_bar) + 0.1
            p = h_old @ h_bar
            qp = q_old @ p
            tau = 1.0 / (c - float(p @ qp))
            t = -tau * qp
            states = {k: add_node(st, h_bar) for k, st in states.items()}
            a1 = states[AlgorithmKind.ALG1]
            a2 = states[AlgorithmKind.ALG2]
            a3 = states[AlgorithmKind.ALG3]
            # new factor column is t scaled back by the step denominator
            t_tilde = a3.L[:-1, -1]
            ok = ok and (np.linalg.norm(t_tilde - t / tau)
                         <= 1e-11 * (1.0 + np.linalg.norm(t / tau)))
            # new pseudo-inverse column from the inverse-state quantities
            b_bar = a1.B[:, -1]
            ref = h_old.T @ t + tau * h_bar
            ok = ok and (np.linalg.norm(b_bar - ref)
                         <= 1e-11 * (1.0 + np.linalg.norm(ref)))
            # the triangular factors reconstruct the inverse
            q_rebuilt = a3.L @ np.diag(a3.D) @ a3.L.T
            ok = ok and (np.linalg.norm(q_rebuilt - a2.Q)
                         <= 1e-11 * (1.0 + np.linalg.norm(a2.Q)))
    report(6, "factor, inverse and pseudo-inverse states stay consistent", ok)


def test_7_metrics_and_fold_partitions():
    y = np.array([[1, 1, 1, 0, 0, 0.0], [0, 0, 0, 1, 1, 1.0]])
    z = np.array([[1, 1, 0, 1, 0, 0.0], [0, 0, 1, 0, 1, 1.0]])
    rep = classification_metrics(z, y)
    ok = abs(rep.mcc - 1.0 / 3.0) <= 1e-15

    perfect = classification_metrics(y, y)
    ok = ok and perfect.acc == perfect.sn == perfect.pe == perfect.mcc == 1.0

    rng = np.random.default_rng(77)
    for _ in range(100):
        k = int(rng.integers(10, 200))
        folds = int(rng.integers(2, 9))
        splits = kfold_split(k, folds, seed=int(rng.integers(0, 10_000)))
        union = np.concatenate([test for _, test in splits])
        ok = ok and np.array_equal(np.sort(union), np.arange(k))
        ok = ok and all(not set(tr) & set(te) for tr, te in splits)
    report(7, "metric identities and exact fold partitions", ok)


def test_8_all_rules_reach_identical_cv_metrics():
    ds = synth_dataset(SynthKind.TWO_GAUSSIANS, 300, 8, 2, seed=5, noise=8.0)
    algs = [AlgorithmKind.BASELINE, *ALL_INCREMENTAL]
    out = eval_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 100, algs,
                   seed=5, folds=5)

    def six_digits(x):
        return float(f"{x:.6g}")

    rows = [tuple(six_digits(entry["mean"][n]) for n in ("acc", "sn", "pe", "mcc"))
            for entry in out["algorithms"].values()]
    ok = len(set(rows)) == 1
    # the metrics must also be non-trivial so the agreement means something
    acc = next(iter(out["algorithms"].values()))["mean"]["acc"]
    ok = ok and 0.0 < acc < 1.0
    report(8, "fivefold metrics agree across all five rules", ok)
