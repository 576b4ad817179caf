"""Growth, benchmark, cross-validation and equivalence runs.

All runs share one set of random hidden-node parameters and one node order
so differences between algorithms isolate the update rule.  Timing covers
the add_node call only; hidden-row generation and data loading are shared
cost and excluded.
"""

from __future__ import annotations

import time

import numpy as np

from . import solvers
from .data import Dataset
from .evaluation import (
    GrowthTrace,
    StepRecord,
    classification_metrics,
    kfold_split,
    mse,
    weight_output_errors,
)
from .model import ActivationKind, ElmParams, hidden_matrix, init_random_params
from .solvers import AlgorithmKind, SolverState, add_node
from .data import TaskKind, apply_normalization, normalize_features

# comparison thresholds: algorithm -> (max node count checked, error bound)
DEFAULT_THRESHOLDS = {
    AlgorithmKind.EXISTING: (100, 1e-8),
    AlgorithmKind.ALG1: (100, 1e-8),
    AlgorithmKind.ALG2: (500, 1e-4),
    AlgorithmKind.ALG3: (100, 1e-8),
}


def _start_state(kind: AlgorithmKind, h: np.ndarray, y: np.ndarray, k0sq: float,
                 start: int, enable_flops: bool) -> SolverState:
    if start == 1:
        return solvers.init_solver(kind, h[0], y, k0sq, enable_flops=enable_flops)
    return solvers.warm_start(kind, h[:start], y, k0sq, enable_flops=enable_flops)


def _flops(state: SolverState) -> int:
    return state.counter.multiply_adds if state.counter is not None else 0


def grow_run(ds: Dataset, kernel: ActivationKind, k0sq: float, start: int, end: int,
             algorithms: list[AlgorithmKind], seed: int,
             params: ElmParams | None = None,
             enable_flops: bool = True):
    """Grow each algorithm from `start` to `end` nodes in lockstep.

    Returns (traces, summary) where traces maps algorithm name to a
    GrowthTrace of per-step errors vs the direct solve, and summary holds
    checkpoint errors and breakdown diagnostics.
    """
    if params is None:
        params = init_random_params(end, ds.X.shape[0], kernel, seed)
    if params.hidden_count < end:
        raise ValueError(f"params provide {params.hidden_count} nodes, need {end}")
    h_full = hidden_matrix(params, ds.X)
    y = ds.Y

    # direct-solve reference weights at every node count
    base_w = {}
    for l in range(start, end + 1):
        base_w[l] = solvers.solve_direct(h_full[:l], y, k0sq)

    checkpoints = sorted({c for c in (3, 100, 500) if start <= c <= end} | {end})
    traces: dict[str, GrowthTrace] = {}
    summary: dict = {"checkpoints": checkpoints, "algorithms": {}}

    for kind in algorithms:
        trace = GrowthTrace(algorithm=kind.value)
        state = _start_state(kind, h_full, y, k0sq, start, enable_flops)
        entry = {"checkpoint_errors": {}, "breakdown": None}

        def record(st: SolverState, elapsed_ns: int, flops: int):
            w_err, z_err = weight_output_errors(
                st.W, base_w[st.l], st.W @ h_full[: st.l], base_w[st.l] @ h_full[: st.l]
            )
            trace.append(StepRecord(l=st.l, weight_error=w_err, output_error=z_err,
                                    flops=flops, elapsed_ns=elapsed_ns))
            if st.l in checkpoints:
                entry["checkpoint_errors"][str(st.l)] = {
                    "weight_error": w_err, "output_error": z_err,
                }

        record(state, 0, 0)
        for l in range(start, end):
            before = _flops(state)
            t0 = time.perf_counter_ns()
            try:
                state = add_node(state, h_full[l])
            except solvers.NumericalBreakdownError as exc:
                entry["breakdown"] = {"node": l + 1, "reason": str(exc)}
                break
            elapsed = time.perf_counter_ns() - t0
            record(state, elapsed, _flops(state) - before)

        entry["max_weight_error"] = max(r.weight_error for r in trace.records)
        entry["max_output_error"] = max(r.output_error for r in trace.records)
        traces[kind.value] = trace
        summary["algorithms"][kind.value] = entry

    return traces, summary


def bench_run(ds: Dataset, kernel: ActivationKind, k0sq: float, l: int,
              algorithms: list[AlgorithmKind], seed: int, repeats: int):
    """Time and meter a single node addition at node count l.

    Each algorithm is warm-started to l nodes once; the (l+1)-th addition
    is repeated `repeats` times on the same immutable base state.  The base
    state's arrays are never at a solver buffer's fill level, so every timed
    step takes the copy path and pays for copying H (and L, D); chained
    growth, as in grow_run and eval_run, appends in place instead.
    """
    params = init_random_params(l + 1, ds.X.shape[0], kernel, seed)
    h_full = hidden_matrix(params, ds.X)
    h_bar = h_full[l]
    m = ds.Y.shape[0]
    k = ds.X.shape[1]

    report = {
        "K": k, "l": l, "M": m, "repeats": repeats,
        "flop_model": {
            "existing": 16 * l * k + 2 * m * l * k,
            "alg1": 6 * l * k + 2 * m * k,
            "alg2": 2 * l * k + 2 * m * k,
            "alg3": 2 * l * k + 2 * m * k,
        },
        "algorithms": {},
    }
    for kind in algorithms:
        base = solvers.warm_start(kind, h_full[:l], ds.Y, k0sq, enable_flops=True)
        before = _flops(base)
        add_node(base, h_bar)
        flops = _flops(base) - before
        base.counter.enabled = False
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            add_node(base, h_bar)
            times.append(time.perf_counter_ns() - t0)
        report["algorithms"][kind.value] = {
            "flops_per_step": flops,
            "mean_ns": float(np.mean(times)),
            "min_ns": int(np.min(times)),
        }

    existing = report["algorithms"].get(AlgorithmKind.EXISTING.value)
    if existing is not None:
        for name, entry in report["algorithms"].items():
            if name == AlgorithmKind.EXISTING.value:
                continue
            entry["speedup_mean"] = existing["mean_ns"] / entry["mean_ns"]
            entry["flop_ratio_vs_existing"] = existing["flops_per_step"] / entry["flops_per_step"]
    return report


def _grow_to(kind: AlgorithmKind, h_full: np.ndarray, y: np.ndarray, k0sq: float,
             start: int, end: int) -> SolverState:
    state = _start_state(kind, h_full, y, k0sq, start, enable_flops=False)
    for l in range(start, end):
        state = add_node(state, h_full[l])
    return state


def eval_run(ds: Dataset, kernel: ActivationKind, k0sq: float, start: int, end: int,
             algorithms: list[AlgorithmKind], seed: int, folds: int):
    """K-fold cross-validation; per-fold training uses the chosen rule."""
    splits = kfold_split(ds.sample_count, folds, seed)
    report = {"folds": folds, "task": ds.task.value, "nodes": end, "algorithms": {}}

    for kind in algorithms:
        fold_metrics: list[dict] = []
        for train_idx, test_idx in splits:
            train = Dataset(X=ds.X[:, train_idx], Y=ds.Y[:, train_idx], task=ds.task)
            test = Dataset(X=ds.X[:, test_idx], Y=ds.Y[:, test_idx], task=ds.task)
            train_n, transform = normalize_features(train)
            test_n = apply_normalization(test, transform)
            params = init_random_params(end, ds.X.shape[0], kernel, seed)
            h_train = hidden_matrix(params, train_n.X)
            state = _grow_to(kind, h_train, train_n.Y, k0sq, start, end)
            z_test = state.W @ hidden_matrix(params, test_n.X)
            if ds.task is TaskKind.REGRESSION:
                fold_metrics.append({"mse": mse(z_test, test_n.Y)})
            else:
                rep = classification_metrics(z_test, test_n.Y)
                fold_metrics.append({"acc": rep.acc, "sn": rep.sn,
                                     "pe": rep.pe, "mcc": rep.mcc})
        names = fold_metrics[0].keys()
        report["algorithms"][kind.value] = {
            "per_fold": fold_metrics,
            "mean": {n: float(np.mean([f[n] for f in fold_metrics])) for n in names},
            "variance": {n: float(np.var([f[n] for f in fold_metrics])) for n in names},
        }
    return report


def compare_run(ds: Dataset, kernel: ActivationKind, k0sq: float, start: int, end: int,
                seed: int, thresholds=None):
    """Lockstep equivalence check of all incremental rules vs the baseline."""
    if thresholds is None:
        thresholds = DEFAULT_THRESHOLDS
    algorithms = [AlgorithmKind.EXISTING, AlgorithmKind.ALG1,
                  AlgorithmKind.ALG2, AlgorithmKind.ALG3]
    traces, _ = grow_run(ds, kernel, k0sq, start, end, algorithms, seed,
                         enable_flops=False)
    report = {"nodes": {"start": start, "end": end}, "entries": [], "passed": True}
    for kind in algorithms:
        limit_l, bound = thresholds[kind]
        checked = [r for r in traces[kind.value].records if r.l <= limit_l]
        w_max = max(r.weight_error for r in checked)
        z_max = max(r.output_error for r in checked)
        ok = w_max <= bound and z_max <= bound
        worst = max(checked, key=lambda r: max(r.weight_error, r.output_error))
        report["entries"].append({
            "algorithm": kind.value, "checked_up_to": min(limit_l, end),
            "threshold": bound, "max_weight_error": w_max, "max_output_error": z_max,
            "worst_step": worst.l, "passed": ok,
        })
        if not ok:
            report["passed"] = False
    return report
