"""Growth, benchmark, cross-validation and equivalence runs.

All runs share one set of random hidden-node parameters and one node order
so differences between algorithms isolate the update rule.  Timing covers
the add_node call only; hidden-row generation and data loading are shared
cost and excluded.

grow_run's oracle is independent of every update rule: one Gram product
and one Cholesky factorization of all `end` nodes, whose leading l x l
block factors the Gram matrix of the first l nodes, give the direct-solve
weights at every l (`solvers.solve_direct_prefixes`).  That replaces one
factorization per node count, O(end^4) work, with O(end^3).
"""

from __future__ import annotations

import time

import numpy as np

from . import solvers
from .data import Dataset
from .errors import DomainError
from .evaluation import (
    GrowthTrace,
    StepRecord,
    classification_metrics,
    kfold_split,
    mse,
    weight_output_errors,
)
from .model import ActivationKind, ElmParams, hidden_matrix, init_random_params
from .solvers import AlgorithmKind, SolverState, _check_k0sq, add_node
from .data import TaskKind, apply_normalization, normalize_features

# comparison thresholds: algorithm -> (max node count checked, error bound)
DEFAULT_THRESHOLDS = {
    AlgorithmKind.EXISTING: (100, 1e-8),
    AlgorithmKind.ALG1: (100, 1e-8),
    AlgorithmKind.ALG2: (500, 1e-4),
    AlgorithmKind.ALG3: (100, 1e-8),
}


def _check_inputs(start: int, end: int, k0sq: float) -> None:
    """Raise DomainError unless 1 <= start <= end and k0sq is finite and > 0."""
    if not 1 <= start <= end:
        raise DomainError(f"need 1 <= start <= end, got {start}..{end}")
    _check_k0sq(k0sq)


def _normal_residual(w: np.ndarray, h: np.ndarray, y: np.ndarray, k0sq: float) -> float:
    """Relative residual |W (H H^T + k0sq I) - Y H^T|_F / |Y H^T|_F of the normal equations.

    Computed as (W H) H^T + k0sq W, without forming the Gram matrix; an
    all-zero Y H^T gives the absolute residual.
    """
    rhs = y @ h.T
    res = float(np.linalg.norm((w @ h) @ h.T + k0sq * w - rhs))
    scale = float(np.linalg.norm(rhs))
    return res / scale if scale > 0 else res


def grow_run(ds: Dataset, kernel: ActivationKind, k0sq: float, start: int, end: int,
             algorithms: list[AlgorithmKind], seed: int,
             params: ElmParams | None = None):
    """Grow each algorithm from `start` to `end` nodes, one after another.

    The reference weights at every node count l come from one Cholesky
    factorization of the Gram matrix of all `end` nodes
    (`solvers.solve_direct_prefixes`); at l = end they are bitwise those
    of `solvers.solve_direct`.  The reference outputs at every l are
    computed once and shared by all rules.  Needs 1 <= start <= end <= the
    node count of `params` and a finite k0sq > 0, else raises DomainError.

    Returns (traces, summary) where traces maps algorithm name to a
    GrowthTrace of per-step errors vs the direct solve and per-step
    multiply-adds, and summary holds checkpoint errors and breakdown
    diagnostics per algorithm, plus `oracle_residual`: the reference's
    relative normal-equation residual at each checkpoint.
    """
    _check_inputs(start, end, k0sq)
    if params is None:
        params = init_random_params(end, ds.X.shape[0], kernel, seed)
    if params.hidden_count < end:
        raise DomainError(f"params provide {params.hidden_count} nodes, need {end}")
    h_full = hidden_matrix(params, ds.X)
    y = ds.Y

    base_w = solvers.solve_direct_prefixes(h_full, y, k0sq, range(start, end + 1))
    base_z = {l: w @ h_full[:l] for l, w in base_w.items()}

    checkpoints = sorted({c for c in (3, 100, 500) if start <= c <= end} | {end})
    traces: dict[str, GrowthTrace] = {}
    summary: dict = {
        "checkpoints": checkpoints,
        "oracle_residual": {
            str(c): _normal_residual(base_w[c], h_full[:c], y, k0sq) for c in checkpoints
        },
        "algorithms": {},
    }

    for kind in algorithms:
        trace = GrowthTrace(algorithm=kind.value)
        state = solvers.warm_start(kind, h_full[:start], y, k0sq)
        entry = {"checkpoint_errors": {}, "breakdown": None}

        def record(st: SolverState, elapsed_ns: int, flops: int):
            w_err, z_err = weight_output_errors(
                st.W, base_w[st.l], st.W @ h_full[: st.l], base_z[st.l]
            )
            trace.append(StepRecord(l=st.l, weight_error=w_err, output_error=z_err,
                                    flops=flops, elapsed_ns=elapsed_ns))
            if st.l in checkpoints:
                entry["checkpoint_errors"][str(st.l)] = {
                    "weight_error": w_err, "output_error": z_err,
                }

        record(state, 0, 0)
        for l in range(start, end):
            parent = state
            t0 = time.perf_counter_ns()
            try:
                state = add_node(parent, h_full[l])
            except solvers.NumericalBreakdownError as exc:
                entry["breakdown"] = {"node": l + 1, "reason": str(exc)}
                break
            elapsed = time.perf_counter_ns() - t0
            record(state, elapsed, state.multiply_adds - parent.multiply_adds)

        entry["max_weight_error"] = max(r.weight_error for r in trace.records)
        entry["max_output_error"] = max(r.output_error for r in trace.records)
        traces[kind.value] = trace
        summary["algorithms"][kind.value] = entry

    return traces, summary


def bench_run(ds: Dataset, kernel: ActivationKind, k0sq: float, l: int,
              algorithms: list[AlgorithmKind], seed: int, repeats: int):
    """Time and meter a single node addition at node count l.

    Each algorithm is warm-started to l nodes once; the (l+1)-th addition
    is repeated `repeats` times on the same immutable base state, and the
    step's multiply-adds are read off the last timed child.  The base
    state comes from `warm_start` and owns no store, so every timed step
    copies H (and L, D) into a new one; chained growth, as in grow_run and
    eval_run, appends in place instead.  Needs l >= 1 (the CLI's --end),
    repeats >= 1 and a finite k0sq > 0, else raises DomainError.
    """
    if l < 1:
        raise DomainError(f"end must be >= 1, got {l}")
    if repeats < 1:
        raise DomainError(f"repeats must be >= 1, got {repeats}")
    _check_k0sq(k0sq)
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
        base = solvers.warm_start(kind, h_full[:l], ds.Y, k0sq)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            child = add_node(base, h_bar)
            times.append(time.perf_counter_ns() - t0)
        report["algorithms"][kind.value] = {
            "flops_per_step": child.multiply_adds - base.multiply_adds,
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
    state = solvers.warm_start(kind, h_full[:start], y, k0sq)
    for l in range(start, end):
        state = add_node(state, h_full[l])
    return state


def eval_run(ds: Dataset, kernel: ActivationKind, k0sq: float, start: int, end: int,
             algorithms: list[AlgorithmKind], seed: int, folds: int):
    """K-fold cross-validation; per-fold training uses the chosen rule.

    Each fold grows from `start` to `end` nodes; needs 1 <= start <= end,
    a finite k0sq > 0 and 2 <= folds <= the sample count, else raises
    DomainError.
    """
    _check_inputs(start, end, k0sq)
    splits = kfold_split(ds.sample_count, folds, seed)
    params = init_random_params(end, ds.X.shape[0], kernel, seed)
    report = {"folds": folds, "task": ds.task.value, "nodes": end, "algorithms": {}}

    for kind in algorithms:
        fold_metrics: list[dict] = []
        for train_idx, test_idx in splits:
            train = Dataset(X=ds.X[:, train_idx], Y=ds.Y[:, train_idx], task=ds.task)
            test = Dataset(X=ds.X[:, test_idx], Y=ds.Y[:, test_idx], task=ds.task)
            train_n, transform = normalize_features(train)
            test_n = apply_normalization(test, transform)
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
                seed: int):
    """Equivalence check of the four incremental rules against the direct-solve oracle.

    Each rule is checked only up to its node-count limit in
    `DEFAULT_THRESHOLDS`, so a `start` above any limit raises DomainError,
    as do the checks of `grow_run`.
    """
    _check_inputs(start, end, k0sq)
    thresholds = DEFAULT_THRESHOLDS
    for kind, (limit_l, _) in thresholds.items():
        if start > limit_l:
            raise DomainError(f"start {start} is above {kind.value}'s checked limit "
                              f"of {limit_l} nodes")
    algorithms = [AlgorithmKind.EXISTING, AlgorithmKind.ALG1,
                  AlgorithmKind.ALG2, AlgorithmKind.ALG3]
    traces, summary = grow_run(ds, kernel, k0sq, start, end, algorithms, seed)
    report = {"nodes": {"start": start, "end": end}, "entries": [], "passed": True}
    for kind in algorithms:
        limit_l, bound = thresholds[kind]
        checked = [r for r in traces[kind.value].records if r.l <= limit_l]
        w_max = max(r.weight_error for r in checked)
        z_max = max(r.output_error for r in checked)
        breakdown = summary["algorithms"][kind.value]["breakdown"]
        ok = (w_max <= bound and z_max <= bound
              and (breakdown is None or breakdown["node"] > min(limit_l, end)))
        worst = max(checked, key=lambda r: max(r.weight_error, r.output_error))
        report["entries"].append({
            "algorithm": kind.value, "checked_up_to": checked[-1].l,
            "threshold": bound, "max_weight_error": w_max, "max_output_error": z_max,
            "worst_step": worst.l, "breakdown": breakdown, "passed": ok,
        })
        if not ok:
            report["passed"] = False
    return report
