"""Growth, benchmark, cross-validation and equivalence runs.

All runs share one set of random hidden-node parameters and one node order
so differences between algorithms isolate the update rule.  Every runner
steps through one chain loop, `_chain`: a warm start on the first rows,
then one add_node call per further row, each child stepped from the one
before.  Each row is the next row of the runner's own hidden matrix, which
the runners never write while its states are in use, so every chain views
it and copies no H (see `ifelm._store`).
`grow`, `eval`, `compare` and `bench` thus time and run the same step.
Timing covers the add_node call only; hidden-row generation and data
loading are shared cost and excluded.

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
from .data import (
    Dataset,
    TaskKind,
    _as_list,
    _check_counts,
    apply_normalization,
    normalize_features,
)
from .errors import DomainError, NumericalBreakdownError
from .evaluation import (
    GrowthTrace,
    StepRecord,
    classification_metrics,
    kfold_split,
    mse,
    weight_output_errors,
)
from .model import ActivationKind, ElmParams, hidden_matrix, init_random_params
from .solvers import ALL_INCREMENTAL, AlgorithmKind, add_node

# comparison thresholds: algorithm -> (max node count checked, error bound)
DEFAULT_THRESHOLDS = {kind: (500, 1e-4) if kind is AlgorithmKind.ALG2 else (100, 1e-8)
                      for kind in ALL_INCREMENTAL}


def _check_inputs(start: int, end: int) -> None:
    """Raise DomainError unless start and end are integers with 1 <= start <= end."""
    _check_counts(1, start=start, end=end)
    if start > end:
        raise DomainError(f"need start <= end, got {start}..{end}")


def _distinct(algorithms) -> list[AlgorithmKind]:
    """`algorithms`, kinds or names, as a list of kinds; DomainError if it is
    not a list, is empty or names an unknown rule or a rule twice."""
    kinds = [AlgorithmKind(k) for k in _as_list(algorithms, "algorithms")]
    if not kinds:
        raise DomainError("no algorithm to run")
    for i, kind in enumerate(kinds):
        if kind in kinds[:i]:
            raise DomainError(f"algorithm {kind.value!r} named twice")
    return kinds


def _normal_residual(w: np.ndarray, h: np.ndarray, y: np.ndarray, k0sq: float) -> float:
    """Relative residual |W (H H^T + k0sq I) - Y H^T|_F / |Y H^T|_F of the normal equations.

    Computed as (W H) H^T + k0sq W, without forming the Gram matrix; an
    all-zero Y H^T gives the absolute residual.
    """
    rhs = y @ h.T
    res = float(np.linalg.norm((w @ h) @ h.T + k0sq * w - rhs))
    scale = float(np.linalg.norm(rhs))
    return res / scale if scale > 0 else res


def _chain(kind: AlgorithmKind, h: np.ndarray, y: np.ndarray, k0sq: float,
           start: int, end: int):
    """Grow one chain of `kind` states from `start` to `end` nodes.

    Warm-starts on h[:start] and yields (state, 0); then adds rows
    start..end-1 one at a time, each to the previous child, and yields
    (child, ns), where ns is the wall time of that add_node call alone.
    add_node is this module's global, looked up at each step, so a wrapper
    set on `experiments.add_node` sees every step of every runner.
    """
    state = solvers.warm_start(kind, h[:start], y, k0sq)
    yield state, 0
    for l in range(start, end):
        t0 = time.perf_counter_ns()
        state = add_node(state, h[l])
        yield state, time.perf_counter_ns() - t0


def grow_run(ds: Dataset, kernel: ActivationKind, k0sq: float, start: int, end: int,
             algorithms: list[AlgorithmKind | str], seed: int,
             params: ElmParams | None = None):
    """Grow each algorithm from `start` to `end` nodes, one after another.

    The reference weights at every node count l come from one Cholesky
    factorization of the Gram matrix of all `end` nodes
    (`solvers.solve_direct_prefixes`); at l = end they are bitwise those
    of `solvers.solve_direct`.  A step's output error |(W - W_l) H_l|_F comes
    from the difference its weight error takes.  Needs integers 1 <= start
    <= end <= the node count of `params`, a k0sq that `solvers.warm_start`
    accepts and a non-empty list of known rules, kinds or names, naming no
    rule twice, else raises DomainError.  A rule's failed step, reported
    by NumericalBreakdownError, ends its trace; a failed oracle or start
    raises.

    Returns (traces, summary) where traces maps algorithm name to a
    GrowthTrace of per-step errors vs the direct solve and per-step
    `solvers.step_multiply_adds` (0 for the start), and summary holds
    checkpoint errors and breakdown diagnostics per algorithm, plus
    `oracle_residual`: the reference's relative normal-equation residual at
    each checkpoint.
    """
    _check_inputs(start, end)
    algorithms = _distinct(algorithms)
    if params is None:
        params = init_random_params(end, ds.X.shape[0], kernel, seed)
    elif len(params.d) < end:
        raise DomainError(f"end {end} is above the {len(params.d)} nodes of params")
    h_full = hidden_matrix(params, ds.X)
    y = ds.Y
    m, k = y.shape

    base_w = solvers.solve_direct_prefixes(h_full, y, k0sq, range(start, end + 1))

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
        breakdown = None
        try:
            for state, elapsed in _chain(kind, h_full, y, k0sq, start, end):
                l = state.l
                w_err, z_err = weight_output_errors(state.W, base_w[l], h_full[:l])
                flops = solvers.step_multiply_adds(kind, l - 1, k, m) if l > start else 0
                trace.append(StepRecord(l=l, weight_error=w_err, output_error=z_err,
                                        flops=flops, elapsed_ns=elapsed))
        except NumericalBreakdownError as exc:
            if not trace.records:                    # the start failed, not a step
                raise
            breakdown = {"node": exc.node_index, "reason": str(exc)}

        records = trace.records
        traces[kind.value] = trace
        summary["algorithms"][kind.value] = {
            "checkpoint_errors": {
                str(r.l): {"weight_error": r.weight_error, "output_error": r.output_error}
                for r in records if r.l in checkpoints
            },
            "breakdown": breakdown,
            "max_weight_error": max(r.weight_error for r in records),
            "max_output_error": max(r.output_error for r in records),
        }

    return traces, summary


def bench_run(ds: Dataset, kernel: ActivationKind, k0sq: float, l: int,
              algorithms: list[AlgorithmKind | str], seed: int, repeats: int):
    """Time `repeats` chained node additions from node count l.

    Each algorithm is warm-started to l nodes and grown to l + repeats
    through `_chain`, the loop `grow_run` and `eval_run` step through, so
    every timed step is the step those runs take.  The first step also
    builds the chain's store (see `ifelm._store`), so `min_ns` is the
    in-place cost and alg3's `mean_ns` includes its one copy of L and D.  Each
    rule's `flops_per_step` is the multiply-adds of its first step,
    `solvers.step_multiply_adds` at l, the one cost figure the report gives;
    `flop_ratio_vs_existing` divides `existing`'s by it.
    The hidden rows come from `init_random_params(l + repeats, ...)`, so they
    change with `repeats`, and a large `repeats` grows l with it.  Needs
    integers l >= 1 (the CLI's --end) and repeats >= 1, a k0sq that
    `solvers.warm_start` accepts and a non-empty list of known rules, kinds
    or names, naming no rule twice, else raises DomainError.
    """
    _check_counts(1, end=l, repeats=repeats)
    algorithms = _distinct(algorithms)
    params = init_random_params(l + repeats, ds.X.shape[0], kernel, seed)
    h_full = hidden_matrix(params, ds.X)
    m, k = ds.Y.shape

    report = {"K": k, "l": l, "M": m, "repeats": repeats, "algorithms": {}}
    for kind in algorithms:
        steps = _chain(kind, h_full, ds.Y, k0sq, l, l + repeats)
        next(steps)  # the warm start at l nodes, untimed
        times = [ns for _, ns in steps]
        report["algorithms"][kind.value] = {
            "flops_per_step": solvers.step_multiply_adds(kind, l, k, m),
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


def eval_run(ds: Dataset, kernel: ActivationKind, k0sq: float, start: int, end: int,
             algorithms: list[AlgorithmKind | str], seed: int, folds: int):
    """K-fold cross-validation; per-fold training uses the chosen rule.

    Each fold grows from `start` to `end` nodes; needs integers 1 <= start
    <= end, a k0sq that `solvers.warm_start` accepts, a non-empty list of
    known rules, kinds or names, naming no rule twice and an integer
    2 <= folds <= the sample count, else raises DomainError.
    """
    _check_inputs(start, end)
    algorithms = _distinct(algorithms)
    splits = kfold_split(ds.sample_count, folds, seed)
    params = init_random_params(end, ds.X.shape[0], kernel, seed)
    report = {"folds": folds, "task": ds.task.value, "nodes": end, "algorithms": {}}
    per_fold = {kind: [] for kind in algorithms}
    # each fold's data and hidden matrices are prepared once, for every rule
    for train_idx, test_idx in splits:
        train = Dataset(X=ds.X[:, train_idx], Y=ds.Y[:, train_idx], task=ds.task)
        test = Dataset(X=ds.X[:, test_idx], Y=ds.Y[:, test_idx], task=ds.task)
        train_n, transform = normalize_features(train)
        test_n = apply_normalization(test, transform)
        h_train, h_test = hidden_matrix(params, train_n.X), hidden_matrix(params, test_n.X)
        for kind, fold_metrics in per_fold.items():
            for state, _ in _chain(kind, h_train, train_n.Y, k0sq, start, end):
                pass
            z_test = state.W @ h_test
            if ds.task is TaskKind.REGRESSION:
                fold_metrics.append({"mse": mse(z_test, test_n.Y)})
            else:
                rep = classification_metrics(z_test, test_n.Y)
                fold_metrics.append({"acc": rep.acc, "sn": rep.sn,
                                     "pe": rep.pe, "mcc": rep.mcc})
    for kind, fold_metrics in per_fold.items():
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
    _check_inputs(start, end)
    for kind, (limit_l, _) in DEFAULT_THRESHOLDS.items():
        if start > limit_l:
            raise DomainError(f"start {start} is above {kind.value}'s checked limit "
                              f"of {limit_l} nodes")
    traces, summary = grow_run(ds, kernel, k0sq, start, end, list(ALL_INCREMENTAL), seed)
    entries = []
    for kind in ALL_INCREMENTAL:
        limit_l, bound = DEFAULT_THRESHOLDS[kind]
        checked = [r for r in traces[kind.value].records if r.l <= limit_l]
        w_max = max(r.weight_error for r in checked)
        z_max = max(r.output_error for r in checked)
        breakdown = summary["algorithms"][kind.value]["breakdown"]
        ok = (w_max <= bound and z_max <= bound
              and (breakdown is None or breakdown["node"] > min(limit_l, end)))
        worst = max(checked, key=lambda r: max(r.weight_error, r.output_error))
        entries.append({
            "algorithm": kind.value, "checked_up_to": checked[-1].l,
            "threshold": bound, "max_weight_error": w_max, "max_output_error": z_max,
            "worst_step": worst.l, "breakdown": breakdown, "passed": ok,
        })
    return {"nodes": {"start": start, "end": end}, "entries": entries,
            "passed": all(e["passed"] for e in entries)}
