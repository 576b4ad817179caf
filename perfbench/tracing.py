"""Span tracing of the ifelm layers, installed by rebinding module attributes.

No source file of the package is edited.  `Tracer.install` replaces each
traced function with a wrapper in every module that resolves it at call
time, and `Tracer.restore` puts the originals back.  Each call records one
span: layer name, start and end (perf_counter ns), parent span, operation
id and rule.  The operation id is the index of the enclosing
`solvers.add_node` span, so every product and cross term of one node
addition shares it.  Spans stay in memory until `write_spans` is called.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from ifelm import data, experiments, model, solvers

RULES = ("existing", "alg1", "alg2", "alg3")

# (module, attribute) pairs rebound while tracing.  The experiments and
# solvers entries are the globals grow_run, eval_run and the update rules
# look up at call time; the others are the names the benchmark itself calls.
TRACED = [
    (experiments, "add_node"), (experiments, "hidden_matrix"),
    (experiments, "normalize_features"), (experiments, "apply_normalization"),
    (experiments, "weight_output_errors"), (experiments, "kfold_split"),
    (experiments, "mse"),
    (experiments, "grow_run"), (experiments, "eval_run"),
    (solvers, "solve_direct"), (solvers, "solve_spd"), (solvers, "gemm"),
    (solvers, "compute_p"), (solvers, "init_solver"), (solvers, "warm_start"),
    (solvers, "add_node"),
    (model, "hidden_matrix"), (data, "synth_dataset"),
]

# span record fields
NAME, START, END, PARENT, OP, RULE, MADDS, NBYTES, TRACER_NS = range(9)


def layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _state_arrays(state) -> list[np.ndarray]:
    return [a for a in (getattr(state, n) for n in _field_names(type(state)))
            if isinstance(a, np.ndarray)]


def new_bytes(old, new) -> int:
    """Bytes of `new`'s arrays that share no memory with any array of `old`."""
    old_arrays = _state_arrays(old)
    return sum(a.nbytes for a in _state_arrays(new)
               if not any(np.shares_memory(a, b) for b in old_arrays))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str, rule: str | None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0:
            up = self.spans[parent]
            op = up[OP]
            rule = rule or up[RULE]
        else:
            op = -1
        if name == "solvers.add_node":
            op = idx
        self.spans.append([name, 0, 0, parent, op, rule, 0, 0, 0])
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, such as one timed pass."""
        idx = self._open(name, None)
        rec = self.spans[idx]
        rec[START] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[END] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn):
        name = layer_name(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rule = None
            if args and isinstance(args[0], solvers.AlgorithmKind):
                rule = args[0].value
            elif args and isinstance(args[0], solvers.SolverState):
                rule = args[0].kind.value
            idx = self._open(name, rule)
            rec = spans[idx]
            rec[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter_ns()
                stack.pop()
            if name == "linalg.gemm":
                a, b = args[0], args[1]
                rec[MADDS] = 2 * a.shape[0] * a.shape[1] * b.shape[1]
                rec[NBYTES] = a.nbytes + b.nbytes + result.nbytes
            elif name == "solvers.add_node":
                rec[NBYTES] = new_bytes(args[0], result)
            if rec[PARENT] >= 0:
                spans[rec[PARENT]][TRACER_NS] += time.perf_counter_ns() - rec[END]
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for module, attr in TRACED:
            fn = getattr(module, attr)
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrappers[fn])

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def write_spans(spans: list[list], path) -> None:
    """One JSON list per line, after a header line naming the fields."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op",
                                        "rule", "madds", "bytes", "tracer_ns"]}) + "\n")
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus its children's and the tracer's own time."""
    own = [rec[END] - rec[START] - rec[TRACER_NS] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def layer_metrics(spans: list[list], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics for one set-up plus one timed pass.

    Spans under the root span `bench.setup` count once; spans under
    `bench.pass` roots are averaged over the `passes` traced passes.  Times
    are inclusive (`ms`) or exclusive of child spans (`self_ms`), in ms.
    The traced wall time is the sum of every layer's self time, the
    benchmark's own glue and the tracer's bookkeeping.
    """
    own = self_times(spans)
    root = [0] * len(spans)
    # (layer, rule) -> integer totals [calls, ns, self ns, madds, bytes], kept
    # apart for set-up (0) and the timed passes (1) so that the per-pass
    # counts come out exact; rule None sums every rule.
    sums: dict[tuple, list[list[int]]] = defaultdict(lambda: [[0] * 5, [0] * 5])
    durations: dict[tuple, list[float]] = defaultdict(list)
    wall = [0, 0]
    layers = [0, 0]
    bookkeeping = [0, 0]
    for i, rec in enumerate(spans):
        root[i] = i if rec[PARENT] < 0 else root[rec[PARENT]]
        phase = int(spans[root[i]][NAME] == "bench.pass")
        ns = rec[END] - rec[START]
        bookkeeping[phase] += rec[TRACER_NS]
        if rec[PARENT] < 0:
            wall[phase] += ns
            continue
        layers[phase] += own[i]
        for key in {(rec[NAME], None), (rec[NAME], rec[RULE])}:
            acc = sums[key][phase]
            acc[0] += 1
            acc[1] += ns
            acc[2] += own[i]
            acc[3] += rec[MADDS]
            acc[4] += rec[NBYTES]
        if phase:
            durations[(rec[NAME], rec[RULE])].append(ns / 1e6)

    def per_pass(setup_total, pass_total, scale=1.0):
        return (setup_total + pass_total / passes) * scale

    def get(layer, field, rule=None):
        j = ("calls", "ms", "self_ms", "madds", "bytes").index(field)
        setup, timed = sums[(layer, rule)]
        return per_pass(setup[j], timed[j], 1e-6 if field.endswith("ms") else 1.0)

    def p90(layer, rule):
        d = durations.get((layer, rule))
        return float(np.percentile(d, 90)) if d else 0.0

    m: dict[str, tuple[float, str]] = {
        "solvers.solve_direct.calls": (get("solvers.solve_direct", "calls"), "count"),
        "solvers.solve_direct.ms": (get("solvers.solve_direct", "ms"), "ms"),
        "linalg.solve_spd.ms": (get("linalg.solve_spd", "ms"), "ms"),
    }
    for r in RULES:
        m[f"solvers.add_node.calls.{r}"] = (get("solvers.add_node", "calls", r), "count")
        m[f"solvers.add_node.ms.{r}"] = (get("solvers.add_node", "ms", r), "ms")
        m[f"solvers.add_node.p90_ms.{r}"] = (p90("solvers.add_node", r), "ms")
        m[f"solvers.add_node.self_ms.{r}"] = (get("solvers.add_node", "self_ms", r), "ms")
        m[f"solvers.add_node.new_bytes.{r}"] = (get("solvers.add_node", "bytes", r), "bytes")
    for r in RULES:
        m[f"linalg.gemm.calls.{r}"] = (get("linalg.gemm", "calls", r), "count")
        m[f"linalg.gemm.ms.{r}"] = (get("linalg.gemm", "ms", r), "ms")
        m[f"linalg.gemm.madds.{r}"] = (get("linalg.gemm", "madds", r), "count")
        m[f"linalg.gemm.bytes.{r}"] = (get("linalg.gemm", "bytes", r), "bytes")
    m["solvers.compute_p.ms"] = (get("solvers.compute_p", "ms"), "ms")
    m["solvers.warm_start.ms"] = (get("solvers.warm_start", "ms"), "ms")
    m["solvers.init_solver.calls"] = (get("solvers.init_solver", "calls"), "count")
    m["solvers.init_solver.ms"] = (get("solvers.init_solver", "ms"), "ms")
    m["model.hidden_matrix.calls"] = (get("model.hidden_matrix", "calls"), "count")
    m["model.hidden_matrix.ms"] = (get("model.hidden_matrix", "ms"), "ms")
    for layer in ("data.synth_dataset", "data.normalize_features", "data.apply_normalization"):
        m[f"{layer}.ms"] = (get(layer, "ms"), "ms")
    m["evaluation.weight_output_errors.calls"] = (
        get("evaluation.weight_output_errors", "calls"), "count")
    m["evaluation.weight_output_errors.ms"] = (get("evaluation.weight_output_errors", "ms"), "ms")
    m["evaluation.kfold_split.ms"] = (get("evaluation.kfold_split", "ms"), "ms")
    m["evaluation.mse.ms"] = (get("evaluation.mse", "ms"), "ms")
    m["experiments.grow_run.self_ms"] = (get("experiments.grow_run", "self_ms"), "ms")
    m["experiments.eval_run.self_ms"] = (get("experiments.eval_run", "self_ms"), "ms")
    m["bench.traced.wall_ms"] = (per_pass(*wall, 1e-6), "ms")
    glue = [w - l - b for w, l, b in zip(wall, layers, bookkeeping)]
    m["bench.traced.glue_ms"] = (per_pass(*glue, 1e-6), "ms")
    m["bench.traced.bookkeeping_ms"] = (per_pass(*bookkeeping, 1e-6), "ms")
    return m


def check_nesting(spans: list[list]) -> list[int]:
    """Indices of spans that do not lie inside their parent span."""
    bad = []
    for i, rec in enumerate(spans):
        if rec[END] < rec[START]:
            bad.append(i)
        elif rec[PARENT] >= 0:
            up = spans[rec[PARENT]]
            if not (up[START] <= rec[START] and rec[END] <= up[END]):
                bad.append(i)
    return bad
