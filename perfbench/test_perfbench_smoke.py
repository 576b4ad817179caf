"""Smoke test of the benchmark itself on tiny configurations.

Checks that every metric BENCHMARK.json names is printed with its unit,
that traced spans nest, and that a corrupted weight matrix is counted as a
failed operation.  Run with `PYTHONPATH=src python -m pytest perfbench`.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from ifelm import experiments, solvers

import workloads
from tracing import END, PARENT, START, check_nesting

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "grow-oracle": workloads.OracleConfig(samples=60, features=3, outputs=2, end=25, setups_per_pass=2,
                                          refs_per_pass=1),
    "grow-chain": workloads.ChainConfig(samples=80, features=3, outputs=2, start=10,
                                        segment=5, setups_per_pass=1, refs_per_pass=1),
    "cv-small": workloads.CvConfig(samples=40, features=3, outputs=2, end=6, folds=3,
                                   datasets=1, setups_per_pass=2, refs_per_pass=1),
}


def run_tiny(name, trace):
    return workloads.run(name, seed=3, seconds=0.05, trace=trace, cfg=TINY[name])


def test_workloads_match_benchmark_json():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_its_unit(name, trace):
    result = run_tiny(name, trace)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: unit for k, (_, unit) in result.metrics.items()} == expected
    assert result.correct, result.notes
    assert result.attempted >= 1 and result.failed == 0
    out = result.to_json()
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    json.dumps(out)


@pytest.mark.parametrize("name", sorted(TINY))
def test_spans_nest(name):
    spans = run_tiny(name, True).spans
    children = [rec for rec in spans if rec[PARENT] >= 0]
    assert children
    assert check_nesting(spans) == []
    for rec in children:
        parent = spans[rec[PARENT]]
        assert parent[START] <= rec[START] <= rec[END] <= parent[END]
    # the check itself flags a child that starts before its parent
    moved = [list(rec) for rec in spans]
    moved[children[0][PARENT]][START] = children[0][START] + 1
    assert check_nesting(moved)


@pytest.mark.parametrize("name", sorted(TINY))
def test_corrupted_weights_count_as_failed(name, monkeypatch):
    add_node = solvers.add_node
    alg3_calls = 0

    def corrupting(state, h_bar):
        nonlocal alg3_calls
        new = add_node(state, h_bar)
        if state.kind is solvers.AlgorithmKind.ALG3:
            alg3_calls += 1
            if alg3_calls == 2:
                new = dataclasses.replace(new, W=new.W + 1e-3)
        return new

    monkeypatch.setattr(solvers, "add_node", corrupting)
    monkeypatch.setattr(experiments, "add_node", corrupting)
    result = run_tiny(name, False)
    assert result.failed >= 1
    assert not result.correct
