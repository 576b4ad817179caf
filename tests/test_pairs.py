"""Tests for tools/pairs.py, the alternating-pair comparison of two trees' benchmark.

Each stub tree's `perfbench/run.py` prints a machine line and a result line
whose metrics follow from its tree's `stub.json` and the seed, and logs its
side and seed, so that the run order shows.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

STUB = '''
import json, sys
from pathlib import Path

tree = Path(__file__).resolve().parent.parent
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open(tree.parent / "log.txt", "a") as log:
    log.write(f"{tree.name} {seed}\\n")
stub = json.loads((tree / "stub.json").read_text())
print(json.dumps({"machine": {"tree": tree.name}}))
if stub.get("silent"):
    sys.exit(stub.get("exit", 0))
metrics = {name: {"value": base + step * seed, "unit": "s"}
           for name, (base, step) in stub["metrics"].items()}
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
sys.exit(stub.get("exit", 0))
'''

SPECS = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "weight_digits.alg3", "unit": "digits", "better": "higher", "bound": 0.2},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.2},
]


def tree(root, name, **stub):
    (root / name / "perfbench").mkdir(parents=True)
    (root / name / "perfbench" / "run.py").write_text(STUB)
    (root / name / "stub.json").write_text(json.dumps(stub))
    (root / name / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPECS}))
    return root / name


def run(tmp_path, n, parent, change):
    out = tmp_path / "pairs.json"
    code = pairs.main([str(tree(tmp_path, "parent", **parent)),
                       str(tree(tmp_path, "change", **change)),
                       "--workload", "grow-chain", "--pairs", str(n), "--seconds", "1",
                       "--out", str(out)])
    log = (tmp_path / "log.txt").read_text().split("\n")[:-1]
    return code, json.loads(out.read_text()), log


def test_order_medians_and_wins(tmp_path):
    # run_s is 2.0 + 0.01 seed at the parent and 1.0 + 0.01 seed at the change;
    # both report the same digits; neither reports peak_rss_mb
    code, report, log = run(
        tmp_path, 4,
        {"metrics": {"run_s": [2.0, 0.01], "weight_digits.alg3": [9.0, 0.0]}},
        {"metrics": {"run_s": [1.0, 0.01], "weight_digits.alg3": [9.0, 0.0]}})
    assert code == 0
    assert log == ["parent 1", "change 1", "change 2", "parent 2",
                   "parent 3", "change 3", "change 4", "parent 4"]
    run_s = report["metrics"]["run_s"]
    assert run_s["parent_median"] == pytest.approx(2.025)
    assert run_s["change_median"] == pytest.approx(1.025)
    assert run_s["relative_change"] == pytest.approx(-1.0 / 2.025)
    assert (run_s["wins"], run_s["ties"], run_s["pairs"]) == (4, 0, 4)
    assert run_s["resolved"] and run_s["within_bound"]
    digits = report["metrics"]["weight_digits.alg3"]
    assert (digits["wins"], digits["ties"]) == (0, 4)
    assert not digits["resolved"] and digits["within_bound"]
    assert report["metrics"]["peak_rss_mb"]["pairs"] == 0
    assert [(r["seed"], r["side"], r["exit"], r["attempted"]) for r in report["runs"][:2]] \
        == [(1, "parent", 0, 3), (1, "change", 0, 3)]
    assert report["runs"][0]["machine"] == {"tree": "parent"}


@pytest.mark.parametrize("failure", [{"exit": 1}, {"silent": True}])
def test_a_failed_run_exits_1(tmp_path, failure):
    metrics = {"metrics": {"run_s": [1.0, 0.0]}}
    code, report, log = run(tmp_path, 2, metrics, {**metrics, **failure})
    assert code == 1 and len(log) == 4   # every run still ran
    assert [r["exit"] for r in report["runs"] if r["side"] == "change"] == \
        [failure.get("exit", 0)] * 2


def pairs_of(parent, change):
    return [{"parent": {"m": a}, "change": {"m": b}} for a, b in zip(parent, change)]


LOWER = {"unit": "s", "better": "lower", "bound": 0.24}
HIGHER = {"unit": "digits", "better": "higher", "bound": 0.2}


# its quartiles are 0.985 and 1.015 (inclusive method), so its IQR is 0.03
SPREAD = [0.95, 0.97, 0.98, 1.0, 1.0, 1.0, 1.0, 1.02, 1.03, 1.05]


@pytest.mark.parametrize("parent,change,resolved", [
    ([1.0] * 10, [0.5] * 9 + [2.0], True),                 # 9 of 10 won
    ([1.0] * 10, [0.5] * 8 + [1.0, 2.0], False),           # 8 won and a tie
    (SPREAD, [x - 0.04 for x in SPREAD], True),            # 10 won, by more than the IQR
    (SPREAD, [x - 0.02 for x in SPREAD], False),           # 10 won, by less
])
def test_resolved_needs_nine_tenths_and_more_than_the_iqr(parent, change, resolved):
    assert pairs.compare("m", LOWER, pairs_of(parent, change))["resolved"] is resolved


def test_within_bound_is_relative_to_the_parent_and_follows_better():
    assert pairs.compare("m", LOWER, pairs_of([1.0] * 3, [1.24] * 3))["within_bound"]
    assert not pairs.compare("m", LOWER, pairs_of([1.0] * 3, [1.25] * 3))["within_bound"]
    assert pairs.compare("m", HIGHER, pairs_of([10.0] * 3, [8.0] * 3))["within_bound"]
    assert not pairs.compare("m", HIGHER, pairs_of([10.0] * 3, [7.9] * 3))["within_bound"]
    assert pairs.compare("m", HIGHER, pairs_of([10.0] * 3, [12.0] * 3))["wins"] == 3
