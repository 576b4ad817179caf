"""Run two trees' benchmark in alternating pairs and compare their end-to-end metrics.

Usage, with two checkouts or `git archive` extracts of the repository:

    python3 tools/pairs.py PARENT_TREE CHANGE_TREE --workload grow-chain \\
        [--pairs 10] [--seconds 36] [--first-seed 1] --out pairs.json

Pair i (from 0) runs each tree's own `perfbench/run.py --workload NAME
--seed S --seconds T --trace 0` with seed S = first-seed + i; an odd seed
runs the parent first, an even one the change.  For each end-to-end metric
that the change tree's BENCHMARK.json lists, the JSON written to --out
gives both sides' medians and the relative change of the change's median,
the pairs the change won and the ties (a tie counts for neither side), the
parent's interquartile range over its median, and two verdicts:

* `resolved`: the change won at least nine tenths of the pairs, and the
  medians differ by more than the parent's interquartile range;
* `within_bound`: the change's median is worse than the parent's by at
  most the metric's `bound`, relative to the parent's median.

It also keeps every run's seed, side, exit code, correct/attempted/failed
counts, metric values and machine line.  The script gates nothing: it
exits 1 only when a run exits nonzero or prints no result line, and 0
otherwise, whatever the metrics say.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_tree(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of `tree`'s own benchmark: its exit code, machine line and result line,
    each None when it printed none."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    machine = result = None
    for line in proc.stdout.splitlines():
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict) and "machine" in obj:
            machine = obj["machine"]
        elif isinstance(obj, dict) and "metrics" in obj:
            result = obj
    if result is None:
        sys.stderr.write(proc.stderr)
    return {"exit": proc.returncode, "machine": machine, "result": result}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(name: str, spec: dict, pairs: list[dict]) -> dict:
    """One metric's medians, wins, ties and verdicts over the pairs where both sides
    reported it."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    both = [(p["parent"][name], p["change"][name]) for p in pairs
            if name in p["parent"] and name in p["change"]]
    if not both:
        return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                "pairs": 0}
    parent, change = [a for a, _ in both], [b for _, b in both]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    wins = sum(sign * (a - b) > 0 for a, b in both)
    ties = sum(a == b for a, b in both)
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "pairs": len(both), "parent_median": p_med, "change_median": c_med,
        "relative_change": (c_med - p_med) / p_med if p_med else None,
        "wins": wins, "ties": ties,
        "parent_iqr_over_median": (q3 - q1) / p_med if p_med else None,
        "resolved": 10 * wins >= 9 * len(both) and abs(c_med - p_med) > q3 - q1,
        "within_bound": sign * (c_med - p_med) <= spec["bound"] * abs(p_med),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent commit's tree")
    parser.add_argument("change", type=Path, help="the change's tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    specs = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    runs, pairs, ok = [], [], True
    for i in range(args.pairs):
        seed = args.first_seed + i
        values = {}
        for side in SIDES if seed % 2 else SIDES[::-1]:
            run = run_tree(trees[side], args.workload, seed, args.seconds)
            result = run["result"] or {}
            ok = ok and run["exit"] == 0 and run["result"] is not None
            values[side] = {k: v["value"] for k, v in result.get("metrics", {}).items()}
            runs.append({"pair": i, "seed": seed, "side": side, "exit": run["exit"],
                         **{k: result.get(k) for k in ("correct", "attempted", "failed")},
                         "metrics": values[side], "machine": run["machine"]})
            print(f"pair {i} seed {seed} {side}: exit {run['exit']}", file=sys.stderr)
        pairs.append(values)

    report = {
        "workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
        "first_seed": args.first_seed,
        "metrics": {s["name"]: compare(s["name"], s, pairs) for s in specs},
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for name, m in report["metrics"].items():
        if m["pairs"]:
            print(f"{name:24s} {m['parent_median']:<12.6g} -> {m['change_median']:<12.6g} "
                  f"won {m['wins']}/{m['pairs']} resolved={m['resolved']} "
                  f"within_bound={m['within_bound']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
