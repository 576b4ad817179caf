"""Benchmark of the ifelm package: three workloads, end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grow-chain --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

One workload runs in one process.  Earlier lines of standard output give
the machine, the reference time that scales the time metrics, and each
metric; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  `--trace 1` reports the per-layer metrics
instead of the end-to-end ones and writes the spans to
.bench_out/spans-<workload>.jsonl.  `--workload all` runs every workload
in its own process and prints one table.  The exit code is 0 only if every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("grow-oracle", "grow-chain", "cv-small")


def _single_thread_blas() -> None:
    """Run BLAS on one thread; it must be set before numpy is imported.

    On a shared 2-vCPU VM, grow-oracle ran 1.7x faster with one BLAS thread
    than with two, and its per-rule step times spread about half as much
    across runs.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_package() -> None:
    """Import ifelm from this checkout's src/, never from an installed copy."""
    if not (SRC / "ifelm" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'ifelm'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ifelm

    if Path(ifelm.__file__).resolve().parent != (SRC / "ifelm").resolve():
        sys.exit(f"error: imported ifelm from {ifelm.__file__}, not from {SRC}")


def _run_all(args) -> int:
    """Each workload in its own process; print every metric and the op counts."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(proc.stderr)
            print(f"{name}: no result (exit {proc.returncode})")
            ok = False
            continue
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} exit={proc.returncode}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:44s} {entry['value']:<24.10g} {entry['unit']}")
        ok = ok and result["correct"] and proc.returncode == 0
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    _single_thread_blas()
    _import_package()
    if args.workload == "all":
        return _run_all(args)

    import machine
    import reference
    import tracing
    import workloads

    print(json.dumps({"machine": machine.describe()}))
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if result.spans is not None:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracing.write_spans(result.spans, out_dir / f"spans-{args.workload}.jsonl")
    for note in result.notes:
        print(f"check failed: {note}")
    print(f"reference {result.reference_s!r} s (lower quartile; time metrics are "
          f"scaled by {reference.NOMINAL_S} s over it)")
    for metric, (value, unit) in result.metrics.items():
        print(f"{metric} {value!r} {unit}")
    print(json.dumps(result.to_json()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
