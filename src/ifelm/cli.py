"""Command-line interface: grow, bench, eval and compare runs.

Every error path exits nonzero with a single `error: ...` line on stderr.
The CLI adds no input checks of its own: argparse, the data loader and the
run functions in `experiments` reject bad input, and the output directory
is created only after the run succeeds, so a rejected run leaves none.
Summary files separate deterministic content from wall-clock data and the
run's environment so that identical configurations produce identical report
bodies.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from .data import SynthKind, TaskKind, load_csv, synth_dataset
from .experiments import bench_run, compare_run, eval_run, grow_run
from .model import ActivationKind
from .solvers import ALL_INCREMENTAL


def _add_common(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="CSV file, one sample per row")
    src.add_argument("--synth", choices=[k.value for k in SynthKind],
                     help="synthetic dataset kind")
    p.add_argument("--task", choices=[t.value for t in TaskKind],
                   default="regression", help="task for --data (default regression)")
    p.add_argument("--target-cols", type=int, default=1,
                   help="trailing target columns in the CSV (default 1)")
    p.add_argument("--header", action="store_true", help="CSV has a header row")
    p.add_argument("--samples", type=int, default=500,
                   help="synthetic sample count K (default 500)")
    p.add_argument("--features", type=int, default=8,
                   help="synthetic feature count N (default 8)")
    p.add_argument("--outputs", type=int, default=2,
                   help="synthetic output count M (default 2)")
    p.add_argument("--kernel", choices=[k.value for k in ActivationKind],
                   default="gaussian")
    p.add_argument("--k0sq", type=float, default=0.1,
                   help="regularization factor (default 0.1)")
    p.add_argument("--end", type=int, default=100, help="final node count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifelm",
        description="Incremental single-hidden-layer network training with "
                    "inverse-free output-weight updates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, text in (
        ("grow", "grow node by node, tracing errors vs the direct solve"),
        ("bench", "time chained node additions per algorithm, with their cost"),
        ("eval", "k-fold cross-validation report"),
        ("compare", "equivalence check of the rules against the direct solve"),
    ):
        commands[name] = sub.add_parser(name, help=text)
        _add_common(commands[name])
    # beyond the common flags, each subcommand takes only the flags it reads
    for name in ("grow", "eval", "compare"):
        commands[name].add_argument("--start", type=int, default=1, help="initial node count")
    for name in ("grow", "bench", "eval"):
        commands[name].add_argument(
            "--alg", default="all",
            help="comma list of baseline,existing,alg1,alg2,alg3, or 'all' (the default): "
                 "the four incremental rules; baseline runs only when named")
    commands["bench"].add_argument(
        "--repeats", type=int, default=100,
        help="chained steps timed from l = --end; the chain grows to --end + --repeats nodes")
    commands["eval"].add_argument("--folds", type=int, default=5,
                                  help="cross-validation folds, 2 to the sample count")
    return parser


def _dataset(args):
    if args.data:
        return load_csv(args.data, args.target_cols, TaskKind(args.task),
                        has_header=args.header)
    return synth_dataset(SynthKind(args.synth), args.samples, args.features,
                         args.outputs, args.seed)


def _environment() -> dict:
    """Versions, BLAS build and thread variables; null where unknown or unset."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _write_json(out: Path, name: str, config: dict, body: dict, started: float) -> None:
    """Write out/name, creating `out`: the first write of every command."""
    doc = {"config": config, **body, "environment": _environment(),
           "timing": {"started_unix": started, "elapsed_s": time.time() - started}}
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    ds = _dataset(args)
    spec = getattr(args, "alg", "all")
    algs = ALL_INCREMENTAL if spec == "all" else [name.strip() for name in spec.split(",")]
    kernel = ActivationKind(args.kernel)
    config = {k: v for k, v in vars(args).items() if k != "out"}
    out = Path(args.out)

    if args.command == "grow":
        traces, summary = grow_run(ds, kernel, args.k0sq, args.start, args.end,
                                   algs, args.seed)
        _write_json(out, "summary.json", config, {"summary": summary}, started)
        for name, trace in traces.items():
            trace.to_csv(out / f"trace_{name}.csv")
        print(f"wrote {len(traces)} trace files and summary.json to {out}")
        return 0

    if args.command == "bench":
        report = bench_run(ds, kernel, args.k0sq, args.end,
                           algs, args.seed, args.repeats)
        _write_json(out, "bench.json", config, {"bench": report}, started)
        print(f"wrote bench.json to {out}")
        return 0

    if args.command == "eval":
        report = eval_run(ds, kernel, args.k0sq, args.start, args.end,
                          algs, args.seed, args.folds)
        _write_json(out, "eval.json", config, {"eval": report}, started)
        for name, entry in report["algorithms"].items():
            print(f"{name}: mean={entry['mean']} variance={entry['variance']}")
        return 0

    if args.command == "compare":
        report = compare_run(ds, kernel, args.k0sq, args.start, args.end, args.seed)
        _write_json(out, "compare.json", config, {"compare": report}, started)
        for e in report["entries"]:
            status = "pass" if e["passed"] else "FAIL"
            if e["breakdown"] is not None:
                status += f" ({e['breakdown']['reason']})"
            print(f"{e['algorithm']}: max weight err {e['max_weight_error']:.3e} "
                  f"max output err {e['max_output_error']:.3e} "
                  f"(<= {e['threshold']:.0e} up to l={e['checked_up_to']}): {status}")
        return 0 if report["passed"] else 1


def main(argv=None) -> int:
    try:
        return run(argv)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
