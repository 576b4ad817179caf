"""Command-line interface: grow, bench, eval and compare runs.

Every error path exits nonzero with a single `error: ...` line on stderr.
Summary files separate deterministic content from wall-clock data so that
identical configurations produce identical report bodies.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from .data import SynthKind, TaskKind, load_csv, synth_dataset
from .errors import DomainError
from .experiments import bench_run, compare_run, eval_run, grow_run
from .model import ActivationKind
from .solvers import AlgorithmKind

ALL_INCREMENTAL = [AlgorithmKind.EXISTING, AlgorithmKind.ALG1,
                   AlgorithmKind.ALG2, AlgorithmKind.ALG3]


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
        ("bench", "time and meter a single node addition per algorithm"),
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
            "--alg", default="all", help="comma list of baseline,existing,alg1,alg2,alg3 or 'all'")
    commands["bench"].add_argument("--repeats", type=int, default=100)
    commands["eval"].add_argument("--folds", type=int, default=5)
    return parser


def _dataset(args):
    if args.data:
        return load_csv(args.data, args.target_cols, TaskKind(args.task),
                        has_header=args.header)
    return synth_dataset(SynthKind(args.synth), args.samples, args.features,
                         args.outputs, args.seed)


def _algorithms(spec: str) -> list[AlgorithmKind]:
    if spec == "all":
        return ALL_INCREMENTAL
    kinds = []
    for name in spec.split(","):
        try:
            kind = AlgorithmKind(name.strip())
        except ValueError:
            raise DomainError(f"unknown algorithm {name.strip()!r}") from None
        if kind in kinds:
            raise DomainError(f"algorithm {kind.value!r} named twice")
        kinds.append(kind)
    return kinds


def _validate(args) -> None:
    if args.command == "bench":  # bench has no --start; its l is --end
        if args.end < 1:
            raise DomainError(f"end must be >= 1, got {args.end}")
        if args.repeats < 1:
            raise DomainError(f"repeats must be >= 1, got {args.repeats}")
    elif not 1 <= args.start <= args.end:
        raise DomainError(f"need 1 <= start <= end, got {args.start}..{args.end}")
    if not (args.k0sq > 0 and math.isfinite(args.k0sq)):
        raise DomainError(f"k0sq must be finite and > 0, got {args.k0sq}")


def _write_json(path: Path, config: dict, body: dict, started: float) -> None:
    doc = {"config": config, **body,
           "timing": {"started_unix": started, "elapsed_s": time.time() - started}}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    _validate(args)
    ds = _dataset(args)
    algs = _algorithms(args.alg) if "alg" in args else ALL_INCREMENTAL
    kernel = ActivationKind(args.kernel)
    config = {k: v for k, v in vars(args).items() if k != "out"}
    # only once the inputs are loaded and valid, so a rejected run leaves no directory
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.command == "grow":
        traces, summary = grow_run(ds, kernel, args.k0sq, args.start, args.end,
                                   algs, args.seed)
        for name, trace in traces.items():
            trace.to_csv(out / f"trace_{name}.csv")
        _write_json(out / "summary.json", config, {"summary": summary}, started)
        print(f"wrote {len(traces)} trace files and summary.json to {out}")
        return 0

    if args.command == "bench":
        report = bench_run(ds, kernel, args.k0sq, args.end,
                           algs, args.seed, args.repeats)
        _write_json(out / "bench.json", config, {"bench": report}, started)
        print(f"wrote bench.json to {out}")
        return 0

    if args.command == "eval":
        report = eval_run(ds, kernel, args.k0sq, args.start, args.end,
                          algs, args.seed, args.folds)
        _write_json(out / "eval.json", config, {"eval": report}, started)
        for name, entry in report["algorithms"].items():
            print(f"{name}: mean={entry['mean']} variance={entry['variance']}")
        return 0

    if args.command == "compare":
        report = compare_run(ds, kernel, args.k0sq, args.start, args.end, args.seed)
        _write_json(out / "compare.json", config, {"compare": report}, started)
        for e in report["entries"]:
            status = "pass" if e["passed"] else "FAIL"
            if e["breakdown"] is not None:
                status += f" ({e['breakdown']['reason']})"
            print(f"{e['algorithm']}: max weight err {e['max_weight_error']:.3e} "
                  f"max output err {e['max_output_error']:.3e} "
                  f"(<= {e['threshold']:.0e} up to l={e['checked_up_to']}): {status}")
        return 0 if report["passed"] else 1

    raise DomainError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        return run(argv)
    except (DomainError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
