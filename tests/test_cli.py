import json
import platform
import re

import numpy as np
import pytest
import scipy

from ifelm import experiments, solvers
from ifelm.cli import main
from ifelm.data import SynthKind, synth_dataset
from ifelm.errors import DomainError, NumericalBreakdownError
from ifelm.experiments import compare_run
from ifelm.model import ActivationKind
from ifelm.solvers import AlgorithmKind


def _strip_timing(path):
    doc = json.loads(path.read_text())
    doc.pop("timing")
    doc.pop("environment")
    return doc


class TestGrowCommand:
    def test_writes_traces_and_summary(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["grow", "--synth", "sine-mixture", "--samples", "60",
                   "--features", "3", "--outputs", "2", "--end", "10",
                   "--out", str(out), "--seed", "1"])
        assert rc == 0
        for name in ("existing", "alg1", "alg2", "alg3"):
            assert (out / f"trace_{name}.csv").exists()
        doc = json.loads((out / "summary.json").read_text())
        assert set(doc["summary"]["algorithms"]) == {"existing", "alg1", "alg2", "alg3"}

    def test_summary_reproducible_modulo_timing(self, tmp_path):
        args = ["grow", "--synth", "linear-noisy", "--samples", "40",
                "--features", "2", "--outputs", "1", "--end", "8", "--seed", "4"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        doc_a = _strip_timing(a / "summary.json")
        doc_b = _strip_timing(b / "summary.json")
        # per-step wall time lives inside the trace CSVs, not the summary,
        # so two identical runs must agree except for flops/timing metadata
        doc_a["config"].pop("out", None)
        doc_b["config"].pop("out", None)
        assert doc_a == doc_b

    def test_single_node_run(self, tmp_path):
        out = tmp_path / "one"
        rc = main(["grow", "--synth", "sine-mixture", "--samples", "20",
                   "--features", "2", "--outputs", "1",
                   "--start", "1", "--end", "1", "--out", str(out)])
        assert rc == 0
        lines = (out / "trace_alg2.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header plus the initial state

    def test_alg_subset(self, tmp_path):
        out = tmp_path / "sub"
        rc = main(["grow", "--synth", "sine-mixture", "--samples", "30",
                   "--features", "2", "--outputs", "1", "--end", "5",
                   "--alg", "alg2,alg3", "--out", str(out)])
        assert rc == 0
        assert (out / "trace_alg2.csv").exists()
        assert not (out / "trace_existing.csv").exists()


class TestCompareCommand:
    def test_exit_zero_on_agreement(self, tmp_path, capsys):
        rc = main(["compare", "--synth", "sine-mixture", "--samples", "80",
                   "--features", "3", "--outputs", "2", "--end", "20",
                   "--out", str(tmp_path), "--seed", "2"])
        assert rc == 0
        doc = json.loads((tmp_path / "compare.json").read_text())
        assert doc["compare"]["passed"] is True
        assert "pass" in capsys.readouterr().out

    def test_compare_run_fails_under_zero_threshold(self, monkeypatch):
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 50, 3, 1, seed=3)
        zero = {k: (100, 0.0) for k in (AlgorithmKind.EXISTING, AlgorithmKind.ALG1,
                                        AlgorithmKind.ALG2, AlgorithmKind.ALG3)}
        monkeypatch.setattr(experiments, "DEFAULT_THRESHOLDS", zero)
        report = compare_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 10, seed=3)
        assert report["passed"] is False
        assert all(not e["passed"] for e in report["entries"])

    def test_compare_run_fails_a_rule_on_its_output_error_alone(self, monkeypatch):
        # with K = 100 samples |(W - W*) H| is several times |W - W*|, so a
        # bound between the two passes alg3's weights and fails its outputs
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 100, 8, 1, seed=3)
        args = (ds, ActivationKind.SINE, 0.1, 1, 6)
        entry = compare_run(*args, seed=3)["entries"][-1]
        assert entry["algorithm"] == "alg3" and entry["passed"]
        w_max, z_max = entry["max_weight_error"], entry["max_output_error"]
        bound = (w_max * z_max) ** 0.5
        assert 0.0 < w_max < bound < z_max
        thresholds = dict(experiments.DEFAULT_THRESHOLDS)
        thresholds[AlgorithmKind.ALG3] = (100, bound)
        monkeypatch.setattr(experiments, "DEFAULT_THRESHOLDS", thresholds)
        report = compare_run(*args, seed=3)
        assert report["passed"] is False
        assert [e["passed"] for e in report["entries"]] == [True, True, True, False]
        failed = report["entries"][-1]
        assert (failed["max_weight_error"], failed["max_output_error"]) == (w_max, z_max)
        assert failed["breakdown"] is None

    def test_breakdown_fails_only_within_checked_range(self, monkeypatch, tmp_path, capsys):
        def add_node(state, h_bar):
            if state.l + 1 == 7:
                raise NumericalBreakdownError("breakdown at node 7", node_index=7)
            return solvers.add_node(state, h_bar)

        monkeypatch.setattr(experiments, "add_node", add_node)
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 50, 3, 1, seed=3)
        report = compare_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 10, seed=3)
        assert report["passed"] is False
        for e in report["entries"]:
            assert not e["passed"] and e["checked_up_to"] == 6
            assert e["breakdown"]["node"] == 7
        short = {k: (5, 1e-8) for k in (AlgorithmKind.EXISTING, AlgorithmKind.ALG1,
                                        AlgorithmKind.ALG2, AlgorithmKind.ALG3)}
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "DEFAULT_THRESHOLDS", short)
            report = compare_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 10, seed=3)
        assert report["passed"] is True
        assert all(e["checked_up_to"] == 5 for e in report["entries"])
        # a breakdown at a rule's limit itself is inside the checked range
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "DEFAULT_THRESHOLDS", dict.fromkeys(short, (7, 1e-8)))
            report = compare_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 10, seed=3)
        assert [e["passed"] for e in report["entries"]] == [False] * 4

        rc = main(["compare", "--synth", "sine-mixture", "--samples", "50",
                   "--features", "3", "--outputs", "1", "--end", "10",
                   "--out", str(tmp_path), "--seed", "3"])
        assert rc == 1
        assert capsys.readouterr().out.count("FAIL (breakdown at node 7)") == 4

    def test_default_thresholds(self):
        # alg2 drifts most, so it is checked further under a looser bound
        assert experiments.DEFAULT_THRESHOLDS == {
            AlgorithmKind.EXISTING: (100, 1e-8), AlgorithmKind.ALG1: (100, 1e-8),
            AlgorithmKind.ALG2: (500, 1e-4), AlgorithmKind.ALG3: (100, 1e-8)}

    def test_worst_step_has_the_largest_error(self):
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 50, 3, 1, seed=3)
        args = (ds, ActivationKind.GAUSSIAN, 0.1, 1, 12)
        report = compare_run(*args, seed=3)
        traces, _ = experiments.grow_run(*args, list(solvers.ALL_INCREMENTAL), 3)
        for e in report["entries"]:
            errors = {r.l: max(r.weight_error, r.output_error)
                      for r in traces[e["algorithm"]].records}
            assert len(set(errors.values())) > 1
            assert errors[e["worst_step"]] == max(errors.values())
            assert errors[e["worst_step"]] == max(e["max_weight_error"], e["max_output_error"])

    def test_start_at_a_rule_limit_is_accepted(self):
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 30, 3, 1, seed=3)
        report = compare_run(ds, ActivationKind.GAUSSIAN, 0.1, 100, 101, seed=3)
        assert [e["checked_up_to"] for e in report["entries"]] == [100, 100, 101, 100]
        with pytest.raises(DomainError, match="start 101 is above existing's checked limit"):
            compare_run(ds, ActivationKind.GAUSSIAN, 0.1, 101, 102, seed=3)

    def test_start_above_a_rule_limit_is_rejected(self, monkeypatch, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["compare", "--synth", "sine-mixture", "--samples", "200",
                   "--start", "150", "--end", "160", "--out", str(out)])
        assert rc == 2
        assert "existing's checked limit of 100" in capsys.readouterr().err
        assert not out.exists()
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 50, 3, 1, seed=3)
        short = {k: (5, 1e-8) for k in (AlgorithmKind.EXISTING, AlgorithmKind.ALG1,
                                        AlgorithmKind.ALG2, AlgorithmKind.ALG3)}
        monkeypatch.setattr(experiments, "DEFAULT_THRESHOLDS", short)
        with pytest.raises(DomainError, match="limit of 5"):
            compare_run(ds, ActivationKind.GAUSSIAN, 0.1, 6, 10, seed=3)


class TestBenchCommand:
    @staticmethod
    def bench(tmp_path, *alg):
        rc = main(["bench", "--synth", "sine-mixture", "--samples", "80",
                   "--features", "3", "--outputs", "2", "--end", "12",
                   "--repeats", "3", *alg, "--out", str(tmp_path)])
        assert rc == 0
        return json.loads((tmp_path / "bench.json").read_text())["bench"]

    @staticmethod
    def charged_at_end(bench):
        # each rule's one cost figure is the cost model's for its first step, from
        # l = --end = 12 nodes, K = 80 samples and M = 2 outputs
        for name, entry in bench["algorithms"].items():
            assert entry["flops_per_step"] == solvers.step_multiply_adds(name, 12, 80, 2)

    def test_smoke(self, tmp_path):
        bench = self.bench(tmp_path)
        assert set(bench) == {"K", "l", "M", "repeats", "algorithms"}
        assert bench["l"] == 12 and bench["K"] == 80
        assert set(bench["algorithms"]) == {"existing", "alg1", "alg2", "alg3"}
        self.charged_at_end(bench)

    def test_costs_follow_alg(self, tmp_path):
        bench = self.bench(tmp_path, "--alg", "baseline,alg3")
        assert set(bench["algorithms"]) == {"baseline", "alg3"}
        self.charged_at_end(bench)

    def test_bench_run_needs_a_repeat(self):
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 30, 2, 1, seed=0)
        with pytest.raises(ValueError, match="repeats"):
            experiments.bench_run(ds, ActivationKind.GAUSSIAN, 0.1, 5,
                                  [AlgorithmKind.ALG3], seed=0, repeats=0)



def _record_steps(monkeypatch):
    """Wrap experiments.add_node; the returned list gets each call's (parent, child)."""
    calls = []
    step = experiments.add_node

    def recording(state, h_bar):
        child = step(state, h_bar)
        calls.append((state, child))
        return child

    monkeypatch.setattr(experiments, "add_node", recording)
    return calls


def _chains(calls, start, end):
    """Split recorded calls into chains of end - start steps, each from a fresh start.

    Every chain's first parent is a warm start at `start` nodes; each later
    call steps the previous call's child.
    """
    n = end - start
    assert len(calls) % n == 0
    chains = [calls[i:i + n] for i in range(0, len(calls), n)]
    for chain in chains:
        assert chain[0][0].l == start
        for (_, prev), (parent, _) in zip(chain, chain[1:]):
            assert parent is prev
    return chains


class TestChainContract:
    def test_bench_run_times_one_chain_in_place(self, monkeypatch):
        calls = _record_steps(monkeypatch)
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 80, 3, 2, seed=0)
        kinds = list(solvers.ALL_INCREMENTAL)
        report = experiments.bench_run(ds, ActivationKind.GAUSSIAN, 0.1, 8, kinds,
                                       seed=0, repeats=5)
        chains = _chains(calls, 8, 13)
        assert [chain[0][0].kind for chain in chains] == kinds
        for kind, chain in zip(kinds, chains):
            for parent, child in chain[1:]:
                assert np.shares_memory(child.H, parent.H)
            assert report["algorithms"][kind.value]["flops_per_step"] == \
                solvers.step_multiply_adds(kind, 8, 80, 2)

    def test_grow_run_steps_one_chain_per_rule(self, monkeypatch):
        calls = _record_steps(monkeypatch)
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 60, 3, 2, seed=0)
        kinds = list(solvers.ALL_INCREMENTAL)
        experiments.grow_run(ds, ActivationKind.GAUSSIAN, 0.1, 3, 12, kinds, seed=0)
        chains = _chains(calls, 3, 12)
        assert [chain[0][0].kind for chain in chains] == kinds

    def test_eval_run_steps_one_chain_per_rule_and_fold(self, monkeypatch):
        calls = _record_steps(monkeypatch)
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 60, 3, 2, seed=0)
        kinds = list(solvers.ALL_INCREMENTAL)
        experiments.eval_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 6, kinds, seed=0, folds=3)
        chains = _chains(calls, 1, 6)
        # folds outside, rules inside
        assert [chain[0][0].kind for chain in chains] == [k for _ in range(3) for k in kinds]

    def test_eval_run_prepares_each_fold_once_for_every_rule(self, monkeypatch):
        counts = dict.fromkeys(["normalize_features", "apply_normalization", "hidden_matrix"], 0)
        for name in counts:
            def counted(*args, _fn=getattr(experiments, name), _name=name):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(experiments, name, counted)
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 60, 3, 2, seed=0)
        experiments.eval_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 6,
                             list(solvers.ALL_INCREMENTAL), seed=0, folds=3)
        # a fold's train and test hidden matrices
        assert counts == {"normalize_features": 3, "apply_normalization": 3, "hidden_matrix": 6}

    @pytest.mark.parametrize("run", ["grow", "eval", "bench"])
    def test_every_chain_views_the_runners_hidden_matrix(self, monkeypatch, run):
        # each state a runner steps, and each child, is a view of the hidden
        # matrix its chain started on, so no chain writes H into a buffer of its own
        calls = _record_steps(monkeypatch)
        made, hidden = [], experiments.hidden_matrix

        def recording(params, x):
            made.append(hidden(params, x))
            return made[-1]

        monkeypatch.setattr(experiments, "hidden_matrix", recording)
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 60, 3, 2, seed=0)
        kinds = list(AlgorithmKind)
        if run == "grow":
            experiments.grow_run(ds, ActivationKind.GAUSSIAN, 0.1, 3, 12, kinds, seed=0)
        elif run == "eval":
            experiments.eval_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 6, kinds, seed=0,
                                 folds=3)
        else:
            experiments.bench_run(ds, ActivationKind.GAUSSIAN, 0.1, 8, kinds, seed=0,
                                  repeats=5)
        assert calls
        for parent, child in calls:
            h = parent.H.base
            assert any(h is m for m in made) and child.H.base is h
            assert np.shares_memory(parent.H, h) and np.shares_memory(child.H, h)
            assert child.l == parent.l + 1 and child._store.at is not None


class TestEvalCommand:
    def test_classification_smoke(self, tmp_path, capsys):
        rc = main(["eval", "--synth", "two-gaussians", "--task", "classification",
                   "--samples", "100", "--features", "3", "--outputs", "2",
                   "--end", "15", "--folds", "4", "--alg", "alg3",
                   "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "eval.json").read_text())
        entry = doc["eval"]["algorithms"]["alg3"]
        assert set(entry["mean"]) == {"acc", "sn", "pe", "mcc"}
        assert len(entry["per_fold"]) == 4
        assert "alg3" in capsys.readouterr().out

    def test_regression_reports_mse(self, tmp_path):
        rc = main(["eval", "--synth", "sine-mixture", "--samples", "60",
                   "--features", "3", "--outputs", "1", "--end", "10",
                   "--folds", "3", "--alg", "alg2", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "eval.json").read_text())
        assert doc["eval"]["algorithms"]["alg2"]["mean"]["mse"] >= 0.0

    @pytest.mark.parametrize("start,end", [(0, 5), (8, 5)])
    def test_eval_run_node_range_checked(self, start, end):
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 40, 3, 1, seed=0)
        # a node count below 1 fails the integer rule, before the two are compared
        message = "start must be >= 1" if start < 1 else "start <= end"
        with pytest.raises(DomainError, match=message):
            experiments.eval_run(ds, ActivationKind.GAUSSIAN, 0.1, start, end,
                                 [AlgorithmKind.ALG3], seed=0, folds=2)


def _write_labelled_csv(path, samples=30):
    """Header row, three feature columns, then one label column of classes 0, 1 and 2."""
    rng = np.random.default_rng(7)
    labels = np.arange(samples) % 3
    x = rng.standard_normal((samples, 3)) + labels[:, None]
    lines = ["f1,f2,f3,label"] + [",".join([*map(repr, row), str(c)])
                                  for row, c in zip(x.tolist(), labels)]
    path.write_text("\n".join(lines) + "\n")


class TestCsvInput:
    def test_eval_classification(self, tmp_path, capsys):
        data = tmp_path / "labelled.csv"
        _write_labelled_csv(data)
        out = tmp_path / "run"
        rc = main(["eval", "--data", str(data), "--header", "--task", "classification",
                   "--end", "8", "--folds", "3", "--alg", "alg3", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "eval.json").read_text())
        assert doc["config"]["data"] == str(data) and doc["config"]["header"] is True
        assert doc["eval"]["task"] == "classification"
        entry = doc["eval"]["algorithms"]["alg3"]
        assert set(entry["mean"]) == {"acc", "sn", "pe", "mcc"}
        assert len(entry["per_fold"]) == 3
        assert "alg3" in capsys.readouterr().out

    def test_grow_regression(self, tmp_path):
        data = tmp_path / "labelled.csv"
        _write_labelled_csv(data)
        out = tmp_path / "run"
        rc = main(["grow", "--data", str(data), "--header", "--end", "8",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["config"]["data"] == str(data)
        assert set(doc["summary"]["algorithms"]) == {"existing", "alg1", "alg2", "alg3"}
        for name in ("existing", "alg1", "alg2", "alg3"):
            lines = (out / f"trace_{name}.csv").read_text().splitlines()
            assert lines[0] == "l,weight_error,output_error,flops,elapsed_ns"
            assert len(lines) == 9  # header plus l = 1..8


class TestEnvironment:
    @pytest.mark.parametrize("command,report,flags", [
        ("grow", "summary.json", []),
        ("bench", "bench.json", ["--repeats", "1"]),
        ("eval", "eval.json", ["--folds", "2"]),
        ("compare", "compare.json", []),
    ])
    def test_every_report_records_it(self, tmp_path, monkeypatch, command, report, flags):
        # read at startup by the BLAS, so setting them here only changes the record
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        rc = main([command, "--synth", "sine-mixture", "--samples", "40", "--features", "2",
                   "--outputs", "1", "--end", "6", "--out", str(tmp_path), *flags])
        assert rc == 0
        env = json.loads((tmp_path / report).read_text())["environment"]
        assert set(env) == {"python", "numpy", "scipy", "blas", "threads"}
        assert env["python"] == platform.python_version()
        assert (env["numpy"], env["scipy"]) == (np.__version__, scipy.__version__)
        assert set(env["blas"]) == {"name", "version"}
        assert env["threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3",
                                  "MKL_NUM_THREADS": None}


class TestErrorPaths:
    def test_missing_data_file(self, tmp_path, capsys):
        rc = main(["grow", "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["grow", "bench", "eval"])
    @pytest.mark.parametrize("bad", ["missing-csv", "unknown-alg"])
    def test_rejected_input_creates_no_directory(self, tmp_path, capsys, command, bad):
        out = tmp_path / "d" / "run"
        source = (["--data", str(tmp_path / "missing.csv")] if bad == "missing-csv" else
                  ["--synth", "sine-mixture", "--samples", "20", "--features", "2",
                   "--outputs", "1", "--alg", "alg9"])
        rc = main([command, *source, "--end", "3", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "d").exists()

    def test_bad_node_range(self, tmp_path, capsys):
        rc = main(["grow", "--synth", "sine-mixture", "--start", "5", "--end", "2",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bench_node_count_names_end(self, tmp_path, capsys):
        rc = main(["bench", "--synth", "sine-mixture", "--end", "0",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "end must be >= 1" in err and "start" not in err

    @pytest.mark.parametrize("argv", [
        ["compare", "--samples", "50", "--kernel", "hardlim", "--k0sq", "1e-14",
         "--end", "120"],
        ["eval", "--folds", "1"],
        ["eval", "--samples", "20", "--folds", "50"],
        ["bench", "--end", "0"],
    ], ids=["singular-gram", "one-fold", "more-folds-than-samples", "bench-no-nodes"])
    def test_run_function_rejection_creates_no_directory(self, tmp_path, capsys, argv):
        out = tmp_path / "d" / "run"
        rc = main([*argv, "--synth", "sine-mixture", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "d").exists()

    def test_unknown_algorithm(self, tmp_path, capsys):
        rc = main(["grow", "--synth", "sine-mixture", "--samples", "20",
                   "--features", "2", "--outputs", "1", "--end", "3",
                   "--alg", "alg9", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'alg9'" in err
        assert all(kind.value in err for kind in AlgorithmKind)

    @pytest.mark.parametrize("command", ["grow", "bench", "eval"])
    def test_repeated_algorithm(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        rc = main([command, "--synth", "sine-mixture", "--samples", "20",
                   "--features", "2", "--outputs", "1", "--end", "3",
                   "--alg", "alg3, alg1,alg3", "--out", str(out)])
        assert rc == 2
        assert "'alg3' named twice" in capsys.readouterr().err
        assert not out.exists()

    # the runners reject it themselves, so a library call is checked as the CLI is
    @pytest.mark.parametrize("runner", [
        lambda ds, kinds: experiments.grow_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 3, kinds, 0),
        lambda ds, kinds: experiments.bench_run(ds, ActivationKind.GAUSSIAN, 0.1, 3, kinds, 0, 2),
        lambda ds, kinds: experiments.eval_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 3, kinds,
                                               0, 3),
    ], ids=["grow_run", "bench_run", "eval_run"])
    def test_runner_rejects_a_rule_named_twice(self, runner):
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 20, 2, 1, seed=0)
        with pytest.raises(DomainError, match="'alg2' named twice"):
            runner(ds, [AlgorithmKind.ALG2, AlgorithmKind.ALG3, AlgorithmKind.ALG2])
        # a rule's name is the rule, so a name and its kind are one rule twice
        with pytest.raises(DomainError, match="'alg1' named twice"):
            runner(ds, ["alg1", AlgorithmKind.ALG1])
        with pytest.raises(DomainError, match="'alg9'"):
            runner(ds, ["alg9"])
        with pytest.raises(DomainError, match="no algorithm"):
            runner(ds, [])
        # one rule is not a list of rules: a name would be read letter by letter
        for one in ["alg2", AlgorithmKind.ALG1, None]:
            named = re.escape(repr(one))
            with pytest.raises(DomainError, match=f"algorithms must be a list.*got {named}"):
                runner(ds, one)
        runner(ds, ["alg1"])                         # a name alone runs as its kind

    # solvers checks k0sq at a run's first start or oracle call; no runner checks it again
    @pytest.mark.parametrize("k0sq", [0.0, -1.0, np.inf, np.nan, 1e-200, 1e200, "0.1", 1 + 0j,
                                      [0.1], (0.1,), np.array([0.1]), None, True],
                             ids=["zero", "negative", "inf", "nan", "square-underflows",
                                  "square-overflows", "text", "complex", "list", "tuple",
                                  "1-d-array", "none", "bool"])
    @pytest.mark.parametrize("runner", [
        lambda ds, k0sq: experiments.grow_run(ds, ActivationKind.GAUSSIAN, k0sq, 1, 3,
                                              [AlgorithmKind.ALG3], 0),
        lambda ds, k0sq: experiments.eval_run(ds, ActivationKind.GAUSSIAN, k0sq, 1, 3,
                                              [AlgorithmKind.ALG3], 0, 3),
        lambda ds, k0sq: experiments.bench_run(ds, ActivationKind.GAUSSIAN, k0sq, 3,
                                               [AlgorithmKind.ALG3], 0, 2),
        lambda ds, k0sq: experiments.compare_run(ds, ActivationKind.GAUSSIAN, k0sq, 1, 3, 0),
    ], ids=["grow_run", "eval_run", "bench_run", "compare_run"])
    def test_runner_rejects_k0sq_outside_its_domain(self, runner, k0sq):
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 20, 2, 1, seed=0)
        with pytest.raises(DomainError, match="k0sq"):
            runner(ds, k0sq)

    @pytest.mark.parametrize("call,name", [
        (lambda ds: experiments.grow_run(ds, ActivationKind.GAUSSIAN, 0.1, 1.5, 5,
                                         [AlgorithmKind.ALG3], 0), "start"),
        (lambda ds: experiments.grow_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 5.0,
                                         [AlgorithmKind.ALG3], 0), "end"),
        (lambda ds: experiments.eval_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 5.0,
                                         [AlgorithmKind.ALG3], 0, 3), "end"),
        (lambda ds: experiments.eval_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 5,
                                         [AlgorithmKind.ALG3], 0, 3.0), "folds"),
        (lambda ds: experiments.bench_run(ds, ActivationKind.GAUSSIAN, 0.1, 3.0,
                                          [AlgorithmKind.ALG3], 0, 2), "end"),
        (lambda ds: experiments.bench_run(ds, ActivationKind.GAUSSIAN, 0.1, 3,
                                          [AlgorithmKind.ALG3], 0, 2.0), "repeats"),
        (lambda ds: experiments.compare_run(ds, ActivationKind.GAUSSIAN, 0.1, "3", 5, 0),
         "start"),
        (lambda ds: experiments.compare_run(ds, ActivationKind.GAUSSIAN, 0.1, None, 5, 0),
         "start"),
    ], ids=["grow-start", "grow-end", "eval-end", "eval-folds", "bench-end", "bench-repeats",
            "compare-start-text", "compare-start-none"])
    def test_runner_rejects_a_count_that_is_not_an_integer(self, call, name):
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 20, 2, 1, seed=0)
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            call(ds)

    # each runner's integers are accepted at their floor and rejected one below it
    @pytest.mark.parametrize("call,name,floor", [
        (lambda ds, v: experiments.grow_run(ds, ActivationKind.GAUSSIAN, 0.1, v, 3,
                                            [AlgorithmKind.ALG3], 0), "start", 1),
        (lambda ds, v: experiments.grow_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, v,
                                            [AlgorithmKind.ALG3], 0), "end", 1),
        (lambda ds, v: experiments.grow_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 3,
                                            [AlgorithmKind.ALG3], v), "seed", 0),
        (lambda ds, v: experiments.eval_run(ds, ActivationKind.GAUSSIAN, 0.1, v, 3,
                                            [AlgorithmKind.ALG3], 0, 3), "start", 1),
        (lambda ds, v: experiments.eval_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 3,
                                            [AlgorithmKind.ALG3], 0, v), "folds", 2),
        (lambda ds, v: experiments.bench_run(ds, ActivationKind.GAUSSIAN, 0.1, v,
                                             [AlgorithmKind.ALG3], 0, 2), "end", 1),
        (lambda ds, v: experiments.bench_run(ds, ActivationKind.GAUSSIAN, 0.1, 3,
                                             [AlgorithmKind.ALG3], 0, v), "repeats", 1),
    ], ids=["grow-start", "grow-end", "grow-seed", "eval-start", "eval-folds", "bench-end",
            "bench-repeats"])
    def test_runner_integer_at_its_floor(self, call, name, floor):
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 20, 2, 1, seed=0)
        call(ds, floor)
        with pytest.raises(DomainError, match=f"^{name} must be >= {floor}, got {floor - 1}$"):
            call(ds, floor - 1)

    def test_nonpositive_regularization(self, tmp_path, capsys):
        rc = main(["grow", "--synth", "sine-mixture", "--k0sq", "0",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "k0sq" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_regularization(self, tmp_path, capsys, value):
        rc = main(["grow", "--synth", "sine-mixture", "--samples", "20",
                   "--features", "2", "--outputs", "1", "--end", "3",
                   "--k0sq", value, "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "k0sq" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    # a row whose c = h^T h + k0sq has no finite square, a k0sq whose square is
    # not a normal float, and a negative seed, on the --synth and --data paths
    @pytest.mark.parametrize("source,flags,word", [
        ("big-csv", ["--kernel", "linear", "--end", "2"], "h_bar"),
        ("synth", ["--k0sq", "1e-200", "--end", "3"], "k0sq"),
        ("synth", ["--end", "3", "--seed", "-1"], "seed"),
        ("big-csv", ["--end", "3", "--seed", "-1"], "seed"),
    ], ids=["row-square-overflows", "k0sq-square-underflows", "negative-seed-synth",
            "negative-seed-csv"])
    def test_domain_edge_is_an_error(self, tmp_path, capsys, source, flags, word):
        data = tmp_path / "big.csv"
        x = np.random.default_rng(0).standard_normal((40, 3))
        # node 1's c is 3.5e153, node 2's 2.9e154: only node 2's square overflows
        np.savetxt(data, np.column_stack([2e76 * x[:, :2], x[:, 2]]), delimiter=",")
        src = ["--data", str(data)] if source == "big-csv" else ["--synth", "sine-mixture"]
        out = tmp_path / "run"
        assert main(["grow", *src, *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and word in err
        if word == "h_bar":
            assert "node 2" in err                   # the first row that breaks the rule
        assert not out.exists()

    def test_regularization_with_overflowing_square(self, tmp_path, capsys):
        # every step divides by c * delta >= k0sq^2; 1e200^2 overflows
        argv = ["grow", "--synth", "sine-mixture", "--end", "5"]
        out = tmp_path / "run"
        assert main([*argv, "--k0sq", "1e200", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "k0sq" in err
        assert not out.exists()
        assert main([*argv, "--k0sq", "1e150", "--out", str(out)]) == 0

    @pytest.mark.parametrize("command,flag", [
        ("grow", "--folds"), ("grow", "--repeats"),
        ("bench", "--start"), ("bench", "--folds"),
        ("eval", "--repeats"),
        ("compare", "--alg"), ("compare", "--folds"), ("compare", "--repeats"),
    ])
    def test_flag_the_command_ignores(self, tmp_path, capsys, command, flag):
        value = "alg3" if flag == "--alg" else "0"
        with pytest.raises(SystemExit) as exc:
            main([command, "--synth", "sine-mixture", "--samples", "20",
                  "--features", "2", "--outputs", "1", "--end", "3",
                  flag, value, "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_malformed_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,four\n")
        rc = main(["grow", "--data", str(bad), "--end", "2",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_non_finite_csv_cell(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,4\nnan,5\n6,inf\n")
        out = tmp_path / "run"
        rc = main(["grow", "--data", str(bad), "--end", "2", "--out", str(out)])
        assert rc == 2
        assert "line 3, column 1" in capsys.readouterr().err
        assert not list(out.glob("trace_*.csv"))
