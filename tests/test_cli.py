import json

import numpy as np
import pytest

from ifelm import experiments, solvers
from ifelm.cli import main
from ifelm.data import SynthKind, synth_dataset
from ifelm.errors import NumericalBreakdownError
from ifelm.experiments import compare_run
from ifelm.model import ActivationKind
from ifelm.solvers import AlgorithmKind


def _strip_timing(path):
    doc = json.loads(path.read_text())
    doc.pop("timing")
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

    def test_compare_run_fails_under_zero_threshold(self):
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 50, 3, 1, seed=3)
        zero = {k: (100, 0.0) for k in (AlgorithmKind.EXISTING, AlgorithmKind.ALG1,
                                        AlgorithmKind.ALG2, AlgorithmKind.ALG3)}
        report = compare_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 10, seed=3,
                             thresholds=zero)
        assert report["passed"] is False
        assert all(not e["passed"] for e in report["entries"])

    def test_breakdown_fails_only_within_checked_range(self, monkeypatch, tmp_path, capsys):
        def add_node(state, h_bar):
            if state.l + 1 == 7:
                raise NumericalBreakdownError("breakdown at node 7")
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
        report = compare_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 10, seed=3,
                             thresholds=short)
        assert report["passed"] is True
        assert all(e["checked_up_to"] == 5 for e in report["entries"])

        rc = main(["compare", "--synth", "sine-mixture", "--samples", "50",
                   "--features", "3", "--outputs", "1", "--end", "10",
                   "--out", str(tmp_path), "--seed", "3"])
        assert rc == 1
        assert capsys.readouterr().out.count("FAIL (breakdown at node 7)") == 4


class TestBenchCommand:
    def test_smoke(self, tmp_path):
        rc = main(["bench", "--synth", "sine-mixture", "--samples", "80",
                   "--features", "3", "--outputs", "2", "--end", "12",
                   "--repeats", "3", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "bench.json").read_text())
        bench = doc["bench"]
        assert bench["l"] == 12 and bench["K"] == 80
        # metered counts sit within a few percent of the dominant-term models
        for name in ("existing", "alg1", "alg2", "alg3"):
            got = bench["algorithms"][name]["flops_per_step"]
            model = bench["flop_model"][name]
            assert abs(got - model) <= 0.05 * model

    def test_bench_run_needs_a_repeat(self):
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 30, 2, 1, seed=0)
        with pytest.raises(ValueError, match="repeats"):
            experiments.bench_run(ds, ActivationKind.GAUSSIAN, 0.1, 5,
                                  [AlgorithmKind.ALG3], seed=0, repeats=0)


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

    def test_unknown_algorithm(self, tmp_path, capsys):
        rc = main(["grow", "--synth", "sine-mixture", "--samples", "20",
                   "--features", "2", "--outputs", "1", "--end", "3",
                   "--alg", "alg9", "--out", str(tmp_path)])
        assert rc == 2
        assert "alg9" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["grow", "bench", "eval"])
    def test_repeated_algorithm(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        rc = main([command, "--synth", "sine-mixture", "--samples", "20",
                   "--features", "2", "--outputs", "1", "--end", "3",
                   "--alg", "alg3, alg1,alg3", "--out", str(out)])
        assert rc == 2
        assert "'alg3' named twice" in capsys.readouterr().err
        assert not out.exists()

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
