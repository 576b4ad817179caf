import json

import numpy as np
import pytest

from ifelm.cli import main
from ifelm.data import SynthKind, synth_dataset
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

    def test_bad_node_range(self, tmp_path, capsys):
        rc = main(["grow", "--synth", "sine-mixture", "--start", "5", "--end", "2",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_algorithm(self, tmp_path, capsys):
        rc = main(["grow", "--synth", "sine-mixture", "--samples", "20",
                   "--features", "2", "--outputs", "1", "--end", "3",
                   "--alg", "alg9", "--out", str(tmp_path)])
        assert rc == 2
        assert "alg9" in capsys.readouterr().err

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

    def test_malformed_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,four\n")
        rc = main(["grow", "--data", str(bad), "--end", "2",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err
