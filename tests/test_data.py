import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifelm.data import (
    Dataset,
    SynthKind,
    TaskKind,
    apply_normalization,
    load_csv,
    normalize_features,
    save_csv,
    synth_dataset,
)
from ifelm.errors import CsvParseError, DomainError
from ifelm.evaluation import classification_metrics, mse
from ifelm.model import ActivationKind, hidden_matrix, init_random_params
from ifelm.solvers import solve_direct


class TestLoadCsv:
    def test_regression_shape_contract(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,0.5\n1,2,0.5\n1,2,0.5\n")
        ds = load_csv(path, 1, TaskKind.REGRESSION)
        assert ds.X.shape == (2, 3) and ds.Y.shape == (1, 3)

    def test_one_hot_in_appearance_order(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0\n2,1\n3,0\n")
        ds = load_csv(path, 1, TaskKind.CLASSIFICATION)
        assert np.array_equal(ds.Y, [[1, 0, 1], [0, 1, 0]])
        assert ds.labels == [0.0, 1.0]

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n1,2,3\n")
        with pytest.raises(CsvParseError) as exc:
            load_csv(path, 1, TaskKind.REGRESSION)
        assert exc.value.line == 2

    def test_non_numeric_reports_line_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n1,oops\n")
        with pytest.raises(CsvParseError) as exc:
            load_csv(path, 1, TaskKind.REGRESSION)
        assert (exc.value.line, exc.value.column) == (2, 2)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_reports_line_and_column(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"1,2\n3,4\n5,{cell}\n")
        with pytest.raises(CsvParseError) as exc:
            load_csv(path, 1, TaskKind.REGRESSION)
        assert (exc.value.line, exc.value.column) == (3, 2)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DomainError):
            load_csv(path, 1, TaskKind.REGRESSION)

    def test_header_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,target\n1,2,3\n")
        ds = load_csv(path, 1, TaskKind.REGRESSION, has_header=True)
        assert ds.feature_names == ["a", "b", "target"]
        assert ds.X.shape == (2, 1)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = Dataset(X=rng.standard_normal((4, 7)), Y=rng.standard_normal((2, 7)),
                     task=TaskKind.REGRESSION)
        path = tmp_path / "rt.csv"
        save_csv(ds, path)
        back = load_csv(path, 2, TaskKind.REGRESSION)
        assert np.array_equal(ds.X, back.X)
        assert np.array_equal(ds.Y, back.Y)

    def test_classification_round_trip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.5,-1.5,2\n0.25,3.5,7\n1.0,0.0,2\n")
        ds = load_csv(path, 1, TaskKind.CLASSIFICATION)
        out = tmp_path / "rt.csv"
        save_csv(ds, out)
        back = load_csv(out, 1, TaskKind.CLASSIFICATION)
        assert np.array_equal(ds.X, back.X)
        assert np.array_equal(ds.Y, back.Y)
        assert ds.labels == back.labels


class TestNormalizeFeatures:
    def test_endpoints(self):
        ds = Dataset(X=np.array([[0.0, 10.0]]), Y=np.zeros((1, 2)),
                     task=TaskKind.REGRESSION)
        out, _ = normalize_features(ds)
        assert np.array_equal(out.X, [[-1.0, 1.0]])

    def test_constant_feature_maps_to_zero(self):
        ds = Dataset(X=np.array([[5.0, 5.0, 5.0]]), Y=np.zeros((1, 3)),
                     task=TaskKind.REGRESSION)
        out, _ = normalize_features(ds)
        assert np.all(out.X == 0.0)

    def test_stored_transform_reproduces_training_set(self):
        rng = np.random.default_rng(4)
        ds = Dataset(X=rng.uniform(-5, 5, (3, 9)), Y=np.zeros((1, 9)),
                     task=TaskKind.REGRESSION)
        out, transform = normalize_features(ds)
        again = apply_normalization(ds, transform)
        assert np.array_equal(out.X, again.X)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_output_range(self, seed):
        rng = np.random.default_rng(seed)
        ds = Dataset(X=rng.uniform(-100, 100, (2, 5)), Y=np.zeros((1, 5)),
                     task=TaskKind.REGRESSION)
        out, _ = normalize_features(ds)
        assert np.all(out.X >= -1.0) and np.all(out.X <= 1.0)


class TestSynthDataset:
    def test_deterministic(self):
        a = synth_dataset(SynthKind.SINE_MIXTURE, 30, 3, 2, seed=5)
        b = synth_dataset(SynthKind.SINE_MIXTURE, 30, 3, 2, seed=5)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)

    def test_two_gaussians_separable(self):
        ds = synth_dataset(SynthKind.TWO_GAUSSIANS, 300, 5, 2, seed=11)
        dsn, _ = normalize_features(ds)
        params = init_random_params(50, 5, ActivationKind.GAUSSIAN, seed=2)
        h = hidden_matrix(params, dsn.X)
        w = solve_direct(h, dsn.Y, 0.1)
        rep = classification_metrics(w @ h, dsn.Y)
        assert rep.acc >= 0.95

    def test_linear_noiseless_exact_recovery(self):
        ds = synth_dataset(SynthKind.LINEAR_NOISY, 200, 4, 2, seed=3, noise=0.0)
        params = init_random_params(6, 4, ActivationKind.LINEAR, seed=5)
        h = hidden_matrix(params, ds.X)
        # near-zero regularization so the exact linear map is recoverable
        w = solve_direct(h, ds.Y, 1e-12)
        assert mse(w @ h, ds.Y) <= 1e-20

    def test_rejects_zero_sizes(self):
        with pytest.raises(DomainError):
            synth_dataset(SynthKind.SINE_MIXTURE, 0, 3, 1, seed=0)
