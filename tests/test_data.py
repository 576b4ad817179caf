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
    synth_dataset,
)
from ifelm.errors import CsvParseError, DomainError, ShapeError
from ifelm.evaluation import classification_metrics, kfold_split, mse
from ifelm.experiments import eval_run
from ifelm.model import ActivationKind, hidden_matrix, init_random_params
from ifelm.solvers import AlgorithmKind, solve_direct, step_multiply_adds


class TestLoadCsv:
    def test_regression_shape_contract(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,0.5\n1,2,0.5\n1,2,0.5\n")
        ds = load_csv(path, 1, TaskKind.REGRESSION)
        assert ds.X.shape == (2, 3) and ds.Y.shape == (1, 3)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        body = "1.0,2.5,0.5\n-3.0,4.0,1.5\n0.25,1e-3,-2\n".encode()
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(body)
        marked.write_bytes(b"\xef\xbb\xbf" + body)
        a = load_csv(plain, 1, TaskKind.REGRESSION)
        b = load_csv(marked, 1, TaskKind.REGRESSION)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)

    def test_one_hot_in_appearance_order(self, tmp_path):
        # label 5 appears first, so it takes row 0 though 3 < 5
        path = tmp_path / "d.csv"
        path.write_text("1,5\n2,3\n3,5\n4,7\n")
        ds = load_csv(path, 1, TaskKind.CLASSIFICATION)
        assert np.array_equal(ds.Y, [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])

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

    def test_blank_line_skipped_and_later_lines_keep_their_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n\n3,4\n")
        assert np.array_equal(load_csv(path, 1, TaskKind.REGRESSION).X, [[1, 3]])
        path.write_text("1,2\n\n3,4\n5,x\n")
        with pytest.raises(CsvParseError) as exc:
            load_csv(path, 1, TaskKind.REGRESSION)
        assert (exc.value.line, exc.value.column) == (4, 2)

    def test_no_target_columns_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n")
        with pytest.raises(DomainError):
            load_csv(path, 0, TaskKind.REGRESSION)

    @pytest.mark.parametrize("targets,message", [
        (0, "target_columns must be >= 1, got 0"),
        (1.5, "target_columns must be an integer, got 1.5"),
        (True, "target_columns must be an integer, got True"),
    ])
    def test_target_columns_follow_the_integer_rule(self, tmp_path, targets, message):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(DomainError, match=message):
            load_csv(path, targets, TaskKind.REGRESSION)
        assert load_csv(path, 1, TaskKind.REGRESSION).Y.shape == (1, 2)   # the floor

    @pytest.mark.parametrize("targets", [2, 3])
    def test_targets_must_leave_a_feature(self, tmp_path, targets):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(DomainError, match="leaves no features"):
            load_csv(path, targets, TaskKind.REGRESSION)

    def test_header_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,target\n1,2,3\n4,5,6\n")
        ds = load_csv(path, 1, TaskKind.REGRESSION, has_header=True)
        assert np.array_equal(ds.X, [[1, 4], [2, 5]])
        assert np.array_equal(ds.Y, [[3, 6]])

    def test_round_trip_bit_exact(self, tmp_path):
        # samples are rows in the file and columns in the dataset
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((4, 7)), rng.standard_normal((2, 7))
        path = tmp_path / "rt.csv"
        path.write_text(_csv_text(np.vstack([x, y])))
        back = load_csv(path, 2, TaskKind.REGRESSION)
        assert np.array_equal(x, back.X)
        assert np.array_equal(y, back.Y)

    def test_classification_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 6))
        labels = np.array([2.0, 7.0, 2.0, -1.5, 7.0, 2.0])
        path = tmp_path / "rt.csv"
        path.write_text(_csv_text(np.vstack([x, labels])))
        back = load_csv(path, 1, TaskKind.CLASSIFICATION)
        assert np.array_equal(x, back.X)
        assert np.array_equal(back.Y, [labels == 2.0, labels == 7.0, labels == -1.5])


def _csv_text(table: np.ndarray) -> str:
    """One line per column of `table`, each cell in Python's shortest round-trip form."""
    return "".join(",".join(repr(float(v)) for v in col) + "\n" for col in table.T)


class TestNormalizeFeatures:
    def test_endpoints(self):
        ds = Dataset(X=np.array([[0.0, 10.0]]), Y=np.zeros((1, 2)),
                     task=TaskKind.REGRESSION)
        out, _ = normalize_features(ds)
        assert np.array_equal(out.X, [[-1.0, 1.0]])

    def test_transform_of_another_width_rejected(self):
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 10, 3, 1, seed=0)
        _, (lo, hi) = normalize_features(ds)
        # a one-entry hi would broadcast to every feature, a short one fail untyped
        for transform in [(lo[:2], hi[:2]), (lo, hi[:1]), (lo, hi[:2])]:
            with pytest.raises(ShapeError):
                apply_normalization(ds, transform)

    def test_transform_is_min_and_max_arrays(self):
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 10, 3, 1, seed=0)
        _, transform = normalize_features(ds)
        assert len(transform) == 2
        for got, want in zip(transform, (ds.X.min(axis=1), ds.X.max(axis=1))):
            assert got.dtype == np.float64 and got.shape == (3,)
            assert np.array_equal(got, want)

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

    def test_two_gaussians_single_output_is_sign_coded(self):
        ds = synth_dataset(SynthKind.TWO_GAUSSIANS, 120, 3, 1, seed=4)
        assert ds.task is TaskKind.CLASSIFICATION and ds.Y.shape == (1, 120)
        assert set(np.unique(ds.Y)) == {-1.0, 1.0}
        # one output row: eval_run scores through the sign path of the metrics
        report = eval_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 20,
                          [AlgorithmKind.ALG3], seed=4, folds=3)
        assert report["algorithms"]["alg3"]["mean"]["acc"] >= 0.95

    def test_single_output_codes_class_0_as_plus_one(self):
        # m = 1 draws the clusters of m = 2, then codes class 0 as +1, class 1 as -1
        one = synth_dataset(SynthKind.TWO_GAUSSIANS, 60, 3, 1, seed=6)
        two = synth_dataset(SynthKind.TWO_GAUSSIANS, 60, 3, 2, seed=6)
        assert np.array_equal(one.X, two.X)
        assert 0 < np.sum(two.Y[0]) < 60
        assert np.array_equal(one.Y[0], np.where(two.Y[0] == 1.0, 1.0, -1.0))

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

    @pytest.mark.parametrize("seed", [-1, np.int64(-1), 1.5, "1", None],
                             ids=["negative", "negative-numpy", "float", "text", "none"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(DomainError, match="seed"):
            synth_dataset(SynthKind.SINE_MIXTURE, 10, 3, 1, seed=seed)

    def test_numpy_integer_seed(self):
        a = synth_dataset(SynthKind.SINE_MIXTURE, 10, 3, 1, seed=np.uint8(4))
        b = synth_dataset(SynthKind.SINE_MIXTURE, 10, 3, 1, seed=4)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)


# every size a library entry point takes is typed, like the runners' counts
@pytest.mark.parametrize("call,name", [
    (lambda: init_random_params(2.5, 3, ActivationKind.GAUSSIAN, 0), "l"),
    (lambda: init_random_params(2, 3.0, ActivationKind.GAUSSIAN, 0), "N"),
    (lambda: init_random_params(True, 3, ActivationKind.GAUSSIAN, 0), "l"),
    (lambda: synth_dataset(SynthKind.SINE_MIXTURE, 20.0, 3, 2, seed=0), "K"),
    (lambda: synth_dataset(SynthKind.SINE_MIXTURE, 20, 3.0, 2, seed=0), "N"),
    (lambda: synth_dataset(SynthKind.SINE_MIXTURE, 20, 3, 2.0, seed=0), "M"),
    (lambda: kfold_split(10.0, 3, 0), "K"),
], ids=["params-l", "params-N", "params-l-bool", "synth-K", "synth-N", "synth-M",
        "split-K"])
def test_size_that_is_not_an_integer_rejected(call, name):
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        call()


# one integer rule with its floor: each integer is accepted at its floor and
# rejected one below it, by a DomainError that names it
@pytest.mark.parametrize("call,name,floor", [
    (lambda v: synth_dataset(SynthKind.SINE_MIXTURE, v, 3, 2, seed=0), "K", 1),
    (lambda v: synth_dataset(SynthKind.SINE_MIXTURE, 20, v, 2, seed=0), "N", 1),
    (lambda v: synth_dataset(SynthKind.SINE_MIXTURE, 20, 3, v, seed=0), "M", 1),
    (lambda v: synth_dataset(SynthKind.SINE_MIXTURE, 20, 3, 2, seed=v), "seed", 0),
    (lambda v: init_random_params(v, 3, ActivationKind.GAUSSIAN, 0), "l", 1),
    (lambda v: init_random_params(2, v, ActivationKind.GAUSSIAN, 0), "N", 1),
    (lambda v: init_random_params(2, 3, ActivationKind.GAUSSIAN, v), "seed", 0),
    (lambda v: kfold_split(10, v, 0), "folds", 2),
    (lambda v: kfold_split(10, 2, v), "seed", 0),
    (lambda v: step_multiply_adds("alg3", v, 10, 1), "l", 1),
    (lambda v: step_multiply_adds("alg3", 1, v, 1), "K", 1),
    (lambda v: step_multiply_adds("alg3", 1, 10, v), "M", 0),
], ids=["synth-K", "synth-N", "synth-M", "synth-seed", "params-l", "params-N",
        "params-seed", "split-folds", "split-seed", "cost-l", "cost-K", "cost-M"])
def test_integer_at_its_floor(call, name, floor):
    call(floor)
    with pytest.raises(DomainError, match=f"^{name} must be >= {floor}, got {floor - 1}$"):
        call(floor - 1)


def test_split_sample_count_below_its_floor():
    # K = 1 passes the rule but not folds <= K, so only K = 0 is checked here
    with pytest.raises(DomainError, match="^K must be >= 1, got 0$"):
        kfold_split(0, 2, 0)


class TestDatasetShapes:
    @pytest.mark.parametrize("x,y", [
        (np.zeros(3), np.zeros((1, 3))),
        (np.zeros((2, 3)), np.zeros(3)),
        (np.zeros((2, 3)), np.zeros((1, 4))),
    ], ids=["1d-X", "1d-Y", "sample-counts-differ"])
    def test_bad_shapes_rejected(self, x, y):
        with pytest.raises(ShapeError):
            Dataset(X=x, Y=y, task=TaskKind.REGRESSION)

    def test_zero_samples_rejected(self):
        with pytest.raises(DomainError):
            Dataset(X=np.zeros((2, 0)), Y=np.zeros((1, 0)), task=TaskKind.REGRESSION)
