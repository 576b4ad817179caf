import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifelm.errors import DomainError, ShapeError
from ifelm.evaluation import (
    GrowthTrace,
    StepRecord,
    classification_metrics,
    kfold_split,
    mse,
    weight_output_errors,
)


class TestMse:
    def test_identical(self):
        z = np.random.default_rng(0).standard_normal((2, 4))
        assert mse(z, z) == 0.0

    def test_unit_residuals(self):
        assert mse(np.array([[1.0, 1.0]]), np.zeros((1, 2))) == 1.0

    def test_half_of_25(self):
        assert mse(np.array([[3.0, 4.0]]), np.zeros((1, 2))) == pytest.approx(12.5)

    def test_column_permutation_invariant(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((3, 6))
        y = rng.standard_normal((3, 6))
        perm = rng.permutation(6)
        assert mse(z, y) == pytest.approx(mse(z[:, perm], y[:, perm]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse(np.zeros((1, 2)), np.zeros((2, 2)))


class TestClassificationMetrics:
    def test_perfect_predictions(self):
        y = np.array([[1.0, 0, 1, 0], [0, 1, 0, 1.0]])
        rep = classification_metrics(y, y)
        assert rep.acc == rep.sn == rep.pe == rep.mcc == 1.0

    def test_mcc_one_third(self):
        # confusion (tp, tn, fp, fn) = (2, 2, 1, 1): mcc = (4-1)/sqrt(81) = 1/3
        y = np.array([[1, 1, 1, 0, 0, 0.0], [0, 0, 0, 1, 1, 1.0]])
        z = np.array([[1, 1, 0, 1, 0, 0.0], [0, 0, 1, 0, 1, 1.0]])
        rep = classification_metrics(z, y)
        assert (rep.tp, rep.tn, rep.fp, rep.fn) == (2, 2, 1, 1)
        assert abs(rep.mcc - 1 / 3) < 1e-15

    def test_degenerate_single_class_prediction(self):
        y = np.array([[1, 1, 0, 0.0], [0, 0, 1, 1.0]])
        z = np.array([[1, 1, 1, 1.0], [0, 0, 0, 0.0]])  # always class 0
        rep = classification_metrics(z, y)
        assert rep.mcc == 0.0  # 0/0 -> 0 convention

    def test_row_swap_swaps_confusion_roles(self):
        rng = np.random.default_rng(2)
        y = np.zeros((2, 20))
        y[rng.integers(0, 2, 20), np.arange(20)] = 1.0
        z = rng.standard_normal((2, 20))
        a = classification_metrics(z, y)
        b = classification_metrics(z[::-1], y[::-1])
        assert (a.tp, a.tn, a.fp, a.fn) == (b.tn, b.tp, b.fn, b.fp)
        assert a.acc == b.acc

    def test_sign_coded_single_row(self):
        y = np.array([[1.0, -1.0, 1.0]])
        z = np.array([[0.2, -0.3, -0.4]])
        rep = classification_metrics(z, y)
        assert rep.acc == pytest.approx(2 / 3)
        assert (rep.tp, rep.tn, rep.fp, rep.fn) == (1, 1, 0, 1)

    def test_sign_coded_zero_is_positive(self):
        # z >= 0 is positive: 0.5 and 0.0 on +1 targets are true positives
        y = np.array([[1.0, 1.0, -1.0, -1.0]])
        z = np.array([[0.5, 0.0, -0.5, 0.0]])
        rep = classification_metrics(z, y)
        assert (rep.tp, rep.tn, rep.fp, rep.fn) == (2, 1, 1, 0)

    def test_multiclass_macro(self):
        y = np.eye(3)
        rep = classification_metrics(y, y)
        assert rep.acc == 1.0 and rep.sn == 1.0 and rep.pe == 1.0 and rep.mcc == 1.0

    def test_multiclass_confusion_by_hand(self):
        true = [0, 0, 0, 1, 1, 1, 2, 2]
        pred = [0, 0, 1, 1, 2, 1, 2, 1]
        rep = classification_metrics(np.eye(3)[:, pred], np.eye(3)[:, true])
        # one-vs-rest (tp, tn, fp, fn): class 0 (2, 5, 0, 1), class 1 (2, 3, 2, 1),
        # class 2 (1, 5, 1, 1); 5 of the 8 labels are right
        assert (rep.tp, rep.tn, rep.fp, rep.fn) == (5, 13, 3, 3)
        assert rep.acc == 5 / 8
        assert rep.sn == pytest.approx((2 / 3 + 2 / 3 + 1 / 2) / 3, rel=1e-15)
        assert rep.pe == pytest.approx((1 + 1 / 2 + 1 / 2) / 3, rel=1e-15)
        mccs = [(2 * 5 - 0 * 1) / np.sqrt(2 * 3 * 5 * 6),
                (2 * 3 - 2 * 1) / np.sqrt(4 * 3 * 5 * 4),
                (1 * 5 - 1 * 1) / np.sqrt(2 * 2 * 6 * 6)]
        assert rep.mcc == pytest.approx(sum(mccs) / 3, rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            classification_metrics(np.zeros((2, 0)), np.zeros((2, 0)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            classification_metrics(np.zeros((2, 3)), np.zeros((2, 4)))


class TestWeightOutputErrors:
    def test_identical(self):
        w = np.ones((2, 3))
        h = np.ones((3, 5))
        assert weight_output_errors(w, w, h) == (0.0, 0.0)

    def test_known_distances(self):
        # D = [3, 4]: |D| = 5; D H = [3, 4, 0] for H = [I | 0], so |D H| = 5 too
        w1 = np.array([[3.0, 4.0]])
        w2 = np.zeros((1, 2))
        h = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        we, ze = weight_output_errors(w1, w2, h)
        assert we == 5.0 and ze == 5.0

    def test_shape_mismatch(self):
        # a (1, 2) operand would broadcast against (2, 2) without the check
        with pytest.raises(ShapeError):
            weight_output_errors(np.zeros((2, 2)), np.zeros((1, 2)), np.zeros((2, 3)))
        # H needs one row per column of W
        with pytest.raises(ShapeError):
            weight_output_errors(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((3, 3)))

    def test_output_error_is_taken_from_the_weight_difference(self):
        # W H and W_ref H round to the same values, so subtracting them loses
        # the one-ulp difference that (W - W_ref) H keeps
        w_ref = np.full((1, 2), 1e8)
        w = w_ref.copy()
        w[0, 0] = np.nextafter(1e8, np.inf)
        h = np.ones((2, 3))
        assert np.all(w @ h - w_ref @ h == 0.0)
        we, ze = weight_output_errors(w, w_ref, h)
        assert we == np.linalg.norm(w - w_ref) > 0.0
        assert ze == np.linalg.norm((w - w_ref) @ h) > 0.0


class TestKfoldSplit:
    def test_exact_division(self):
        splits = kfold_split(10, 5, seed=1)
        sizes = sorted(len(test) for _, test in splits)
        assert sizes == [2, 2, 2, 2, 2]
        covered = np.sort(np.concatenate([test for _, test in splits]))
        assert np.array_equal(covered, np.arange(10))

    def test_remainder_distribution(self):
        sizes = sorted(len(test) for _, test in kfold_split(11, 5, seed=1))
        assert sizes == [2, 2, 2, 2, 3]

    def test_deterministic(self):
        a = kfold_split(20, 4, seed=9)
        b = kfold_split(20, 4, seed=9)
        for (tr1, te1), (tr2, te2) in zip(a, b):
            assert np.array_equal(tr1, tr2) and np.array_equal(te1, te2)

    def test_train_test_disjoint(self):
        for train, test in kfold_split(17, 3, seed=0):
            assert not set(train) & set(test)

    def test_too_many_folds(self):
        with pytest.raises(DomainError):
            kfold_split(3, 5, seed=0)
        with pytest.raises(DomainError):
            kfold_split(10, 1, seed=0)

    @pytest.mark.parametrize("seed", [-1, np.int64(-1), 1.5, "1", None],
                             ids=["negative", "negative-numpy", "float", "text", "none"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(DomainError, match="seed"):
            kfold_split(10, 2, seed)

    def test_numpy_integer_seed(self):
        for (tr1, te1), (tr2, te2) in zip(kfold_split(10, 2, np.int32(3)), kfold_split(10, 2, 3)):
            assert np.array_equal(tr1, tr2) and np.array_equal(te1, te2)

    @given(st.integers(2, 60), st.integers(2, 8), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, k, folds, seed):
        if folds > k:
            return
        splits = kfold_split(k, folds, seed)
        union = np.concatenate([test for _, test in splits])
        assert len(union) == k
        assert np.array_equal(np.sort(union), np.arange(k))


class TestGrowthTrace:
    def test_node_counts_must_step_by_one(self):
        tr = GrowthTrace(algorithm="alg1")
        tr.append(StepRecord(l=3, weight_error=0, output_error=0, flops=0, elapsed_ns=0))
        with pytest.raises(DomainError):
            tr.append(StepRecord(l=5, weight_error=0, output_error=0, flops=0, elapsed_ns=0))

    def test_csv_round_trip(self, tmp_path):
        import csv

        tr = GrowthTrace(algorithm="alg2")
        tr.append(StepRecord(l=1, weight_error=1e-12, output_error=2e-12,
                             flops=100, elapsed_ns=5000))
        tr.append(StepRecord(l=2, weight_error=3e-12, output_error=4e-12,
                             flops=220, elapsed_ns=6000))
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["l"] for r in rows] == ["1", "2"]
        assert float(rows[1]["weight_error"]) == 3e-12
