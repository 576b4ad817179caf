import numpy as np
import pytest

from ifelm.errors import ShapeError, SingularMatrixError
from ifelm.linalg import FlopCounter, frobenius_distance, gemm, solve_spd


class TestGemm:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(gemm(a, np.eye(2)), a)

    def test_unit_vector_selection(self):
        out = gemm(np.array([[1.0, 2.0]]), np.array([[1.0], [0.0]]))
        assert np.array_equal(out, [[1.0]])

    def test_counter_2x2(self):
        c = FlopCounter()
        gemm(np.array([[1.0, 2.0], [1.0, 0.0]]), np.eye(2), c)
        assert c.multiply_adds == 16

    def test_counter_closed_form_exact(self):
        rng = np.random.default_rng(0)
        for a, b, k in [(3, 4, 5), (1, 7, 2), (6, 1, 6), (10, 10, 10)]:
            c = FlopCounter()
            gemm(rng.standard_normal((a, b)), rng.standard_normal((b, k)), c)
            assert c.multiply_adds == 2 * a * b * k

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            gemm(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_associativity(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            dims = rng.integers(1, 21, size=4)
            a = rng.uniform(-1, 1, (dims[0], dims[1]))
            b = rng.uniform(-1, 1, (dims[1], dims[2]))
            c = rng.uniform(-1, 1, (dims[2], dims[3]))
            left = gemm(gemm(a, b), c)
            right = gemm(a, gemm(b, c))
            assert np.allclose(left, right, rtol=1e-12, atol=1e-12)


class TestSolveSpd:
    def test_2x2_adjugate(self):
        r = np.array([[6.0, 1.0], [1.0, 2.0]])
        # oracle: adjugate / determinant for the 2x2 case
        det = r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]
        expected = np.array([[r[1, 1], -r[0, 1]], [-r[1, 0], r[0, 0]]]) / det
        assert np.allclose(solve_spd(r, np.eye(2)), expected, rtol=1e-14)
        assert np.allclose(expected, [[2 / 11, -1 / 11], [-1 / 11, 6 / 11]])

    def test_scaled_identity(self):
        assert np.allclose(solve_spd(4.0 * np.eye(3), np.eye(3)), 0.25 * np.eye(3))

    def test_scalar(self):
        assert solve_spd(np.array([[1.0]]), np.array([[7.0]]))[0, 0] == 7.0

    def test_random_spd_inverse_property(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 51))
            g = rng.standard_normal((n, n))
            r = g.T @ g + np.eye(n)
            x = solve_spd(r, np.eye(n))
            assert np.allclose(x @ r, np.eye(n), rtol=1e-10, atol=1e-10)

    def test_not_spd_reports_pivot(self):
        r = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(SingularMatrixError) as exc:
            solve_spd(r, np.eye(3))
        assert exc.value.pivot_index == 1

    def test_asymmetric_rejected(self):
        with pytest.raises(ShapeError):
            solve_spd(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))


class TestFrobeniusDistance:
    def test_identical(self):
        a = np.random.default_rng(1).standard_normal((4, 5))
        assert frobenius_distance(a, a) == 0.0

    def test_three_four_five(self):
        assert frobenius_distance(np.array([[3.0, 4.0]]), np.zeros((1, 2))) == 5.0

    def test_sqrt_two(self):
        assert frobenius_distance(np.eye(2), np.zeros((2, 2))) == pytest.approx(np.sqrt(2))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            frobenius_distance(np.zeros((2, 2)), np.zeros((3, 2)))
