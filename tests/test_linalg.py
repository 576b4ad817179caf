import numpy as np
import pytest

from ifelm.errors import NumericalBreakdownError, ShapeError
from ifelm.linalg import add_outer, cholesky, gemm, solve_spd


class TestGemm:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(gemm(a, np.eye(2)), a)

    def test_unit_vector_selection(self):
        out = gemm(np.array([[1.0, 2.0]]), np.array([[1.0], [0.0]]))
        assert np.array_equal(out, [[1.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            gemm(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_one_dimensional_operand_rejected(self):
        with pytest.raises(ShapeError, match="2-D"):
            gemm(np.zeros(3), np.zeros((3, 1)))

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


class TestAddOuter:
    # (3001, 61) is one dgemm call on a dst of more than `_BAND` entries
    @pytest.mark.parametrize("shape", [(1, 1), (2, 21), (3, 41), (270, 40),
                                       (1999, 37), (3001, 61)])
    @pytest.mark.parametrize("factor", [1.0, -1.0])
    def test_bitwise_equal_to_numpy_outer(self, shape, factor):
        rng = np.random.default_rng(shape[0] * shape[1])
        dst = rng.standard_normal(shape)
        x, y = rng.standard_normal(shape[0]), rng.standard_normal(shape[1])
        arg = factor * y                                 # exactly y or -y
        want, minus = dst + np.outer(x, arg), dst - np.outer(x, y)
        assert add_outer(dst, x, arg) is dst
        assert np.array_equal(dst, want)
        if factor < 0:
            # negation is exact, so adding outer(x, -y) rounds as subtracting outer(x, y)
            assert np.array_equal(dst, minus)

    def test_non_contiguous_dst_raises(self):
        out = np.zeros((4, 6))
        with pytest.raises(ShapeError):
            add_outer(out[:, :-1], np.ones(4), np.ones(5))
        assert not out.any()

    def test_foreign_dtype_raises_instead_of_losing_the_update(self):
        dst = np.zeros((3, 2), dtype=np.float32)
        with pytest.raises(ShapeError):
            add_outer(dst, np.ones(3), np.ones(2))

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            add_outer(np.zeros((3, 2)), np.ones(2), np.ones(2))


class TestSolveSpd:
    """solve_spd solves R X = M with the lower factor cholesky(R)."""

    def test_2x2_adjugate(self):
        r = np.array([[6.0, 1.0], [1.0, 2.0]])
        # oracle: adjugate / determinant for the 2x2 case
        det = r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]
        expected = np.array([[r[1, 1], -r[0, 1]], [-r[1, 0], r[0, 0]]]) / det
        assert np.allclose(solve_spd(cholesky(r), np.eye(2)), expected, rtol=1e-14)
        assert np.allclose(expected, [[2 / 11, -1 / 11], [-1 / 11, 6 / 11]])

    def test_scaled_identity(self):
        assert np.allclose(solve_spd(cholesky(4.0 * np.eye(3)), np.eye(3)), 0.25 * np.eye(3))

    def test_scalar(self):
        assert solve_spd(cholesky(np.array([[1.0]])), np.array([[7.0]]))[0, 0] == 7.0

    def test_random_spd_inverse_property(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 51))
            g = rng.standard_normal((n, n))
            r = g.T @ g + np.eye(n)
            x = solve_spd(cholesky(r), np.eye(n))
            assert np.allclose(x @ r, np.eye(n), rtol=1e-10, atol=1e-10)

    def test_not_spd_reports_pivot(self):
        r = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NumericalBreakdownError, match="at node 2") as exc:
            cholesky(r)
        assert exc.value.node_index == 2

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError, match="square"):
            solve_spd(np.zeros((2, 3)), np.zeros((2, 1)))

    def test_right_hand_side_length_checked(self):
        with pytest.raises(ShapeError, match="mismatch"):
            solve_spd(np.eye(2), np.zeros((3, 1)))
