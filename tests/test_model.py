import numpy as np
import pytest

from ifelm.errors import DomainError, ShapeError
from ifelm.model import (
    ActivationKind,
    ElmParams,
    activate,
    hidden_matrix,
    init_random_params,
)


class TestInitRandomParams:
    def test_deterministic(self):
        p1 = init_random_params(3, 2, ActivationKind.SIGMOID, seed=7)
        p2 = init_random_params(3, 2, ActivationKind.SIGMOID, seed=7)
        assert np.array_equal(p1.A, p2.A)
        assert np.array_equal(p1.d, p2.d)

    def test_sample_mean_near_zero(self):
        p = init_random_params(1000, 5, ActivationKind.LINEAR, seed=1)
        assert abs(p.A.mean()) < 0.05

    def test_entries_in_range(self):
        p = init_random_params(50, 4, ActivationKind.GAUSSIAN, seed=3)
        assert np.all(np.abs(p.A) <= 1.0) and np.all(np.abs(p.d) <= 1.0)

    def test_empty_layer_rejected(self):
        with pytest.raises(DomainError):
            init_random_params(0, 2, ActivationKind.LINEAR, seed=1)
        with pytest.raises(DomainError):
            init_random_params(2, 0, ActivationKind.LINEAR, seed=1)

    @pytest.mark.parametrize("seed", [-1, np.int64(-1), 1.5, "1", None],
                             ids=["negative", "negative-numpy", "float", "text", "none"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(DomainError, match="seed"):
            init_random_params(3, 2, ActivationKind.GAUSSIAN, seed)

    def test_numpy_integer_seed(self):
        a = init_random_params(3, 2, ActivationKind.GAUSSIAN, np.int64(7))
        b = init_random_params(3, 2, ActivationKind.GAUSSIAN, 7)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.d, b.d)


class TestActivate:
    def test_sigmoid_symmetry_point(self):
        assert activate(ActivationKind.SIGMOID, np.array([[0.0]]))[0, 0] == 0.5

    def test_definition_endpoints(self):
        assert activate(ActivationKind.GAUSSIAN, np.array([[0.0]]))[0, 0] == 1.0
        assert activate(ActivationKind.TRIANGULAR, np.array([[2.0]]))[0, 0] == 0.0

    def test_hardlim_threshold_convention(self):
        out = activate(ActivationKind.HARDLIM, np.array([[-0.1, 0.0, 0.1]]))
        assert np.array_equal(out, [[0.0, 1.0, 1.0]])

    def test_hardlim_idempotent_on_nonnegatives(self):
        # ties go to 1, so a 0 output re-maps to 1; idempotence therefore
        # holds exactly on inputs that never cross the threshold downward
        x = np.abs(np.random.default_rng(5).standard_normal((3, 7))) + 0.1
        once = activate(ActivationKind.HARDLIM, x)
        assert np.array_equal(activate(ActivationKind.HARDLIM, once), once)

    def test_hardlim_composition_stabilizes(self):
        x = np.random.default_rng(6).standard_normal((3, 7))
        twice = activate(ActivationKind.HARDLIM, activate(ActivationKind.HARDLIM, x))
        thrice = activate(ActivationKind.HARDLIM, twice)
        assert np.array_equal(twice, thrice)

    def test_sine_triangular_linear(self):
        x = np.array([[0.25, -0.5]])
        assert np.allclose(activate(ActivationKind.SINE, x), np.sin(x))
        assert np.allclose(activate(ActivationKind.TRIANGULAR, x), [[0.75, 0.5]])
        assert np.array_equal(activate(ActivationKind.LINEAR, x), x)


class TestHiddenMatrix:
    def test_identity_network(self):
        p = ElmParams(A=np.eye(2), d=np.zeros(2), kind=ActivationKind.LINEAR)
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(hidden_matrix(p, x), x)

    def test_hand_evaluation(self):
        p = ElmParams(A=np.array([[1.0, 1.0]]), d=np.array([1.0]),
                      kind=ActivationKind.LINEAR)
        assert hidden_matrix(p, np.array([[1.0], [2.0]]))[0, 0] == 4.0

    def test_zero_preactivation_sigmoid(self):
        p = ElmParams(A=np.zeros((2, 2)), d=np.zeros(2), kind=ActivationKind.SIGMOID)
        out = hidden_matrix(p, np.random.default_rng(0).standard_normal((2, 3)))
        assert np.all(out == 0.5)

    def test_columnwise_consistency(self):
        p = init_random_params(4, 3, ActivationKind.GAUSSIAN, seed=9)
        x = np.random.default_rng(9).uniform(-1, 1, (3, 6))
        h = hidden_matrix(p, x)
        for k in range(6):
            col = activate(p.kind, (p.A @ x[:, k] + p.d).reshape(-1, 1))
            assert np.allclose(h[:, k], col.reshape(-1))

    def test_shape_mismatch(self):
        p = init_random_params(2, 3, ActivationKind.LINEAR, seed=0)
        with pytest.raises(ShapeError):
            hidden_matrix(p, np.zeros((4, 5)))

    def test_params_shapes_checked(self):
        with pytest.raises(ShapeError):
            ElmParams(A=np.zeros(3), d=np.zeros(3), kind=ActivationKind.LINEAR)
        with pytest.raises(ShapeError, match="3 rows but d has 2"):
            ElmParams(A=np.zeros((3, 2)), d=np.zeros(2), kind=ActivationKind.LINEAR)

    def test_leading_nodes_give_leading_rows(self):
        # growth feeds the rules rows of one hidden matrix: its first l rows
        # must be the hidden matrix of the first l nodes alone
        big = init_random_params(5, 3, ActivationKind.SIGMOID, seed=21)
        x = np.random.default_rng(2).uniform(-1, 1, (3, 8))
        small = ElmParams(A=big.A[:4], d=big.d[:4], kind=big.kind)
        assert np.allclose(hidden_matrix(small, x), hidden_matrix(big, x)[:4])
