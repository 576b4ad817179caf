"""Tests for the incremental output-weight solvers.

The recurring worked instance: start from h1 = [1, 2], Y = [[3, 0]],
k0sq = 1, then add the row [1, 0].  All frozen fractions below were
cross-checked against the direct solve with R = [[6, 1], [1, 2]].
"""

import copy
import gc
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from ifelm.data import Dataset, SynthKind, synth_dataset
from ifelm.errors import (
    DefinitenessLossError,
    DomainError,
    ShapeError,
    SingularMatrixError,
)
from ifelm.experiments import grow_run
from ifelm.linalg import FlopCounter
from ifelm.model import ActivationKind, hidden_matrix, init_random_params
from ifelm.solvers import (
    AlgorithmKind,
    add_node,
    add_node_alg1,
    add_node_alg2,
    add_node_alg3,
    add_node_baseline,
    add_node_existing,
    compute_p,
    init_solver,
    solve_direct,
    solve_direct_prefixes,
    warm_start,
)

from reference_rules import add_node_q_unsimplified, reference_step

H1 = np.array([1.0, 2.0])
Y1 = np.array([[3.0, 0.0]])
HBAR = np.array([1.0, 0.0])
W2 = np.array([[3 / 11, 15 / 11]])
Q2 = np.array([[2 / 11, -1 / 11], [-1 / 11, 6 / 11]])

INCREMENTAL = [AlgorithmKind.EXISTING, AlgorithmKind.ALG1,
               AlgorithmKind.ALG2, AlgorithmKind.ALG3]


def worked_state(kind):
    return init_solver(kind, H1, Y1, 1.0)


class TestSolveDirect:
    def test_scalar_formula(self):
        w = solve_direct(np.array([[1.0, 2.0]]), Y1, 1.0)
        assert w[0, 0] == pytest.approx(0.5)

    def test_two_node_solve(self):
        h = np.array([[1.0, 2.0], [1.0, 0.0]])
        assert np.allclose(solve_direct(h, Y1, 1.0), W2, rtol=1e-14)

    def test_zero_targets(self):
        h = np.random.default_rng(0).standard_normal((3, 5))
        assert np.all(solve_direct(h, np.zeros((2, 5)), 0.5) == 0.0)

    def test_k0sq_must_be_positive(self):
        with pytest.raises(DomainError):
            solve_direct(np.ones((1, 2)), Y1, 0.0)
        with pytest.raises(DomainError):
            solve_direct(np.ones((1, 2)), Y1, -1.0)

    @pytest.mark.parametrize("k0sq", [np.inf, np.nan, -np.inf])
    def test_k0sq_must_be_finite(self, k0sq):
        with pytest.raises(DomainError):
            solve_direct(np.ones((1, 2)), Y1, k0sq)
        with pytest.raises(DomainError):
            init_solver(AlgorithmKind.ALG3, H1, Y1, k0sq)
        with pytest.raises(DomainError):
            warm_start(AlgorithmKind.ALG2, np.eye(2), Y1, k0sq)


def oracle_problem(nodes=60, k=200, m=3, seed=5):
    ds = synth_dataset(SynthKind.SINE_MIXTURE, k, 4, m, seed=seed)
    params = init_random_params(nodes, 4, ActivationKind.GAUSSIAN, seed)
    return hidden_matrix(params, ds.X), ds.Y, ds, params


class TestSolveDirectPrefixes:
    def test_full_prefix_bitwise_equals_solve_direct(self):
        h, y, _, _ = oracle_problem()
        w = solve_direct_prefixes(h, y, 0.1, range(1, 61))
        assert np.array_equal(w[60], solve_direct(h, y, 0.1))

    def test_every_prefix_matches_per_l_solve(self):
        h, y, _, _ = oracle_problem()
        w = solve_direct_prefixes(h, y, 0.1, range(1, 61))
        assert sorted(w) == list(range(1, 61))
        for l in range(1, 61):
            ref = solve_direct(h[:l], y, 0.1)
            assert np.linalg.norm(w[l] - ref) <= 1e-12 * (1.0 + np.linalg.norm(ref)), l

    def test_only_the_asked_prefixes(self):
        h, y, _, _ = oracle_problem()
        w = solve_direct_prefixes(h, y, 0.1, [3, 40])
        assert sorted(w) == [3, 40]
        assert np.array_equal(w[40], solve_direct(h[:40], y, 0.1))

    @pytest.mark.parametrize("k0sq", [0.0, -1.0, np.inf, np.nan])
    def test_k0sq_domain(self, k0sq):
        with pytest.raises(DomainError):
            solve_direct_prefixes(np.eye(2), Y1, k0sq, [1, 2])

    @pytest.mark.parametrize("h,y", [
        (np.ones((3, 2)), np.ones((1, 3))),
        (np.ones(2), Y1),
        (np.ones((3, 2)), np.ones(2)),
    ])
    def test_shape_mismatch(self, h, y):
        with pytest.raises(ShapeError):
            solve_direct_prefixes(h, y, 0.1, [1])

    @pytest.mark.parametrize("ls", [[], [0, 2], [1, 3]])
    def test_prefix_lengths_in_range(self, ls):
        with pytest.raises(DomainError):
            solve_direct_prefixes(np.ones((2, 2)), Y1, 0.1, ls)

    def test_not_positive_definite_fails_at_the_per_l_pivot(self):
        # hardlim rows repeat, so at k0sq = 1e-14 the Gram loses definiteness
        # in rounding once the node count passes the number of distinct rows
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 50, 8, 2, seed=0)
        params = init_random_params(120, 8, ActivationKind.HARDLIM, 0)
        h = hidden_matrix(params, ds.X)
        with pytest.raises(SingularMatrixError) as per_l:
            for l in range(1, 121):
                solve_direct(h[:l], ds.Y, 1e-14)
        with pytest.raises(SingularMatrixError) as one_factor:
            solve_direct_prefixes(h, ds.Y, 1e-14, range(1, 121))
        assert per_l.value.pivot_index is not None
        assert one_factor.value.pivot_index == per_l.value.pivot_index


class TestGrowRunOracle:
    def test_checkpoint_error_at_end_is_distance_to_solve_direct(self):
        h, y, ds, params = oracle_problem()
        _, summary = grow_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 60, INCREMENTAL,
                              seed=5, params=params)
        w_end = solve_direct(h, y, 0.1)
        for kind in INCREMENTAL:
            state = warm_start(kind, h[:1], y, 0.1)
            for l in range(1, 60):
                state = add_node(state, h[l])
            got = summary["algorithms"][kind.value]["checkpoint_errors"]["60"]["weight_error"]
            assert got == np.linalg.norm(state.W - w_end)

    def test_oracle_residual_at_each_checkpoint(self):
        _, _, ds, params = oracle_problem()
        _, summary = grow_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 60, [AlgorithmKind.ALG3],
                              seed=5, params=params)
        residual = summary["oracle_residual"]
        assert sorted(residual, key=int) == [str(c) for c in summary["checkpoints"]]
        assert all(0.0 <= r < 1e-12 for r in residual.values())

    def test_oracle_residual_with_zero_targets(self):
        _, y, ds, params = oracle_problem()
        zero = Dataset(X=ds.X, Y=np.zeros_like(y), task=ds.task)
        _, summary = grow_run(zero, ActivationKind.GAUSSIAN, 0.1, 1, 10, [AlgorithmKind.ALG3],
                              seed=5, params=params)
        assert summary["oracle_residual"] == {"3": 0.0, "10": 0.0}

    @pytest.mark.parametrize("start,end", [(0, 5), (6, 5), (1, 61)])
    def test_node_range_checked(self, start, end):
        _, _, ds, params = oracle_problem()
        with pytest.raises(DomainError):
            grow_run(ds, ActivationKind.GAUSSIAN, 0.1, start, end, [AlgorithmKind.ALG3],
                     seed=5, params=params)


class TestInitSolver:
    def test_worked_base_case(self):
        st = worked_state(AlgorithmKind.ALG2)
        assert np.allclose(st.Q, [[1 / 6]])
        assert np.allclose(st.W, [[0.5]])
        st = worked_state(AlgorithmKind.ALG1)
        assert np.allclose(st.B, [[1 / 6], [2 / 6]])
        st = worked_state(AlgorithmKind.ALG3)
        assert np.allclose(st.L, [[1.0]]) and np.allclose(st.D, [1 / 6])

    def test_matches_direct_solve_at_l1(self):
        rng = np.random.default_rng(4)
        h1 = rng.standard_normal(9)
        y = rng.standard_normal((3, 9))
        expected = solve_direct(h1.reshape(1, -1), y, 0.1)
        for kind in AlgorithmKind:
            st = init_solver(kind, h1, y, 0.1)
            assert np.allclose(st.W, expected, rtol=1e-12)

    def test_zero_hidden_row(self):
        st = init_solver(AlgorithmKind.ALG2, [0.0, 0.0], Y1, 1.0)
        assert st.Q[0, 0] == 1.0 and np.all(st.W == 0.0)

    def test_scalar_sample(self):
        st = init_solver(AlgorithmKind.BASELINE, [1.0], np.array([[1.0]]), 1.0)
        assert st.W[0, 0] == pytest.approx(0.5)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            init_solver(AlgorithmKind.ALG1, H1, Y1, 0.0)
        with pytest.raises(ShapeError):
            init_solver(AlgorithmKind.ALG1, [], Y1, 1.0)


class TestComputeP:
    def test_hand_product(self):
        st = worked_state(AlgorithmKind.ALG2)
        assert np.allclose(compute_p(st, HBAR, FlopCounter()), [1.0])

    def test_zero_row(self):
        st = worked_state(AlgorithmKind.ALG2)
        assert np.array_equal(compute_p(st, np.zeros(2), FlopCounter()), [0.0])

    def test_identity_hidden_matrix(self):
        st = init_solver(AlgorithmKind.ALG2, [1.0, 0.0, 0.0], np.zeros((1, 3)), 1.0)
        st = replace(st, H=np.eye(3))
        h = np.array([0.3, -0.7, 0.2])
        assert np.allclose(compute_p(st, h, FlopCounter()), h)

    def test_wrong_length(self):
        with pytest.raises(ShapeError):
            compute_p(worked_state(AlgorithmKind.ALG2), np.zeros(5), FlopCounter())


class TestRowLength:
    @pytest.mark.parametrize("size", [1, 6])
    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_every_rule_rejects_wrong_length(self, kind, size):
        # K = 5; a length-1 row would otherwise broadcast into H
        rng = np.random.default_rng(3)
        st = init_solver(kind, rng.uniform(-1, 1, 5), rng.standard_normal((1, 5)), 0.1)
        with pytest.raises(ShapeError):
            add_node(st, np.full(size, 0.5))


class TestWorkedStep:
    def test_existing(self):
        st = add_node_existing(worked_state(AlgorithmKind.EXISTING), HBAR)
        assert np.allclose(st.B, [[1 / 11, 5 / 11], [4 / 11, -2 / 11]], rtol=1e-14)
        assert np.allclose(st.W, W2, rtol=1e-14)

    def test_alg1(self):
        st = add_node_alg1(worked_state(AlgorithmKind.ALG1), HBAR)
        assert np.allclose(st.B, [[1 / 11, 5 / 11], [4 / 11, -2 / 11]], rtol=1e-14)
        assert np.allclose(st.W, W2, rtol=1e-14)

    def test_alg2(self):
        st = add_node_alg2(worked_state(AlgorithmKind.ALG2), HBAR)
        assert np.allclose(st.Q, Q2, rtol=1e-14)
        assert np.allclose(st.W, W2, rtol=1e-14)

    def test_alg3(self):
        st = add_node_alg3(worked_state(AlgorithmKind.ALG3), HBAR)
        assert np.allclose(st.L, [[1.0, -1 / 6], [0.0, 1.0]], rtol=1e-14)
        assert np.allclose(st.D, [1 / 6, 6 / 11], rtol=1e-14)
        assert np.allclose(st.L @ np.diag(st.D) @ st.L.T, Q2, rtol=1e-13)
        assert np.allclose(st.W, W2, rtol=1e-14)

    def test_baseline(self):
        st = add_node_baseline(worked_state(AlgorithmKind.BASELINE), HBAR)
        assert np.allclose(st.W, W2, rtol=1e-14)

    def test_q_unsimplified(self):
        st = add_node_q_unsimplified(worked_state(AlgorithmKind.ALG2), HBAR)
        assert np.allclose(st.Q, Q2, rtol=1e-14)
        assert np.allclose(st.W, W2, rtol=1e-14)


class TestZeroRowStep:
    """Adding an all-zero hidden row must leave the fit unchanged."""

    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_weights_gain_zero_column(self, kind):
        st = add_node(worked_state(kind), np.zeros(2))
        assert st.W[0, 0] == pytest.approx(0.5)
        assert st.W[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_alg2_state(self):
        st = add_node_alg2(worked_state(AlgorithmKind.ALG2), np.zeros(2))
        assert st.Q[0, 0] == pytest.approx(1 / 6)
        assert st.Q[1, 1] == pytest.approx(1.0)  # tau = 1/k0sq
        assert st.Q[0, 1] == 0.0

    def test_alg3_grows_identity_column(self):
        st = add_node_alg3(worked_state(AlgorithmKind.ALG3), np.zeros(2))
        assert np.allclose(st.L, np.eye(2))
        assert st.D[1] == pytest.approx(1.0)  # tau = 1/k0sq


def grow_states(kinds, k=50, n=5, m=2, steps=30, k0sq=0.1, seed=0):
    """Grow one state per kind in lockstep on shared Gaussian-kernel rows."""
    rng = np.random.default_rng(seed)
    rows = np.exp(-np.square(rng.uniform(-1, 1, (steps, k))))
    y = rng.standard_normal((m, k))
    states = {kind: init_solver(kind, rows[0], y, k0sq) for kind in kinds}
    for i in range(1, steps):
        states = {kind: add_node(st, rows[i]) for kind, st in states.items()}
        yield rows[i], states


class TestOracleEquivalence:
    @pytest.mark.parametrize("k,m", [(20, 1), (20, 3), (200, 1), (200, 3)])
    def test_grow_to_100_matches_direct_solve(self, k, m):
        rng = np.random.default_rng(100 + k + m)
        rows = np.exp(-np.square(rng.uniform(-1, 1, (100, k))))
        y = rng.standard_normal((m, k))
        states = {kind: init_solver(kind, rows[0], y, 0.1) for kind in INCREMENTAL}
        for i in range(1, 100):
            w_base = solve_direct(rows[: i + 1], y, 0.1)
            bound = 1e-8 * (1.0 + np.linalg.norm(w_base))
            for kind in INCREMENTAL:
                states[kind] = add_node(states[kind], rows[i])
                err = np.linalg.norm(states[kind].W - w_base)
                assert err <= bound, f"{kind} diverged at step {i}: {err:.2e}"

    def test_pairwise_weights_agree(self):
        for _, states in grow_states(list(AlgorithmKind), steps=25):
            base = states[AlgorithmKind.BASELINE].W
            scale = 1.0 + np.linalg.norm(base)
            for kind in INCREMENTAL:
                assert np.linalg.norm(states[kind].W - base) <= 1e-10 * scale


class TestStateInvariants:
    def test_q_symmetry_every_step(self):
        for _, states in grow_states([AlgorithmKind.ALG2]):
            q = states[AlgorithmKind.ALG2].Q
            assert np.abs(q - q.T).max() <= 1e-12 * np.linalg.norm(q)

    def test_factor_structure_every_step(self):
        for _, states in grow_states([AlgorithmKind.ALG3]):
            st = states[AlgorithmKind.ALG3]
            assert np.array_equal(np.diag(st.L), np.ones(st.l))
            assert np.all(np.tril(st.L, -1) == 0.0)
            assert np.all(st.D > 0.0)

    def test_w_equals_y_times_b(self):
        for kind in (AlgorithmKind.EXISTING, AlgorithmKind.ALG1):
            for _, states in grow_states([kind]):
                st = states[kind]
                scale = 1.0 + np.linalg.norm(st.W)
                assert np.linalg.norm(st.W - st.Y @ st.B) <= 1e-10 * scale


class TestAlgebraicIdentities:
    """Identities connecting the three state representations step by step."""

    def test_identity_suite_during_growth(self):
        kinds = [AlgorithmKind.ALG1, AlgorithmKind.ALG2, AlgorithmKind.ALG3]
        prev = None
        for h_bar, states in grow_states(kinds, steps=30, seed=3):
            a1, a2, a3 = (states[k] for k in kinds)
            if prev is not None:
                q_old, h_old = prev
                c = float(h_bar @ h_bar) + a2.k0sq
                p = h_old @ h_bar
                qp = q_old @ p
                tau = 1.0 / (c - float(p @ qp))
                t = -tau * qp
                # new column of B equals H^T t + tau h_bar
                b_bar = a1.B[:, -1]
                ref = h_old.T @ t + tau * h_bar
                assert np.linalg.norm(b_bar - ref) <= 1e-11 * (1 + np.linalg.norm(ref))
                # retained block of B equals H^T Q - b_bar p^T Q
                b_tilde = a1.B[:, :-1]
                ref = h_old.T @ q_old - np.outer(b_bar, p @ q_old)
                assert np.linalg.norm(b_tilde - ref) <= 1e-11 * (1 + np.linalg.norm(ref))
                # the factor column is t / tau
                tt = a3.L[:-1, -1]
                assert np.linalg.norm(tt - t / tau) <= 1e-11 * (1 + np.linalg.norm(t / tau))
            # factors reconstruct the inverse
            q_rebuilt = a3.L @ np.diag(a3.D) @ a3.L.T
            assert np.linalg.norm(q_rebuilt - a2.Q) <= 1e-9 * (1 + np.linalg.norm(a2.Q))
            prev = (a2.Q, a2.H)

    def test_unsimplified_and_simplified_q_agree(self):
        rng = np.random.default_rng(8)
        rows = rng.uniform(-1, 1, (50, 40))
        y = rng.standard_normal((2, 40))
        simp = init_solver(AlgorithmKind.ALG2, rows[0], y, 0.1)
        uns = init_solver(AlgorithmKind.ALG2, rows[0], y, 0.1)
        for i in range(1, 50):
            simp = add_node_alg2(simp, rows[i])
            uns = add_node_q_unsimplified(uns, rows[i])
            scale = np.linalg.norm(simp.Q)
            assert np.linalg.norm(simp.Q - uns.Q) <= 1e-11 * scale
            assert np.allclose(simp.W, uns.W, rtol=1e-11)


class TestWarmStart:
    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_continues_like_cold_start(self, kind):
        rng = np.random.default_rng(12)
        rows = rng.uniform(-1, 1, (12, 30))
        y = rng.standard_normal((2, 30))
        warm = warm_start(kind, rows[:5], y, 0.1)
        cold = init_solver(kind, rows[0], y, 0.1)
        for i in range(1, 12):
            cold = add_node(cold, rows[i])
            if i >= 5:
                warm = add_node(warm, rows[i])
        assert np.allclose(warm.W, cold.W, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_linear_kernel_start_tracks_direct_solve(self, kind):
        # the Gram of 20 linear-kernel rows of 8 features is near rank 8; a
        # pivoted symmetric-indefinite start lost definiteness at node 21 here
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 200, 8, 2, seed=5)
        h = hidden_matrix(init_random_params(25, 8, ActivationKind.LINEAR, 5), ds.X)
        st = warm_start(kind, h[:20], ds.Y, 0.1)
        for l in range(20, 25):
            st = add_node(st, h[l])
            w_base = solve_direct(h[: l + 1], ds.Y, 0.1)
            bound = 1e-8 * (1.0 + np.linalg.norm(w_base))
            assert np.linalg.norm(st.W - w_base) <= bound, f"step {l + 1}"

    @pytest.mark.parametrize("l0,scaled", [(1, False), (2, False), (7, False), (7, True)])
    def test_factors_unit_triangular_and_rebuild_q(self, l0, scaled):
        rng = np.random.default_rng(30 + l0)
        rows = rng.uniform(-1, 1, (l0, 30))
        y = rng.standard_normal((2, 30))
        if scaled:
            rows *= 10.0 ** np.array([0, 3, -3, 0, 3, -3, 0])[:, None]
            r = rows @ rows.T + 0.1 * np.eye(l0)
            perm = scipy.linalg.ldl(r)[2]
            assert not np.array_equal(perm, np.arange(l0))  # Bunch-Kaufman pivots here
        a3 = warm_start(AlgorithmKind.ALG3, rows, y, 0.1)
        q = warm_start(AlgorithmKind.ALG2, rows, y, 0.1).Q
        assert np.array_equal(np.diag(a3.L), np.ones(l0))
        assert np.all(np.tril(a3.L, -1) == 0.0)
        q_rebuilt = a3.L @ np.diag(a3.D) @ a3.L.T
        assert np.linalg.norm(q_rebuilt - q) <= 1e-12 * np.linalg.norm(q)

    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_init_solver_is_one_row_warm_start(self, kind):
        rng = np.random.default_rng(13)
        rows = rng.uniform(-1, 1, (3, 20))
        y = rng.standard_normal((2, 20))
        assert_same_state(init_solver(kind, rows[0], y, 0.1),
                          warm_start(kind, rows[:1], y, 0.1))


class TestFlopAccounting:
    """Per-step metered counts must equal the dominant-cost model exactly.

    A step's count is the child's `multiply_adds` minus its parent's.
    """

    def setup_state(self, kind, l=40, k=300, m=3):
        rng = np.random.default_rng(2)
        h = rng.uniform(-1, 1, (l + 1, k))
        y = rng.standard_normal((m, k))
        return warm_start(kind, h[:l], y, 0.1), h[l]

    @staticmethod
    def step_cost(st, child):
        return child.multiply_adds - st.multiply_adds

    def test_existing_is_16lk_plus_2mlk(self):
        st, h_bar = self.setup_state(AlgorithmKind.EXISTING)
        l, k, m = st.l, st.sample_count, st.Y.shape[0]
        got = self.step_cost(st, add_node(st, h_bar))
        assert got == 16 * l * k + 2 * l + 2 * m * (l + 1) * k

    def test_alg1_is_6lk_plus_2mk(self):
        st, h_bar = self.setup_state(AlgorithmKind.ALG1)
        l, k, m = st.l, st.sample_count, st.Y.shape[0]
        assert self.step_cost(st, add_node(st, h_bar)) == 6 * l * k + 2 * m * k

    @pytest.mark.parametrize("kind", [AlgorithmKind.ALG2, AlgorithmKind.ALG3])
    def test_alg2_alg3_are_2lk_plus_2mk(self, kind):
        st, h_bar = self.setup_state(kind)
        l, k, m = st.l, st.sample_count, st.Y.shape[0]
        assert self.step_cost(st, add_node(st, h_bar)) == 2 * l * k + 2 * m * k

    def test_counter_monotone(self):
        st, h_bar = self.setup_state(AlgorithmKind.ALG1)
        seen = [st.multiply_adds]
        for _ in range(3):
            st = add_node(st, h_bar)
            seen.append(st.multiply_adds)
        assert seen[0] == 0
        assert seen == sorted(seen)

    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_restep_counts_each_child_once(self, kind):
        st, h_bar = self.setup_state(kind)
        a = add_node(st, h_bar)
        b = add_node(st, h_bar)
        assert st.multiply_adds == 0
        assert self.step_cost(st, a) == self.step_cost(st, b) > 0

    def test_grow_run_trace_matches_models(self):
        k, m, end = 60, 2, 12
        ds = synth_dataset(SynthKind.SINE_MIXTURE, k, 3, m, seed=4)
        model = {
            "existing": lambda l: 16 * l * k + 2 * l + 2 * m * (l + 1) * k,
            "alg1": lambda l: 6 * l * k + 2 * m * k,
            "alg2": lambda l: 2 * l * k + 2 * m * k,
            "alg3": lambda l: 2 * l * k + 2 * m * k,
        }
        traces, _ = grow_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, end,
                             INCREMENTAL, seed=4)
        for name, cost in model.items():
            recs = traces[name].records
            assert [r.l for r in recs] == list(range(1, end + 1))
            assert recs[0].flops == 0
            # the record at l is the step from l - 1 nodes
            assert [r.flops for r in recs[1:]] == [cost(l) for l in range(1, end)]


class TestStabilityDrift:
    def test_alg2_drifts_more_than_alg3(self):
        # long growth: the updated inverse accumulates error, the factors don't
        rng = np.random.default_rng(5)
        k = 1000
        rows = np.exp(-np.square(rng.uniform(-1, 1, (500, k))))
        y = rng.standard_normal((2, k))
        a2 = init_solver(AlgorithmKind.ALG2, rows[0], y, 0.1)
        a3 = init_solver(AlgorithmKind.ALG3, rows[0], y, 0.1)
        for i in range(1, 500):
            a2 = add_node(a2, rows[i])
            a3 = add_node(a3, rows[i])
        w_base = solve_direct(rows, y, 0.1)
        scale = 1.0 + np.linalg.norm(w_base)
        err2 = np.linalg.norm(a2.W - w_base) / scale
        err3 = np.linalg.norm(a3.W - w_base) / scale
        assert err3 <= 1e-7
        assert err2 <= 1e-4
        assert err2 > err3


class TestBreakdownErrors:
    def test_definiteness_loss_detected(self):
        st = worked_state(AlgorithmKind.ALG2)
        bad = replace(st, Q=np.array([[100.0]]))  # p^T Q p > h^T h + k0sq
        with pytest.raises(DefinitenessLossError):
            add_node_alg2(bad, HBAR)

    def test_breakdown_reports_node_index(self):
        st = worked_state(AlgorithmKind.ALG3)
        bad = replace(st, D=np.array([100.0]))
        with pytest.raises(DefinitenessLossError) as exc:
            add_node_alg3(bad, HBAR)
        assert exc.value.node_index == 2


STATE_ARRAYS = ("H", "W", "B", "Q", "L", "D")


def arrays(st):
    return {n: getattr(st, n) for n in STATE_ARRAYS if getattr(st, n) is not None}


def assert_same_state(got, want):
    a, b = arrays(got), arrays(want)
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), f"{got.kind} {name} at l={got.l}"


def snapshot(st):
    return {n: a.copy() for n, a in arrays(st).items()}


class TestCopyOnWrite:
    """Steps append into solver-owned buffers; every state must stay intact.

    At K=1000 the rank-one updates of EXISTING and ALG1 fit in one
    `add_outer` row band; the K=3000 chains span two.
    """

    K, M, STEPS = 1000, 3, 40

    def rows(self, seed=21):
        rng = np.random.default_rng(seed)
        h = np.exp(-np.square(rng.uniform(-1, 1, (self.STEPS + 8, self.K))))
        return h, rng.standard_normal((self.M, self.K))

    def start(self, kind, h, y, l0):
        if l0 == 1:
            return init_solver(kind, h[0], y, 0.1)
        return warm_start(kind, h[:l0], y, 0.1)

    @pytest.mark.parametrize("l0", [1, 6])
    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_chain_matches_copy_reference_bitwise(self, kind, l0):
        h, y = self.rows()
        st = ref = self.start(kind, h, y, l0)
        for l in range(l0, l0 + self.STEPS):
            st, ref = add_node(st, h[l]), reference_step(ref, h[l])
            assert_same_state(st, ref)

    @pytest.mark.parametrize("kind", [AlgorithmKind.EXISTING, AlgorithmKind.ALG1])
    def test_chain_across_row_bands_matches_copy_reference_bitwise(self, kind):
        rng = np.random.default_rng(23)
        h = np.exp(-np.square(rng.uniform(-1, 1, (55, 3000))))
        y = rng.standard_normal((self.M, 3000))
        st = ref = warm_start(kind, h[:50], y, 0.1)
        for l in range(50, 55):
            st, ref = add_node(st, h[l]), reference_step(ref, h[l])
            assert_same_state(st, ref)

    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_restep_leaves_first_child_intact(self, kind):
        h, y = self.rows()
        s = self.start(kind, h, y, 1)
        for l in range(1, 12):
            s = add_node(s, h[l])
        a = add_node(s, h[12])                  # appends in place
        kept = snapshot(a)
        b = add_node(s, h[13])                  # s is behind the fill level: copies
        assert_same_state(b, reference_step(s, h[13]))
        a2 = add_node(a, h[14])                 # a is still at its fill level
        b2 = add_node(b, h[15])
        for name, want in kept.items():
            assert np.array_equal(getattr(a, name), want), name
        assert_same_state(a2, reference_step(a, h[14]))
        assert_same_state(b2, reference_step(b, h[15]))

    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_chain_appends_in_place(self, kind):
        # only a step that grows the store's capacity may leave its parent's buffers
        h, y = self.rows()
        st = init_solver(kind, h[0], y, 0.1)
        names = ["H", "L", "D"] if kind is AlgorithmKind.ALG3 else ["H"]
        copies = 0
        for l in range(1, 1 + self.STEPS):
            child = add_node(st, h[l])
            shared = [np.shares_memory(getattr(child, n), getattr(st, n)) for n in names]
            assert all(shared) or not any(shared), f"l={l}: {dict(zip(names, shared))}"
            copies += not shared[0]
            st = child
        assert copies <= 7

    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_dropped_chain_freed_without_cyclic_gc(self, kind):
        h, y = self.rows()
        gc.disable()
        try:
            st = init_solver(kind, h[0], y, 0.1)
            for l in range(1, 13):
                st = add_node(st, h[l])
            last = weakref.ref(st)
            del st
            assert last() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_pickled_state_steps_as_the_original(self, kind):
        h, y = self.rows()
        s = self.start(kind, h, y, 1)
        for l in range(1, 6):
            s = add_node(s, h[l])
        for r in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
            assert_same_state(r, s)
            assert_same_state(add_node(r, h[6]), reference_step(s, h[6]))
        assert_same_state(add_node(s, h[6]), reference_step(s, h[6]))

    @pytest.mark.parametrize("l0", [1, 6])
    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_caller_rows_never_written(self, kind, l0):
        # the caller's rows sit in a larger array; new rows come from elsewhere
        h, y = self.rows()
        new_rows, _ = self.rows(seed=22)
        before = h.copy()
        states = [self.start(kind, h[:l0] if l0 > 1 else h, y, l0)]
        for l in range(l0, l0 + 10):
            states.append(add_node(states[-1], new_rows[l]))
        assert np.array_equal(h, before)
        for st in states:
            for name, a in arrays(st).items():
                assert not np.shares_memory(a, h[l0:]), f"{name} at l={st.l}"

    @pytest.mark.parametrize("kind,name", [
        (AlgorithmKind.ALG1, "H"), (AlgorithmKind.ALG2, "H"),
        (AlgorithmKind.ALG3, "H"), (AlgorithmKind.ALG3, "L"), (AlgorithmKind.ALG3, "D"),
    ])
    def test_replaced_field_steps_correctly(self, kind, name):
        h, y = self.rows()
        s = self.start(kind, h, y, 1)
        for l in range(1, 10):
            s = add_node(s, h[l])
        changed = getattr(s, name).copy()
        if name == "L":
            changed[0, -1] *= 1.0 + 1e-3        # a different but still valid state
        elif name == "D":
            changed *= 1.0 + 1e-3
        r = replace(s, **{name: changed})
        stepped = add_node(r, h[10])
        assert_same_state(stepped, reference_step(r, h[10]))
        assert np.array_equal(getattr(r, name), changed)
        # the original still owns its buffers and steps as before
        assert_same_state(add_node(s, h[10]), reference_step(s, h[10]))
