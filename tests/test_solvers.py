"""Tests for the incremental output-weight solvers.

The recurring worked instance: start from h1 = [1, 2], Y = [[3, 0]],
k0sq = 1, then add the row [1, 0].  All frozen fractions below were
cross-checked against the direct solve with R = [[6, 1], [1, 2]].
"""

import copy
import gc
import math
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies

from ifelm import experiments, solvers
from ifelm.data import Dataset, SynthKind, synth_dataset
from ifelm.errors import (
    DomainError,
    NumericalBreakdownError,
    ShapeError,
)
from ifelm.experiments import grow_run
from ifelm.linalg import _BAND, FlopCounter, add_outer, cholesky, row_bands
from ifelm.model import ActivationKind, hidden_matrix, init_random_params
from ifelm.solvers import (
    ALL_INCREMENTAL,
    AlgorithmKind,
    add_node,
    compute_p,
    init_solver,
    solve_direct,
    solve_direct_prefixes,
    step_multiply_adds,
    warm_start,
)

from reference_rules import add_node_q_unsimplified, reference_step

H1 = np.array([1.0, 2.0])
Y1 = np.array([[3.0, 0.0]])
HBAR = np.array([1.0, 0.0])
W2 = np.array([[3 / 11, 15 / 11]])
Q2 = np.array([[2 / 11, -1 / 11], [-1 / 11, 6 / 11]])


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

    # 1e200 is finite but its square is not, and a step divides by c * delta >= k0sq^2;
    # 10**400 has no float at all
    @pytest.mark.parametrize("k0sq", [np.inf, np.nan, -np.inf, 1e200, 10**400])
    def test_k0sq_must_be_finite(self, k0sq):
        with pytest.raises(DomainError):
            solve_direct(np.ones((1, 2)), Y1, k0sq)
        with pytest.raises(DomainError):
            init_solver(AlgorithmKind.ALG3, H1, Y1, k0sq)
        with pytest.raises(DomainError):
            warm_start(AlgorithmKind.ALG2, np.eye(2), Y1, k0sq)

    # float() parses text, which numpy then cannot multiply
    @pytest.mark.parametrize("k0sq", ["0.1", b"0.1", np.str_("0.1"), np.array("0.1")],
                             ids=["str", "bytes", "numpy-str", "0-d-text-array"])
    def test_k0sq_text_rejected(self, k0sq):
        with pytest.raises(DomainError, match="must be a number"):
            solve_direct(np.ones((1, 2)), Y1, k0sq)
        for kind in AlgorithmKind:
            with pytest.raises(DomainError, match="must be a number"):
                warm_start(kind, np.eye(2), Y1, k0sq)

    @pytest.mark.parametrize("k0sq", [1, np.float32(0.5), np.int64(1), np.array(0.5)],
                             ids=["int", "float32", "int64", "0-d-array"])
    def test_k0sq_numbers_solve_as_floats(self, k0sq):
        h = np.array([[1.0, 2.0], [1.0, 0.0]])
        want = solve_direct(h, Y1, float(k0sq))
        assert solve_direct(h, Y1, k0sq).tobytes() == want.tobytes()
        for kind in AlgorithmKind:
            st = warm_start(kind, h, Y1, k0sq)
            assert st.W.tobytes() == want.tobytes()
            assert type(st.k0sq) is float


class TestNonFiniteInput:
    """NaN, inf and overflowing entries raise DomainError at every entry point."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_add_node_rejects_row(self, kind, bad):
        with pytest.raises(DomainError):
            add_node(worked_state(kind), np.array([1.0, bad]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["H", "Y"])
    @pytest.mark.parametrize("entry", [
        lambda h, y: warm_start(AlgorithmKind.ALG3, h, y, 1.0),
        lambda h, y: init_solver(AlgorithmKind.ALG2, h[1], y, 1.0),
        lambda h, y: solve_direct(h, y, 1.0),
        lambda h, y: solve_direct_prefixes(h, y, 1.0, [1, 2]),
    ], ids=["warm_start", "init_solver", "solve_direct", "solve_direct_prefixes"])
    def test_start_and_oracle_reject(self, entry, where, bad):
        h = np.array([[1.0, 2.0], [1.0, 0.0]])
        y = Y1.copy()
        if where == "H":
            h[1, 1] = bad
        else:
            y[0, 1] = bad
        with pytest.raises(DomainError):
            entry(h, y)


class TestComplexInput:
    """A complex k0sq, H, Y or row raises DomainError; none loses its imaginary part."""

    @pytest.mark.parametrize("k0sq", [1 + 0j, np.complex128(0.5), np.array(1j)],
                             ids=["complex", "numpy-complex", "0-d-complex-array"])
    def test_k0sq(self, k0sq):
        with pytest.raises(DomainError, match="complex"):
            solve_direct(np.ones((1, 2)), Y1, k0sq)
        for kind in AlgorithmKind:
            with pytest.raises(DomainError, match="complex"):
                warm_start(kind, np.eye(2), Y1, k0sq)

    @pytest.mark.parametrize("where", ["H", "Y"])
    @pytest.mark.parametrize("entry", [
        lambda h, y: warm_start(AlgorithmKind.ALG3, h, y, 1.0),
        lambda h, y: init_solver(AlgorithmKind.ALG2, h[1], y, 1.0),
        lambda h, y: solve_direct(h, y, 1.0),
        lambda h, y: solve_direct_prefixes(h, y, 1.0, [1, 2]),
    ], ids=["warm_start", "init_solver", "solve_direct", "solve_direct_prefixes"])
    def test_start_and_oracle(self, entry, where):
        h = np.array([[1.0, 2.0], [1.0, 0.0]])
        y = Y1
        if where == "H":
            h = h + 0.5j
        else:
            y = y + 0j
        with pytest.raises(DomainError, match=f"{where} must be real"):
            entry(h, y)

    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_add_node_row(self, kind):
        st = worked_state(kind)
        with pytest.raises(DomainError, match="h_bar must be real"):
            add_node(st, HBAR + 1j)
        child = add_node(st, HBAR)                   # the chain is as it was
        assert child.W.tobytes() == add_node(worked_state(kind), HBAR).W.tobytes()


def cholesky_failing_at(size):
    """`linalg.cholesky`, handed a Gram matrix whose last pivot is negative at `size` rows."""
    def wrapper(r):
        if len(r) == size:
            r = r.copy()
            r[-1, -1] = -1.0
        return cholesky(r)
    return wrapper


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

    @pytest.mark.parametrize("k0sq", [0.0, -1.0, np.inf, np.nan, 1e200, 10**400])
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

    @pytest.mark.parametrize("ls", [[], [0, 2], [1, 3], [2.5]])
    def test_prefix_lengths_in_range(self, ls):
        with pytest.raises(DomainError):
            solve_direct_prefixes(np.ones((2, 2)), Y1, 0.1, ls)

    def test_not_positive_definite_fails_at_the_per_l_pivot(self):
        # hardlim rows repeat, so at k0sq = 1e-14 the Gram loses definiteness
        # in rounding once the node count passes the number of distinct rows
        ds = synth_dataset(SynthKind.SINE_MIXTURE, 50, 8, 2, seed=0)
        params = init_random_params(120, 8, ActivationKind.HARDLIM, 0)
        h = hidden_matrix(params, ds.X)
        with pytest.raises(NumericalBreakdownError) as per_l:
            for l in range(1, 121):
                solve_direct(h[:l], ds.Y, 1e-14)
        with pytest.raises(NumericalBreakdownError) as one_factor:
            solve_direct_prefixes(h, ds.Y, 1e-14, range(1, 121))
        # a node past H's rank, whose exact Schur denominator is ~k0sq; which
        # one rounds below zero follows dpotrf's blocking, so the first prefix
        # to fail (l = 60 with OpenBLAS) may name a node before its last
        assert per_l.value.node_index > np.linalg.matrix_rank(h)
        assert one_factor.value.node_index == per_l.value.node_index


# the three entry points behind the one Gram check, each returning weights
GRAM_ENTRIES = {
    "solve_direct": lambda h, y: solve_direct(h, y, 0.1),
    "solve_direct_prefixes": lambda h, y: solve_direct_prefixes(h, y, 0.1, [len(h)])[len(h)],
    "warm_start": lambda h, y: warm_start(AlgorithmKind.ALG2, h, y, 0.1).W,
}


class TestGramInputs:
    @pytest.mark.parametrize("entry", list(GRAM_ENTRIES))
    def test_lists_solve_as_arrays(self, entry):
        h, y, _, _ = oracle_problem(nodes=8, k=30)
        solve = GRAM_ENTRIES[entry]
        assert np.array_equal(solve(h.tolist(), y.tolist()), solve(h, y))

    @pytest.mark.parametrize("h,y", [
        (np.zeros((0, 5)), np.ones((1, 5))),
        (np.ones((3, 5)), np.ones(5)),
        (np.ones((3, 5)), np.ones((1, 4))),
    ], ids=["empty-H", "1-D-Y", "K-mismatch"])
    @pytest.mark.parametrize("entry", list(GRAM_ENTRIES))
    def test_bad_shapes_raise_shape_error(self, entry, h, y):
        with pytest.raises(ShapeError):
            GRAM_ENTRIES[entry](h, y)


class TestOneSolvePath:
    """Every direct solve calls `solvers.solve_spd`, the module global a tracer rebinds."""

    @staticmethod
    def run_counted(monkeypatch, fn):
        """fn() unwrapped, fn() with solvers.solve_spd wrapped, and the wrapper's call count."""
        plain = fn()
        calls = []
        solve = solvers.solve_spd

        def counting(c, m):
            calls.append(c.shape)
            return solve(c, m)

        monkeypatch.setattr(solvers, "solve_spd", counting)
        counted = fn()
        monkeypatch.undo()
        return plain, counted, len(calls)

    @staticmethod
    def assert_bitwise(got, want):
        a, b = arrays(got), arrays(want)
        assert a.keys() == b.keys()
        for name in a:
            assert a[name].tobytes() == b[name].tobytes(), name

    @pytest.mark.parametrize("l0", [1, 7])
    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_one_per_warm_start(self, monkeypatch, kind, l0):
        h, y, _, _ = oracle_problem(nodes=12, k=40)
        plain, counted, calls = self.run_counted(
            monkeypatch, lambda: warm_start(kind, h[:l0], y, 0.1))
        assert calls == 1
        self.assert_bitwise(counted, plain)
        plain, counted, calls = self.run_counted(
            monkeypatch, lambda: init_solver(kind, h[0], y, 0.1))
        assert calls == 1
        self.assert_bitwise(counted, plain)

    def test_one_per_prefix(self, monkeypatch):
        h, y, _, _ = oracle_problem(nodes=12, k=40)
        ls = [1, 5, 6, 12]
        plain, counted, calls = self.run_counted(
            monkeypatch, lambda: solve_direct_prefixes(h, y, 0.1, ls))
        assert calls == len(ls)
        assert sorted(counted) == ls
        assert all(counted[l].tobytes() == plain[l].tobytes() for l in ls)

    def test_one_per_solve_direct(self, monkeypatch):
        h, y, _, _ = oracle_problem(nodes=12, k=40)
        plain, counted, calls = self.run_counted(monkeypatch, lambda: solve_direct(h, y, 0.1))
        assert calls == 1
        assert counted.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_one_per_baseline_step_none_per_incremental(self, monkeypatch, kind):
        h, y, _, _ = oracle_problem(nodes=12, k=40)
        start = warm_start(kind, h[:5], y, 0.1)
        plain, counted, calls = self.run_counted(monkeypatch, lambda: add_node(start, h[5]))
        assert calls == (kind is AlgorithmKind.BASELINE)
        self.assert_bitwise(counted, plain)


class TestGrowRunOracle:
    def test_checkpoint_error_at_end_is_distance_to_solve_direct(self):
        h, y, ds, params = oracle_problem()
        _, summary = grow_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 60, ALL_INCREMENTAL,
                              seed=5, params=params)
        w_end = solve_direct(h, y, 0.1)
        for kind in ALL_INCREMENTAL:
            state = warm_start(kind, h[:1], y, 0.1)
            for l in range(1, 60):
                state = add_node(state, h[l])
            got = summary["algorithms"][kind.value]["checkpoint_errors"]["60"]
            assert got["weight_error"] == np.linalg.norm(state.W - w_end)
            assert got["output_error"] == np.linalg.norm((state.W - w_end) @ h)

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

    def test_breakdown_ends_the_trace_and_the_summary(self, monkeypatch):
        _, _, ds, params = oracle_problem()
        full, _ = grow_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 10, ALL_INCREMENTAL,
                           seed=5, params=params)

        def add_node_failing_at_7(state, h_bar):
            if state.l + 1 == 7:
                raise NumericalBreakdownError("breakdown at node 7", node_index=7)
            return add_node(state, h_bar)

        monkeypatch.setattr(experiments, "add_node", add_node_failing_at_7)
        traces, summary = grow_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 10, ALL_INCREMENTAL,
                                   seed=5, params=params)
        assert summary["checkpoints"] == [3, 10]
        for kind in ALL_INCREMENTAL:
            records = traces[kind.value].records
            assert [r.l for r in records] == list(range(1, 7))
            entry = summary["algorithms"][kind.value]
            assert list(entry["checkpoint_errors"]) == ["3"]
            at_3 = full[kind.value].records[2]
            assert entry["checkpoint_errors"]["3"] == {"weight_error": at_3.weight_error,
                                                       "output_error": at_3.output_error}
            upto_6 = full[kind.value].records[:6]
            assert entry["max_weight_error"] == max(r.weight_error for r in upto_6)
            assert entry["max_output_error"] == max(r.output_error for r in upto_6)
            assert entry["breakdown"]["node"] == 7

    def test_baseline_breakdown_is_recorded_like_any_rule(self, monkeypatch):
        _, _, ds, params = oracle_problem()
        kinds = [AlgorithmKind.BASELINE, AlgorithmKind.ALG3]
        full, _ = grow_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 10, kinds,
                           seed=5, params=params)
        monkeypatch.setattr(solvers, "cholesky", cholesky_failing_at(7))
        traces, summary = grow_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, 10, kinds,
                                   seed=5, params=params)
        assert [r.l for r in traces["baseline"].records] == list(range(1, 7))
        breakdown = summary["algorithms"]["baseline"]["breakdown"]
        assert breakdown["node"] == 7 and "node 7" in breakdown["reason"]

        def scores(trace):
            return [(r.l, r.weight_error, r.output_error, r.flops) for r in trace.records]
        assert scores(traces["alg3"]) == scores(full["alg3"])
        assert summary["algorithms"]["alg3"]["breakdown"] is None

    # the oracle factors all 10 nodes, every rule's start the first 3
    @pytest.mark.parametrize("size", [3, 10], ids=["start", "oracle"])
    def test_start_or_oracle_breakdown_raises(self, monkeypatch, size):
        _, _, ds, params = oracle_problem()
        monkeypatch.setattr(solvers, "cholesky", cholesky_failing_at(size))
        with pytest.raises(NumericalBreakdownError) as exc:
            grow_run(ds, ActivationKind.GAUSSIAN, 0.1, 3, 10,
                     [AlgorithmKind.BASELINE, AlgorithmKind.ALG3], seed=5, params=params)
        assert exc.value.node_index == size

    @pytest.mark.parametrize("k0sq", ["0.1", b"0.1", np.array("0.1")],
                             ids=["str", "bytes", "0-d-text-array"])
    def test_k0sq_text_rejected(self, k0sq):
        _, _, ds, params = oracle_problem()
        with pytest.raises(DomainError, match="must be a number"):
            grow_run(ds, ActivationKind.GAUSSIAN, k0sq, 1, 5, [AlgorithmKind.ALG3],
                     seed=5, params=params)

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

    def test_complex_row_rejected(self):
        # the float64 cast would drop the imaginary part
        with pytest.raises(DomainError, match="h_bar"):
            compute_p(worked_state(AlgorithmKind.ALG2), [1 + 5j, 0], FlopCounter())

    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_add_node_computes_it_once_per_incremental_step(self, kind, monkeypatch):
        # the frame owns the cross term: tracing times it by rebinding solvers.compute_p
        rng = np.random.default_rng(44)
        rows = rng.uniform(-1, 1, (6, 30))
        y = rng.standard_normal((2, 30))
        st = warm_start(kind, rows[:5], y, 0.1)
        plain = add_node(st, rows[5])
        calls = []

        def counting(state, h_bar, counter):
            calls.append(state)
            return compute_p(state, h_bar, counter)

        monkeypatch.setattr(solvers, "compute_p", counting)
        child = add_node(st, rows[5])
        assert calls == ([] if kind is AlgorithmKind.BASELINE else [st])
        assert np.array_equal(child.W, plain.W)
        assert child.multiply_adds == plain.multiply_adds


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
        st = add_node(worked_state(AlgorithmKind.EXISTING), HBAR)
        assert np.allclose(st.B, [[1 / 11, 5 / 11], [4 / 11, -2 / 11]], rtol=1e-14)
        assert np.allclose(st.W, W2, rtol=1e-14)

    def test_alg1(self):
        st = add_node(worked_state(AlgorithmKind.ALG1), HBAR)
        assert np.allclose(st.B, [[1 / 11, 5 / 11], [4 / 11, -2 / 11]], rtol=1e-14)
        assert np.allclose(st.W, W2, rtol=1e-14)

    def test_alg2(self):
        st = add_node(worked_state(AlgorithmKind.ALG2), HBAR)
        assert np.allclose(st.Q, Q2, rtol=1e-14)
        assert np.allclose(st.W, W2, rtol=1e-14)

    def test_alg3(self):
        st = add_node(worked_state(AlgorithmKind.ALG3), HBAR)
        assert np.allclose(st.L, [[1.0, -1 / 6], [0.0, 1.0]], rtol=1e-14)
        assert np.allclose(st.D, [1 / 6, 6 / 11], rtol=1e-14)
        assert np.allclose(st.L @ np.diag(st.D) @ st.L.T, Q2, rtol=1e-13)
        assert np.allclose(st.W, W2, rtol=1e-14)

    def test_baseline(self):
        st = add_node(worked_state(AlgorithmKind.BASELINE), HBAR)
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
        st = add_node(worked_state(AlgorithmKind.ALG2), np.zeros(2))
        assert st.Q[0, 0] == pytest.approx(1 / 6)
        assert st.Q[1, 1] == pytest.approx(1.0)  # tau = 1/k0sq
        assert st.Q[0, 1] == 0.0

    def test_alg3_grows_identity_column(self):
        st = add_node(worked_state(AlgorithmKind.ALG3), np.zeros(2))
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
        states = {kind: init_solver(kind, rows[0], y, 0.1) for kind in ALL_INCREMENTAL}
        for i in range(1, 100):
            w_base = solve_direct(rows[: i + 1], y, 0.1)
            bound = 1e-8 * (1.0 + np.linalg.norm(w_base))
            for kind in ALL_INCREMENTAL:
                states[kind] = add_node(states[kind], rows[i])
                err = np.linalg.norm(states[kind].W - w_base)
                assert err <= bound, f"{kind} diverged at step {i}: {err:.2e}"

    def test_pairwise_weights_agree(self):
        for _, states in grow_states(list(AlgorithmKind), steps=25):
            base = states[AlgorithmKind.BASELINE].W
            scale = 1.0 + np.linalg.norm(base)
            for kind in ALL_INCREMENTAL:
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
            simp = add_node(simp, rows[i])
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

    @pytest.mark.parametrize("l0", [1, 7, 60])
    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_start_weights_are_the_oracle_solve(self, kind, l0):
        rng = np.random.default_rng(40 + l0)
        rows = rng.uniform(-1, 1, (l0, 80))
        y = rng.standard_normal((3, 80))
        assert np.array_equal(warm_start(kind, rows, y, 0.1).W, solve_direct(rows, y, 0.1))

    def test_each_kind_builds_only_its_state(self):
        rng = np.random.default_rng(41)
        rows = rng.uniform(-1, 1, (9, 40))
        y = rng.standard_normal((2, 40))
        a2 = warm_start(AlgorithmKind.ALG2, rows, y, 0.1)
        assert np.array_equal(a2.Q, a2.Q.T)
        assert a2.B is None
        a3 = warm_start(AlgorithmKind.ALG3, rows, y, 0.1)
        assert a3.Q is None and a3.B is None
        for kind in (AlgorithmKind.EXISTING, AlgorithmKind.ALG1):
            st = warm_start(kind, rows, y, 0.1)
            assert st.Q is None and st.B.shape == (40, 9)
        base = warm_start(AlgorithmKind.BASELINE, rows, y, 0.1)
        assert base.B is None and base.Q is None and base.L is None and base.D is None

    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_rule_name_starts_like_the_enum(self, kind):
        rng = np.random.default_rng(42)
        rows = rng.uniform(-1, 1, (4, 20))
        y = rng.standard_normal((2, 20))
        st = warm_start(kind.value, rows, y, 0.1)
        assert st.kind is kind
        assert_same_state(st, warm_start(kind, rows, y, 0.1))
        one = init_solver(kind.value, rows[0], y, 0.1)
        assert one.kind is kind
        assert_same_state(add_node(one, rows[1]),
                          add_node(init_solver(kind, rows[0], y, 0.1), rows[1]))

    def test_unknown_rule_name_rejected(self):
        with pytest.raises(DomainError) as info:
            AlgorithmKind("nope")
        assert "'nope'" in str(info.value)
        assert all(kind.value in str(info.value) for kind in AlgorithmKind)
        rng = np.random.default_rng(43)
        rows = rng.uniform(-1, 1, (2, 10))
        y = rng.standard_normal((1, 10))
        with pytest.raises(DomainError, match="nope"):
            warm_start("nope", rows, y, 0.1)
        with pytest.raises(DomainError, match="nope"):
            init_solver("nope", rows[0], y, 0.1)


class TestFlopAccounting:
    """Per-step metered counts must equal `step_multiply_adds` exactly.

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

    # K=3001 walks B in three row bands; the count must not depend on them
    @pytest.mark.parametrize("k", [300, 3001])
    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_step_is_the_cost_model(self, kind, k):
        st, h_bar = self.setup_state(kind, k=k)
        got = self.step_cost(st, add_node(st, h_bar))
        assert got == step_multiply_adds(kind, st.l, k, st.Y.shape[0])

    def test_cost_model_at_the_readme_example(self):
        # K=2000, l=500, M=10, with rules named as in warm_start
        got = {kind.value: step_multiply_adds(kind.value, 500, 2000, 10) for kind in AlgorithmKind}
        assert got == {"baseline": 1_024_044_000, "existing": 36_041_000,
                       "alg1": 6_040_000, "alg2": 2_040_000, "alg3": 2_040_000}
        with pytest.raises(DomainError, match="nope"):
            step_multiply_adds("nope", 500, 2000, 10)

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
        traces, _ = grow_run(ds, ActivationKind.GAUSSIAN, 0.1, 1, end,
                             ALL_INCREMENTAL, seed=4)
        for kind in ALL_INCREMENTAL:
            recs = traces[kind.value].records
            assert [r.l for r in recs] == list(range(1, end + 1))
            assert recs[0].flops == 0
            # the record at l is the step from l - 1 nodes
            assert [r.flops for r in recs[1:]] == [step_multiply_adds(kind, l, k, m)
                                                   for l in range(1, end)]


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
        with pytest.raises(NumericalBreakdownError):
            add_node(bad, HBAR)

    def test_breakdown_reports_node_index(self):
        st = worked_state(AlgorithmKind.ALG3)
        bad = replace(st, D=np.array([100.0]))
        with pytest.raises(NumericalBreakdownError) as exc:
            add_node(bad, HBAR)
        assert exc.value.node_index == 2

    @pytest.mark.parametrize("error,name", [(NumericalBreakdownError, "node_index")])
    def test_error_requires_and_pickles_its_index(self, error, name):
        with pytest.raises(TypeError):
            error("no node named")
        back = pickle.loads(pickle.dumps(error("at index 3", **{name: 3})))
        assert (type(back), str(back), getattr(back, name)) == (error, "at index 3", 3)


class TestIdentitySemantics:
    @pytest.mark.parametrize("make", [
        lambda: worked_state(AlgorithmKind.ALG3),
        lambda: init_random_params(4, 3, ActivationKind.GAUSSIAN, 0),
        lambda: synth_dataset(SynthKind.SINE_MIXTURE, 20, 3, 2, seed=0),
    ], ids=["SolverState", "ElmParams", "Dataset"])
    def test_equal_values_compare_and_hash_by_identity(self, make):
        a, b = make(), make()
        assert not a == b and a != b and a == a
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2


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

    At K=1000 the rank-one updates of EXISTING and ALG1 fit in one of
    `row_bands`; the K=3000 chains span two, and ALG2's Q border goes from
    one band to two at l = 361.
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

    # (K, l0, steps); row_bands(361, 362) is [0:360] and [360:361]
    BAND_CHAINS = {AlgorithmKind.EXISTING: (3000, 50, 5), AlgorithmKind.ALG1: (3000, 50, 5),
                   AlgorithmKind.ALG2: (400, 356, 8)}

    @pytest.mark.parametrize("kind", list(BAND_CHAINS))
    def test_chain_across_row_bands_matches_copy_reference_bitwise(self, kind):
        k, l0, steps = self.BAND_CHAINS[kind]
        rng = np.random.default_rng(23)
        h = np.exp(-np.square(rng.uniform(-1, 1, (l0 + steps, k))))
        y = rng.standard_normal((self.M, k))
        st = ref = warm_start(kind, h[:l0], y, 0.1)
        for l in range(l0, l0 + steps):
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

    @pytest.mark.parametrize("kind", ALL_INCREMENTAL)
    def test_failed_in_place_step_leaves_chain_intact(self, kind):
        # the step frame appends h_bar to the store before the rule runs
        rng = np.random.default_rng(31)
        h = rng.uniform(-1, 1, (12, 50))
        y = rng.standard_normal((2, 50))
        owner = init_solver(kind, h[0], y, 1e-14)
        for l in range(1, 11):
            owner = add_node(owner, h[l])
        kept = snapshot(owner)
        with pytest.raises(NumericalBreakdownError):
            add_node(owner, owner.H[3].copy())  # delta ~ 2 k0sq
        child = add_node(owner, h[11])
        assert np.shares_memory(child.H, owner.H)  # the in-place path
        assert_same_state(child, reference_step(owner, h[11]))
        for name, want in kept.items():
            assert np.array_equal(getattr(owner, name), want), name

    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_rejected_row_leaves_chain_intact(self, kind):
        # a non-finite row is rejected before the step frame stores it
        h, y = self.rows()
        owner = init_solver(kind, h[0], y, 0.1)
        for l in range(1, 11):
            owner = add_node(owner, h[l])
        kept = snapshot(owner)
        with pytest.raises(DomainError):
            add_node(owner, np.full(self.K, np.nan))
        child = add_node(owner, h[11])
        assert np.shares_memory(child.H, owner.H)  # the in-place path
        assert_same_state(child, reference_step(owner, h[11]))
        for name, want in kept.items():
            assert np.array_equal(getattr(owner, name), want), name

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


class TestExistingRowBands:
    """EXISTING walks B in row bands; each step must be the reference's, byte for byte.

    `tobytes` tells -0.0 from +0.0, which `np.array_equal` cannot.
    """

    M = 3

    def problem(self, k, rows, m=M, seed=41):
        rng = np.random.default_rng(seed)
        h = np.exp(-np.square(rng.uniform(-1, 1, (rows, k))))
        return h, rng.standard_normal((m, k))

    @staticmethod
    def step(st, ref, h_bar):
        child, want = add_node(st, h_bar), reference_step(ref, h_bar)
        for name in ("H", "W", "B"):
            assert getattr(child, name).tobytes() == getattr(want, name).tobytes(), \
                f"{name} at l={child.l}"
        assert child.multiply_adds - st.multiply_adds == step_multiply_adds(
            AlgorithmKind.EXISTING, st.l, st.sample_count, st.Y.shape[0])
        return child, want

    def test_chain_across_three_bands(self):
        assert [b.stop - b.start for b in row_bands(3001, 100)] == [1304, 1304, 393]
        h, y = self.problem(3001, 104)
        st = ref = warm_start(AlgorithmKind.EXISTING, h[:100], y, 0.1)
        for row in h[100:]:
            st, ref = self.step(st, ref, row)

    def test_one_step_at_chain_benchmark_size(self):
        h, y = self.problem(2000, 501, m=10)
        st = warm_start(AlgorithmKind.EXISTING, h[:500], y, 0.1)
        self.step(st, st, h[500])

    def test_zero_row_makes_every_first_term_entry_a_signed_zero(self):
        # with h_bar = 0, u1 = 0; samples no node sees give zero rows of B, where
        # the new B is the sum of two signed zeros
        h, y = self.problem(3001, 100)
        h[:, ::500] = 0.0
        st = warm_start(AlgorithmKind.EXISTING, h, y, 0.1)
        child, _ = self.step(st, st, np.zeros(3001))
        assert not child.B[::500].any()

    def test_outer_product_into_zeros_rounds_as_the_product(self):
        # the kernel forms v u^T as 0 + v u^T by add_outer, signed zeros included
        v = np.array([-0.0, 0.0, -1.5, 2.0, 1e-300])
        u = np.array([0.0, -0.0, 3.0, -1e-300, -0.25])
        got = add_outer(np.zeros((5, 5)), v, u)
        assert got.tobytes() == (v.reshape(-1, 1) @ u.reshape(1, -1)).tobytes()


class TestBorderedRowBands:
    """`_bordered` walks `row_bands`; its output must be numpy's block form, byte for byte.

    `tobytes` tells the -0.0 entries of col from +0.0, which `np.array_equal` cannot.
    """

    @pytest.mark.parametrize("rows,cols,corner,bands", [
        (2000, 500, False, [256] * 7 + [208]),
        (400, 400, True, [320, 80]),
        (1, 1, True, [1]),
        (2, 3, False, [2]),
        (0, 3, False, []),                  # W of a model with no outputs
    ])
    def test_matches_numpy_block_form(self, rows, cols, corner, bands):
        assert [b.stop - b.start for b in row_bands(rows, cols + 1)] == bands
        rng = np.random.default_rng(rows + cols)
        a = rng.standard_normal((rows, cols))
        col, row = rng.standard_normal(rows), rng.standard_normal(cols)
        col[::3] = -0.0
        top = a + np.outer(col, row)
        if corner:
            tau = float(rng.uniform(1, 2))
            got, want = solvers._bordered(a, col, row, tau), np.block([[top, col[:, None]],
                                                                       [col, tau]])
        else:
            got, want = solvers._bordered(a, col, row), np.hstack([top, col[:, None]])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestStorageHelpers:
    @pytest.mark.parametrize("rows,cols", [(1, 1), (7, 3), (300, 40), (2000, 500),
                                           (3001, 100), (4096, 1 << 14), (20, 20000)])
    def test_row_bands_tile_rows_at_multiples_of_8(self, rows, cols):
        bands = row_bands(rows, cols)
        assert [b.start for b in bands] == [0] + [b.stop for b in bands[:-1]]
        assert bands[-1].stop == rows
        for b in bands:
            assert b.start % 8 == 0 and b.stop > b.start
            assert (b.stop - b.start) * cols <= _BAND or b.stop - b.start <= 8

    @pytest.mark.parametrize("shape", [(2, 3), (255, 256), (256, 256), (2000, 501),
                                       (501, 501), (65537,)])
    def test_fresh_arrays_come_in_whole_blocks(self, shape):
        a = solvers._fresh(shape)
        assert a.shape == shape and a.dtype == np.float64 and a.flags.c_contiguous
        size, block = math.prod(shape), solvers._BLOCK
        if size < block:
            assert a.base is None
        else:
            assert a.base.size % block == 0 and 0 <= a.base.size - size < block


class TestBorderedStepProperty:
    """At small sizes every rule's chain equals the copy reference bitwise.

    Reaches K = 1, M = 1, 1 x 1 Q borders, zero rows and duplicate rows.
    """

    @given(kind=strategies.sampled_from(list(AlgorithmKind)),
           k=strategies.integers(1, 12), m=strategies.integers(1, 3),
           l0=strategies.integers(1, 4), steps=strategies.integers(1, 8),
           k0sq=strategies.sampled_from([1e-2, 0.1, 1.0]),
           zero_step=strategies.none() | strategies.integers(0, 7),
           repeat_first=strategies.booleans(), seed=strategies.integers(0, 2**32 - 1))
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_chain_matches_copy_reference_bitwise(self, kind, k, m, l0, steps, k0sq,
                                                  zero_step, repeat_first, seed):
        rng = np.random.default_rng(seed)
        h = rng.uniform(-1, 1, (l0 + steps, k))
        y = rng.standard_normal((m, k))
        if zero_step is not None and zero_step < steps:
            h[l0 + zero_step] = 0.0
        if repeat_first:
            h[-1] = h[0]                        # the last step adds a row H already has
        if l0 == 1:
            st = ref = init_solver(kind, h[0], y, k0sq)
        else:
            st = ref = warm_start(kind, h[:l0], y, k0sq)
        for row in h[l0:]:
            st, ref = add_node(st, row), reference_step(ref, row)
            assert_same_state(st, ref)
