"""Cross-cutting property-based invariants over the whole stack.

These complement the per-module tests with end-to-end properties that must
hold for *any* input matrix: scheduling is complete and collision-free,
cycle counts respect the Eq. (1) lower bound, the optimal coloring never
loses to the greedy one, and every execution path computes the same
product.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CooMatrix, GustPipeline, GustScheduler, GustSpmm
from repro.core.load_balance import LoadBalancer, identity_balance
from repro.errors import MatrixFormatError
from tests.strategies import coo_matrices

LENGTH = 8


class TestSchedulingInvariants:
    @given(coo_matrices(max_dim=40))
    @settings(max_examples=40, deadline=None)
    def test_cycles_at_least_lower_bound(self, matrix):
        balanced = identity_balance(matrix, LENGTH)
        counts = GustScheduler(LENGTH).color_counts(balanced)
        bounds = balanced.color_lower_bounds(LENGTH)
        assert all(c >= b for c, b in zip(counts, bounds))

    @given(coo_matrices(max_dim=40))
    @settings(max_examples=40, deadline=None)
    def test_euler_never_worse_than_matching(self, matrix):
        balanced = identity_balance(matrix, LENGTH)
        greedy = sum(GustScheduler(LENGTH, "matching").color_counts(balanced))
        optimal = sum(GustScheduler(LENGTH, "euler").color_counts(balanced))
        assert optimal <= greedy

    @given(coo_matrices(max_dim=40))
    @settings(max_examples=40, deadline=None)
    def test_euler_hits_lower_bound_exactly(self, matrix):
        balanced = identity_balance(matrix, LENGTH)
        optimal = GustScheduler(LENGTH, "euler").color_counts(balanced)
        assert optimal == balanced.color_lower_bounds(LENGTH)

    @given(coo_matrices(max_dim=40))
    @settings(max_examples=40, deadline=None)
    def test_naive_never_beats_matching(self, matrix):
        balanced = identity_balance(matrix, LENGTH)
        greedy = sum(GustScheduler(LENGTH, "matching").color_counts(balanced))
        naive = sum(GustScheduler(LENGTH, "naive").color_counts(balanced))
        assert naive >= greedy

    @given(coo_matrices(max_dim=40))
    @settings(max_examples=30, deadline=None)
    def test_utilization_bounded(self, matrix):
        pipeline = GustPipeline(LENGTH)
        report, _ = pipeline.preprocess_stats(matrix)
        assert 0.0 <= report.utilization <= 1.0


class TestBalancingInvariants:
    @given(coo_matrices(max_dim=40))
    @settings(max_examples=30, deadline=None)
    def test_balancing_preserves_product(self, matrix):
        x = np.linspace(-1.0, 1.0, matrix.shape[1])
        plain = GustPipeline(LENGTH, load_balance=False).spmv(matrix, x)
        balanced = GustPipeline(LENGTH, load_balance=True).spmv(matrix, x)
        np.testing.assert_allclose(plain.y, balanced.y, atol=1e-12)

    @given(coo_matrices(max_dim=40))
    @settings(max_examples=30, deadline=None)
    def test_balanced_bounds_never_exceed_identity_on_segments(self, matrix):
        # The balancer's snake dealing minimizes per-window segment maxima
        # heuristically; at minimum it must keep the row-side bound intact
        # (rows only permuted) and never schedule fewer nonzeros.
        balanced = LoadBalancer(LENGTH).balance(matrix)
        assert balanced.matrix.nnz == matrix.nnz

    @given(coo_matrices(max_dim=40))
    @settings(max_examples=30, deadline=None)
    def test_colseg_map_is_window_consistent(self, matrix):
        balanced = LoadBalancer(LENGTH).balance(matrix)
        m = matrix.shape[0]
        window_of_row = (
            balanced.matrix.rows // LENGTH
            if balanced.matrix.nnz
            else np.zeros(0, np.int64)
        )
        windows = -(-m // LENGTH) if m else 0
        for w in range(windows):
            mask = window_of_row == w
            cols = balanced.matrix.cols[mask]
            segs = balanced.colseg_of(w, cols, LENGTH)
            # The per-entry lanes the scheduler colors against are the
            # window maps' lanes.
            np.testing.assert_array_equal(balanced.lanes[mask], segs)
            if segs.size:
                assert segs.min() >= 0
                assert segs.max() < LENGTH
                # Same column, same lane — the map is a function.
                pairs = {}
                for col, seg in zip(cols.tolist(), segs.tolist()):
                    assert pairs.setdefault(col, seg) == seg

    @given(coo_matrices(max_dim=40), st.sampled_from([1, 3, LENGTH]))
    @settings(max_examples=40, deadline=None)
    def test_flat_maps_match_per_window_steps_2_3(self, matrix, length):
        """Steps 2-3 spelled out window by window: count each column,
        order by (count descending, column ascending), deal snake-wise."""
        balanced = LoadBalancer(length).balance(matrix)
        windows = -(-matrix.shape[0] // length)
        assert balanced.map_offsets.shape == (windows + 1,)
        for w in range(windows):
            lo, hi = balanced.map_offsets[w], balanced.map_offsets[w + 1]
            mask = balanced.matrix.rows // length == w
            cols, counts = np.unique(
                balanced.matrix.cols[mask], return_counts=True
            )
            lanes = np.empty(cols.size, dtype=np.int64)
            for rank, k in enumerate(np.lexsort((cols, -counts))):
                dealt, offset = divmod(rank, length)
                lanes[k] = offset if dealt % 2 == 0 else length - 1 - offset
            np.testing.assert_array_equal(balanced.map_cols[lo:hi], cols)
            np.testing.assert_array_equal(balanced.map_lanes[lo:hi], lanes)
            np.testing.assert_array_equal(
                balanced.lanes[mask],
                balanced.colseg_of(w, balanced.matrix.cols[mask], length),
            )

    @given(coo_matrices(max_dim=40))
    @settings(max_examples=30, deadline=None)
    def test_data_order_maps_original_values(self, matrix):
        balanced = LoadBalancer(LENGTH).balance(matrix)
        np.testing.assert_array_equal(
            balanced.matrix.data, matrix.data[balanced.data_order]
        )
        np.testing.assert_array_equal(
            balanced.data_order,
            np.lexsort((matrix.cols, balanced.row_perm[matrix.rows])),
        )


class TestRowPermutation:
    """The sort-free row permutation against re-canonicalizing triplets."""

    @staticmethod
    def _assert_matches_from_arrays(matrix, perm):
        moved = matrix.permute_rows(perm)
        expected = CooMatrix.from_arrays(
            perm[matrix.rows], matrix.cols, matrix.data, matrix.shape
        )
        assert moved == expected
        assert moved.rows.dtype == expected.rows.dtype == np.int64
        order = matrix.row_order(perm)
        np.testing.assert_array_equal(moved.data, matrix.data[order])

    @given(coo_matrices(max_dim=40), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_permutation(self, matrix, seed):
        perm = np.random.default_rng(seed).permutation(matrix.shape[0])
        self._assert_matches_from_arrays(matrix, perm)

    def test_empty_rows_and_reversal(self):
        matrix = CooMatrix.from_arrays(
            [0, 0, 3, 5, 5, 5], [1, 4, 0, 0, 2, 3], np.arange(1.0, 7.0), (7, 5)
        )
        self._assert_matches_from_arrays(matrix, np.arange(7)[::-1].copy())
        self._assert_matches_from_arrays(matrix, np.array([6, 0, 5, 1, 4, 2, 3]))

    def test_no_rows(self):
        self._assert_matches_from_arrays(
            CooMatrix.empty((0, 5)), np.zeros(0, dtype=np.int64)
        )

    def test_single_row(self):
        matrix = CooMatrix.from_arrays([0, 0], [2, 0], [1.0, 2.0], (1, 3))
        self._assert_matches_from_arrays(matrix, np.array([0]))

    @pytest.mark.parametrize(
        "perm", [[0, 0, 1], [0, 1], [0, 1, 3], [-1, 0, 1]]
    )
    def test_rejects_non_permutations(self, perm):
        matrix = CooMatrix.from_arrays([0, 2], [1, 1], [1.0, 2.0], (3, 3))
        with pytest.raises(MatrixFormatError, match="permutation"):
            matrix.permute_rows(np.array(perm))
        with pytest.raises(MatrixFormatError, match="permutation"):
            matrix.row_order(np.array(perm))


class TestExecutionAgreement:
    @given(coo_matrices(max_dim=32))
    @settings(max_examples=20, deadline=None)
    def test_replay_machine_and_oracle_agree(self, matrix):
        pipeline = GustPipeline(LENGTH, validate=True)
        schedule, balanced, _ = pipeline.preprocess(matrix)
        x = np.linspace(0.5, 1.5, matrix.shape[1])
        fast = pipeline.execute(schedule, balanced, x)
        slow, machine = pipeline.execute_cycle_accurate(schedule, balanced, x)
        oracle = matrix.matvec(x)
        np.testing.assert_allclose(fast, oracle, atol=1e-12)
        np.testing.assert_allclose(slow, oracle, atol=1e-12)
        assert machine.cycles == schedule.execution_cycles

    @given(coo_matrices(max_dim=24, min_dim=2))
    @settings(max_examples=15, deadline=None)
    def test_spmm_consistent_with_columnwise_spmv(self, matrix):
        engine = GustSpmm(LENGTH)
        dense = np.stack(
            [
                np.linspace(0.0, 1.0, matrix.shape[1]),
                np.linspace(1.0, -1.0, matrix.shape[1]),
            ],
            axis=1,
        )
        result = engine.spmm(matrix, dense)
        for j in range(2):
            np.testing.assert_allclose(
                result.y[:, j], matrix.matvec(dense[:, j]), atol=1e-12
            )
