"""Property-based contracts for every edge-coloring engine.

Random window multigraphs (``tests/strategies.window_graphs``) drive all
three engines through the invariants the scheduler's correctness rests on:

* **properness/completeness** — no two edges sharing a row (adder) or a
  column segment (multiplier) take one color, and no edge is left
  uncolored: exactly Section 3.3's collision-freedom condition;
* **palette bounds** — every engine needs at least Delta colors (Eq. 1);
  "euler" attains Delta exactly (König's theorem), while the greedy
  engines stay within the classic first-fit bound 2*Delta - 1 (bipartite
  multigraphs sit on the Vizing/Shannon boundary, so the optimum itself is
  Delta — the greedy bound is what the paper trades for speed);
* **oracle agreement** — each engine reproduces the frozen seed
  implementation in :mod:`repro.graph._reference` edge for edge, so any
  behavioral drift in a future optimization is caught at the color level,
  not just the count level.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.load_balance import identity_balance
from repro.core.naive import naive_coloring_flat, naive_stalls_flat
from repro.graph._reference import (
    REFERENCE_ALGORITHMS,
    reference_naive_coloring,
    reference_naive_stalls,
    reference_window_graphs,
)
from repro.graph.edge_coloring import (
    _HAS_BITWISE_COUNT,
    ALGORITHMS,
    _first_fit_flat_bitmask,
    color_edges,
    euler_coloring_flat,
    first_fit_coloring_flat,
)
from repro.graph.properties import (
    color_count,
    max_bipartite_degree,
    validate_coloring,
)
from tests.strategies import coo_matrices, window_graphs

ENGINES = sorted(ALGORITHMS)


def _flat_partition(matrix, length):
    """Flat multi-window edge arrays for an identity-balanced matrix."""
    balanced = identity_balance(matrix, length)
    m, _ = matrix.shape
    n_windows = max(1, -(-m // length))
    window_ids = (
        matrix.rows // length
        if matrix.nnz
        else np.zeros(0, dtype=np.int64)
    )
    local_rows = (
        matrix.rows % length if matrix.nnz else np.zeros(0, dtype=np.int64)
    )
    colsegs = balanced.lanes
    window_starts = np.searchsorted(
        window_ids, np.arange(n_windows + 1, dtype=np.int64)
    )
    return balanced, n_windows, window_ids, window_starts, local_rows, colsegs


def _adversarial_matrix(length=8, giant_edges=160, trailing_windows=6):
    """One giant window, a run of empty windows, and a one-edge straggler.

    The shape the flat kernels are most likely to get wrong: per-window
    state must not bleed across a giant/empty/singleton mix, and empty
    windows must neither consume rounds nor shift serialization ranks.
    """
    rng = np.random.default_rng(99)
    total = length * 32
    flat = rng.choice(total, size=giant_edges, replace=False)
    rows, cols = np.divmod(flat, 32)
    last_row = length * trailing_windows - 1
    rows = np.concatenate([rows, [last_row]])
    cols = np.concatenate([cols, [5]])
    values = np.arange(1.0, rows.size + 1.0)
    from repro import CooMatrix

    return CooMatrix.from_arrays(rows, cols, values, (last_row + 1, 32))


class TestProperness:
    @pytest.mark.parametrize("engine", ENGINES)
    @given(graph=window_graphs())
    @settings(max_examples=60, deadline=None)
    def test_coloring_is_proper_and_complete(self, engine, graph):
        colors = color_edges(graph, engine)
        assert colors.shape == (graph.edge_count,)
        assert colors.dtype == np.int64
        validate_coloring(graph, colors)

    @pytest.mark.parametrize("engine", ENGINES)
    @given(graph=window_graphs(max_length=4, max_edges=10))
    @settings(max_examples=40, deadline=None)
    def test_small_graphs_brute_properness(self, engine, graph):
        """Independent re-check without validate_coloring: every (row,
        color) and (seg, color) pair is used at most once."""
        colors = color_edges(graph, engine)
        seen_row, seen_seg = set(), set()
        for row, seg, color in zip(graph.local_rows, graph.colsegs, colors):
            assert color >= 0
            assert (int(row), int(color)) not in seen_row
            assert (int(seg), int(color)) not in seen_seg
            seen_row.add((int(row), int(color)))
            seen_seg.add((int(seg), int(color)))


class TestPaletteBounds:
    @pytest.mark.parametrize("engine", ENGINES)
    @given(graph=window_graphs())
    @settings(max_examples=60, deadline=None)
    def test_at_least_delta(self, graph, engine):
        """Eq. (1): no proper coloring can use fewer than Delta colors."""
        colors = color_edges(graph, engine)
        assert color_count(colors) >= max_bipartite_degree(graph)

    @given(graph=window_graphs())
    @settings(max_examples=60, deadline=None)
    def test_euler_attains_koenig_optimum(self, graph):
        """König: a bipartite multigraph is Delta-edge-chromatic, and the
        matching-peel construction must attain it exactly."""
        colors = color_edges(graph, "euler")
        assert color_count(colors) == max_bipartite_degree(graph)

    @pytest.mark.parametrize("engine", ["matching", "first_fit"])
    @given(graph=window_graphs())
    @settings(max_examples=60, deadline=None)
    def test_greedy_engines_within_two_delta(self, graph, engine):
        """The greedy engines stay within 2*Delta - 1 (first-fit/Shannon
        bound); colors are also trivially capped by the edge count."""
        colors = color_edges(graph, engine)
        delta = max_bipartite_degree(graph)
        bound = max(2 * delta - 1, 0)
        assert color_count(colors) <= min(bound, graph.edge_count)


class TestOracleAgreement:
    @pytest.mark.parametrize("engine", ENGINES)
    @given(graph=window_graphs())
    @settings(max_examples=60, deadline=None)
    def test_edge_for_edge_against_frozen_seed(self, engine, graph):
        live = color_edges(graph, engine)
        oracle = REFERENCE_ALGORITHMS[engine](graph)
        np.testing.assert_array_equal(live, oracle)

    def test_every_engine_has_a_frozen_oracle(self):
        assert set(REFERENCE_ALGORITHMS) == set(ALGORITHMS)


class TestFlatNaiveKernel:
    """The multi-window naive kernel against the frozen per-window seed."""

    @given(matrix=coo_matrices(), length=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_oracle_agreement_and_stalls(self, matrix, length):
        balanced, n_windows, window_ids, starts, local_rows, colsegs = (
            _flat_partition(matrix, length)
        )
        flat = naive_coloring_flat(
            local_rows, colsegs, window_ids, length, n_windows
        )
        stalls = naive_stalls_flat(
            flat, colsegs, window_ids, length, n_windows
        )
        graphs = reference_window_graphs(balanced, length)
        expected_stalls = 0
        for graph, lo, hi in zip(graphs, starts[:-1], starts[1:]):
            oracle = reference_naive_coloring(graph)
            np.testing.assert_array_equal(flat[lo:hi], oracle)
            expected_stalls += reference_naive_stalls(graph, oracle)
        assert stalls == expected_stalls

    @given(matrix=coo_matrices(), length=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_properness(self, matrix, length):
        """A naive schedule is a proper coloring: collision-free heads have
        distinct rows, serialized elements occupy private cycles."""
        balanced, n_windows, window_ids, starts, local_rows, colsegs = (
            _flat_partition(matrix, length)
        )
        flat = naive_coloring_flat(
            local_rows, colsegs, window_ids, length, n_windows
        )
        for graph, lo, hi in zip(
            reference_window_graphs(balanced, length), starts[:-1], starts[1:]
        ):
            if graph.edge_count:
                validate_coloring(graph, flat[lo:hi])

    def test_adversarial_giant_plus_empty_windows(self):
        matrix = _adversarial_matrix()
        length = 8
        balanced, n_windows, window_ids, starts, local_rows, colsegs = (
            _flat_partition(matrix, length)
        )
        assert n_windows == 6  # giant, four empty, one single-edge
        flat = naive_coloring_flat(
            local_rows, colsegs, window_ids, length, n_windows
        )
        graphs = reference_window_graphs(balanced, length)
        assert graphs[0].edge_count > 100
        assert [g.edge_count for g in graphs[1:-1]] == [0] * (n_windows - 2)
        assert graphs[-1].edge_count == 1
        for graph, lo, hi in zip(graphs, starts[:-1], starts[1:]):
            np.testing.assert_array_equal(
                flat[lo:hi], reference_naive_coloring(graph)
            )
        # The straggler window's lone edge issues at its own cycle 0.
        assert flat[-1] == 0


class TestFlatEulerKernel:
    """The vectorized euler partition walk across adversarial windows."""

    def test_adversarial_giant_plus_empty_windows(self):
        matrix = _adversarial_matrix()
        length = 8
        balanced, _, _, starts, _, _ = _flat_partition(matrix, length)
        for graph in reference_window_graphs(balanced, length):
            live = color_edges(graph, "euler")
            np.testing.assert_array_equal(
                live, REFERENCE_ALGORITHMS["euler"](graph)
            )
            if graph.edge_count:
                validate_coloring(graph, live)
                assert color_count(live) == max_bipartite_degree(graph)

    def test_flat_multiwindow_matches_per_window_oracle(self):
        """One euler_coloring_flat call across the adversarial partition
        (giant dense window, empty windows, trailing singletons) must equal
        the frozen per-window seed edge-for-edge — the windows regularize
        to very different degrees, so the shared matching passes must peel
        each window's colors without cross-talk."""
        matrix = _adversarial_matrix()
        length = 8
        balanced, n_windows, window_ids, starts, local_rows, colsegs = (
            _flat_partition(matrix, length)
        )
        flat = euler_coloring_flat(
            local_rows, colsegs, window_ids, length, n_windows
        )
        assert flat.size == matrix.nnz
        for graph, lo, hi in zip(
            reference_window_graphs(balanced, length), starts[:-1], starts[1:]
        ):
            np.testing.assert_array_equal(
                flat[lo:hi], REFERENCE_ALGORITHMS["euler"](graph)
            )
            if graph.edge_count:
                assert (
                    color_count(flat[lo:hi]) == max_bipartite_degree(graph)
                )


@pytest.mark.skipif(
    not _HAS_BITWISE_COUNT, reason="np.bitwise_count requires NumPy >= 2.0"
)
class TestBitmaskFirstFit:
    """The uint64 fast path against the boolean-table kernel and the seed."""

    @given(matrix=coo_matrices(), length=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_bitmask_matches_oracle(self, matrix, length):
        _, n_windows, window_ids, starts, local_rows, colsegs = (
            _flat_partition(matrix, length)
        )
        if matrix.nnz == 0:
            return
        bitmask = _first_fit_flat_bitmask(
            local_rows, colsegs, window_ids, length, starts,
            n_windows * length,
        )
        balanced = identity_balance(matrix, length)
        for graph, lo, hi in zip(
            reference_window_graphs(balanced, length), starts[:-1], starts[1:]
        ):
            np.testing.assert_array_equal(
                bitmask[lo:hi], REFERENCE_ALGORITHMS["first_fit"](graph)
            )

    def test_adversarial_giant_plus_empty_windows(self):
        matrix = _adversarial_matrix()
        length = 8
        _, n_windows, window_ids, starts, local_rows, colsegs = (
            _flat_partition(matrix, length)
        )
        via_dispatch = first_fit_coloring_flat(
            local_rows, colsegs, window_ids, length, n_windows, starts
        )
        direct = _first_fit_flat_bitmask(
            local_rows, colsegs, window_ids, length, starts,
            n_windows * length,
        )
        np.testing.assert_array_equal(via_dispatch, direct)

    def test_dense_hub_window_exceeds_bitmask_palette(self):
        """A >64-palette window must take the boolean/bigint path and still
        match the seed edge-for-edge."""
        from repro import uniform_random

        hub = uniform_random(48, 200, 0.55, seed=17)  # row degrees ~110
        length = 48
        balanced, n_windows, window_ids, starts, local_rows, colsegs = (
            _flat_partition(hub, length)
        )
        row_deg = np.bincount(local_rows).max()
        seg_deg = np.bincount(colsegs).max()
        assert row_deg + seg_deg - 1 > 64
        flat = first_fit_coloring_flat(
            local_rows, colsegs, window_ids, length, n_windows, starts
        )
        (graph,) = reference_window_graphs(balanced, length)
        np.testing.assert_array_equal(
            flat, REFERENCE_ALGORITHMS["first_fit"](graph)
        )
