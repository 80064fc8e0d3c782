"""The vectorized coloring kernels must reproduce the seed implementations.

The frozen pure-Python originals live in :mod:`repro.graph._reference`.
The NumPy batch kernels are required to be *edge-for-edge* identical on
every window (which implies bit-identical color counts), and the flat
multi-window entry points must agree with coloring each window separately.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro import CooMatrix, GustScheduler, LoadBalancer, uniform_random
from repro.core.load_balance import identity_balance
from repro.core.serialize import save_schedule
from repro.errors import ColoringError
from repro.graph._reference import (
    REFERENCE_ALGORITHMS,
    reference_color_counts,
    reference_window_colorings,
    reference_window_graphs,
)
from repro.graph.bipartite import WindowGraph
from repro.graph.edge_coloring import (
    color_edges,
    euler_coloring,
    first_fit_coloring,
    greedy_matching_coloring,
    matching_coloring_flat,
)
from repro.graph.properties import validate_coloring
from repro.sparse.datasets import load_dataset
from repro.sparse.generators import banded, block_diagonal, power_law
from tests.strategies import coo_matrices, window_graphs

VECTORIZED = {
    "matching": greedy_matching_coloring,
    "first_fit": first_fit_coloring,
    "euler": euler_coloring,
}


def _random_suite():
    rng = np.random.default_rng(2024)
    cases = []
    for seed in range(12):
        m = int(rng.integers(1, 200))
        n = int(rng.integers(1, 200))
        density = float(rng.uniform(0.0, 0.25))
        length = int(rng.integers(1, 24))
        cases.append((uniform_random(m, n, density, seed=seed), length))
    return cases


class TestPerWindowEquivalence:
    @pytest.mark.parametrize("name", sorted(VECTORIZED))
    @given(graph=window_graphs())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_seed(self, name, graph):
        seed_colors = REFERENCE_ALGORITHMS[name](graph)
        new_colors = VECTORIZED[name](graph)
        np.testing.assert_array_equal(new_colors, seed_colors)

    @pytest.mark.parametrize("name", sorted(VECTORIZED))
    @given(graph=window_graphs())
    @settings(max_examples=40, deadline=None)
    def test_vectorized_coloring_is_proper(self, name, graph):
        validate_coloring(graph, VECTORIZED[name](graph))


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("name", sorted(VECTORIZED))
    @pytest.mark.parametrize("balance", ["identity", "balanced"])
    def test_randomized_matrices_match_seed(self, name, balance):
        for matrix, length in _random_suite():
            balanced = (
                identity_balance(matrix, length)
                if balance == "identity"
                else LoadBalancer(length).balance(matrix)
            )
            scheduler = GustScheduler(length, algorithm=name)
            counts = scheduler.color_counts(balanced)
            assert counts == reference_color_counts(balanced, length, name)

            # Edge-for-edge: the flat kernel output sliced per window must
            # equal the seed's per-window colorings.
            partition = scheduler._partition(balanced)
            flat = scheduler._color_flat(balanced, partition)
            per_window = reference_window_colorings(balanced, length, name)
            starts = partition.window_starts
            for w, seed_colors in enumerate(per_window):
                np.testing.assert_array_equal(
                    flat[starts[w] : starts[w + 1]], seed_colors
                )

    @pytest.mark.parametrize("name", sorted(VECTORIZED))
    @given(matrix=coo_matrices(max_dim=40))
    @settings(max_examples=25, deadline=None)
    def test_property_counts_match_seed(self, name, matrix):
        balanced = identity_balance(matrix, 8)
        counts = GustScheduler(8, algorithm=name).color_counts(balanced)
        assert counts == reference_color_counts(balanced, 8, name)

    def test_schedules_match_seed_windows(self):
        matrix = uniform_random(96, 96, density=0.08, seed=5)
        balanced = LoadBalancer(16).balance(matrix)
        schedule = GustScheduler(16, algorithm="matching").schedule_balanced(
            balanced
        )
        graphs = reference_window_graphs(balanced, 16)
        seed_counts = tuple(
            int(c.max()) + 1 if c.size else 0
            for c in reference_window_colorings(balanced, 16, "matching")
        )
        assert schedule.window_colors == seed_counts
        assert len(graphs) == schedule.window_count


class TestFirstFitMemoryFallback:
    def test_per_window_fallback_is_identical(self, monkeypatch):
        """Under a tiny table budget first_fit colors window by window;
        the result must be bit-identical to the batched tables."""
        from repro.graph import edge_coloring

        matrix = uniform_random(120, 90, density=0.15, seed=21)
        balanced = identity_balance(matrix, 16)
        scheduler = GustScheduler(16, algorithm="first_fit")
        batched = scheduler.schedule_balanced(balanced)
        monkeypatch.setattr(edge_coloring, "_TABLE_BUDGET", 1)
        fallback = scheduler.schedule_balanced(balanced)
        assert fallback.window_colors == batched.window_colors
        np.testing.assert_array_equal(fallback.row_sch, batched.row_sch)
        np.testing.assert_array_equal(fallback.m_sch, batched.m_sch)


def _hub_rows(m: int, n: int, seed: int) -> CooMatrix:
    """Sparse background plus three fully dense rows and one dense column:
    the hubs drive the round count far past the background's degree."""
    base = uniform_random(m, n, 0.02, seed=seed)
    hubs = np.random.default_rng(seed).choice(m, size=3, replace=False)
    rows = np.concatenate([base.rows, np.repeat(hubs, n), np.arange(m)])
    cols = np.concatenate(
        [base.cols, np.tile(np.arange(n), hubs.size), np.full(m, n // 2)]
    )
    return CooMatrix.from_arrays(rows, cols, np.ones(rows.size), (m, n))


#: Skewed structure beside the uniform suites above: power-law degrees,
#: a band, dense diagonal blocks, hub rows, and a social-graph surrogate.
SKEWED = {
    "power_law": lambda: power_law(300, 300, 0.03, seed=1),
    "banded": lambda: banded(300, 300, bandwidth=12, fill=0.7, seed=2),
    "block_diagonal": lambda: block_diagonal(300, 300, block=40, seed=3),
    "hub_rows": lambda: _hub_rows(300, 300, seed=4),
    "googleplus": lambda: load_dataset("googleplus", scale=1024),
}


def _assert_matches_seed_windows(balanced, length, colors, starts):
    per_window = reference_window_colorings(balanced, length, "matching")
    assert len(per_window) == starts.size - 1
    for w, seed_colors in enumerate(per_window):
        np.testing.assert_array_equal(
            colors[starts[w] : starts[w + 1]], seed_colors
        )


class TestSkewedMatchingEquivalence:
    """The wavefront matching kernel against the seed on skewed matrices,
    at lengths that are 1, odd, not a power of two (87, as fig8 uses) and
    the paper's 256."""

    @pytest.mark.parametrize("length", [1, 3, 87, 256])
    @pytest.mark.parametrize("family", sorted(SKEWED))
    def test_edge_for_edge_identical_to_seed(self, family, length):
        balanced = LoadBalancer(length).balance(SKEWED[family]())
        scheduler = GustScheduler(length, algorithm="matching")
        partition = scheduler._partition(balanced)
        colors = scheduler._color_flat(balanced, partition)
        _assert_matches_seed_windows(
            balanced, length, colors, partition.window_starts
        )

    def test_single_window(self):
        matrix = _hub_rows(80, 200, seed=5)
        balanced = LoadBalancer(87).balance(matrix)
        scheduler = GustScheduler(87, algorithm="matching")
        partition = scheduler._partition(balanced)
        assert partition.windows == 1
        colors = scheduler._color_flat(balanced, partition)
        _assert_matches_seed_windows(
            balanced, 87, colors, partition.window_starts
        )

    def test_empty_windows(self):
        """Windows 1, 2 and 4 of six hold no edges at all."""
        full = power_law(96, 96, 0.1, seed=6)
        keep = np.isin(full.rows // 16, [0, 3, 5])
        matrix = CooMatrix.from_arrays(
            full.rows[keep], full.cols[keep], full.data[keep], full.shape
        )
        balanced = identity_balance(matrix, 16)
        scheduler = GustScheduler(16, algorithm="matching")
        partition = scheduler._partition(balanced)
        assert np.count_nonzero(np.diff(partition.window_starts)) == 3
        colors = scheduler._color_flat(balanced, partition)
        _assert_matches_seed_windows(
            balanced, 16, colors, partition.window_starts
        )

    def test_hub_row_past_int16_rounds(self):
        """A lone 33000-edge row colors one edge per round, in order: more
        rounds than int16 diagonals hold."""
        hub = 33_000
        graph = WindowGraph(
            length=1,
            local_rows=np.zeros(hub, dtype=np.int64),
            colsegs=np.zeros(hub, dtype=np.int64),
            cols=np.zeros(hub, dtype=np.int64),
            values=np.ones(hub),
        )
        np.testing.assert_array_equal(
            greedy_matching_coloring(graph), np.arange(hub)
        )

    def test_jobs_two_byte_identical_to_jobs_one(self, tmp_path):
        balanced = LoadBalancer(87).balance(SKEWED["power_law"]())
        paths = []
        for jobs in (1, 2):
            schedule = GustScheduler(
                87, algorithm="matching", jobs=jobs
            ).schedule_balanced(balanced)
            paths.append(tmp_path / f"jobs{jobs}.sched")
            save_schedule(paths[-1], schedule, balanced)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestMatchingChunkedTables:
    def test_window_chunks_are_identical(self, monkeypatch):
        """Under a tiny table budget the matching sweep colors one window
        at a time; colors and schedules must equal the batched sweep."""
        from repro.graph import edge_coloring

        balanced = LoadBalancer(16).balance(_hub_rows(120, 90, seed=7))
        scheduler = GustScheduler(16, algorithm="matching")
        partition = scheduler._partition(balanced)
        batched_colors = scheduler._color_flat(balanced, partition)
        batched = scheduler.schedule_balanced(balanced)
        monkeypatch.setattr(edge_coloring, "_TABLE_BUDGET", 1)
        chunked_colors = scheduler._color_flat(balanced, partition)
        chunked = scheduler.schedule_balanced(balanced)
        np.testing.assert_array_equal(chunked_colors, batched_colors)
        assert chunked.window_colors == batched.window_colors
        np.testing.assert_array_equal(chunked.row_sch, batched.row_sch)
        np.testing.assert_array_equal(chunked.m_sch, batched.m_sch)


class TestMatchingTermination:
    @pytest.mark.parametrize(
        "local_rows, window_ids, length",
        [
            ([0, 1, 4], [0, 0, 0], 4),  # beside rows that do get colored
            ([5, 5, 5], [0, 1, 1], 3),  # nothing colorable at all
        ],
    )
    def test_rows_past_length_raise_instead_of_spinning(
        self, local_rows, window_ids, length
    ):
        """A local row >= length is never reached by any diagonal."""
        with pytest.raises(ColoringError, match="no progress"):
            matching_coloring_flat(
                np.array(local_rows, dtype=np.int64),
                np.array([0, 1, 2], dtype=np.int64),
                np.array(window_ids, dtype=np.int64),
                length,
                2,
            )


class TestUncoloredConvention:
    def _empty_graph(self):
        return WindowGraph(
            length=4,
            local_rows=np.zeros(0, np.int64),
            colsegs=np.zeros(0, np.int64),
            cols=np.zeros(0, np.int64),
            values=np.zeros(0),
        )

    def test_first_fit_zero_edges_matches_convention(self):
        """Regression: first_fit used to return an uninitialized np.empty."""
        colors = first_fit_coloring(self._empty_graph())
        assert colors.dtype == np.int64
        assert colors.size == 0
        # Same construction path as the other algorithms: a -1-filled array.
        reference = np.full(0, -1, dtype=np.int64)
        np.testing.assert_array_equal(colors, reference)

    def test_color_edges_rejects_incomplete_coloring(self, monkeypatch):
        from repro.graph import edge_coloring

        graph = WindowGraph(
            length=2,
            local_rows=np.array([0], dtype=np.int64),
            colsegs=np.array([1], dtype=np.int64),
            cols=np.array([1], dtype=np.int64),
            values=np.ones(1),
        )
        monkeypatch.setitem(
            edge_coloring.ALGORITHMS,
            "broken",
            lambda g: np.full(g.edge_count, -1, dtype=np.int64),
        )
        with pytest.raises(ColoringError, match="uncolored"):
            color_edges(graph, "broken")

    def test_color_edges_rejects_wrong_shape(self, monkeypatch):
        from repro.graph import edge_coloring

        graph = WindowGraph(
            length=2,
            local_rows=np.array([0, 1], dtype=np.int64),
            colsegs=np.array([0, 1], dtype=np.int64),
            cols=np.array([0, 1], dtype=np.int64),
            values=np.ones(2),
        )
        monkeypatch.setitem(
            edge_coloring.ALGORITHMS,
            "truncated",
            lambda g: np.zeros(1, dtype=np.int64),
        )
        with pytest.raises(ColoringError, match="colors"):
            color_edges(graph, "truncated")
