"""The paper's three-step sort-based load balancer (Section 3.5).

Execution time per window is governed by the *maximum* nonzero count over
its rows and column segments (Eq. 1), so imbalance — not total work — costs
cycles.  The balancer:

* **Step 1** sorts matrix rows by nonzero count, grouping similarly heavy
  rows into the same windows.
* **Step 2** sorts, per window, the columns by their nonzero count within
  that window.
* **Step 3** deals the sorted columns into the ``l`` multipliers in
  alternating ("snake") order — the paper's "for even column segments,
  reverse the order" — so the heavy columns of one dealing round line up
  against the light columns of the next and per-multiplier loads even out.

Steps 2-3 are pure scheduling metadata: they decide which multiplier each
column feeds within a window and are realized through ``Col_sch`` — no data
is physically moved.  Step 1 is a real row permutation, which the pipeline
inverts on the output vector.  Reproducing the paper's Figure 6 example:
the 4x4 matrix costs 7 cycles unbalanced and 5 balanced
(``tests/core/test_load_balance.py``).

All three steps are vectorized over the whole matrix.  Step 1 sorts the
``m`` row counts, then moves each row's block of entries with one O(nnz)
gather (:meth:`~repro.sparse.coo.CooMatrix.row_order`) — the input is
canonical, so no entry-level sort — and keeps that gather as the
original-to-balanced value order the schedule cache refreshes through.
Steps 2-3 run as one sort/run-length pass over every (window, column)
pair, which yields both the flat per-window column maps the artifact
persists and every entry's multiplier lane, the array the scheduler
colors against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.coo import CooMatrix
from repro.sparse.stats import require_positive_length, window_count


@dataclass(frozen=True)
class BalancedMatrix:
    """Result of load balancing.

    Attributes:
        matrix: the row-permuted matrix to schedule.
        row_perm: ``row_perm[i]`` is the new position of original row ``i``
            (so ``y_original[i] = y_permuted[row_perm[i]]``).
        lanes: the multiplier lane of every entry of ``matrix`` (aligned
            with its canonical order) — each entry's column segment.
        map_cols / map_lanes: the per-window column maps, flattened: window
            ``w`` owns ``map_cols[map_offsets[w]:map_offsets[w + 1]]``
            (ascending columns) and the lanes dealt to them.  Columns
            absent from a window's map default to ``col mod l``.
        map_offsets: ``windows + 1`` offsets delimiting each window's map.
        data_order: the original-order -> balanced-order value gather
            (``matrix.data == original.data[data_order]``), or ``None``
            when the original matrix is not known (a balanced matrix read
            back from an artifact).
    """

    matrix: CooMatrix
    row_perm: np.ndarray
    lanes: np.ndarray
    map_cols: np.ndarray
    map_lanes: np.ndarray
    map_offsets: np.ndarray
    data_order: np.ndarray | None = None

    def colseg_of(self, window: int, cols: np.ndarray, length: int) -> np.ndarray:
        """Multiplier lane for each original column index in ``window``."""
        cols = np.asarray(cols, dtype=np.int64)
        lo, hi = int(self.map_offsets[window]), int(self.map_offsets[window + 1])
        mapped_cols = self.map_cols[lo:hi]
        lanes = self.map_lanes[lo:hi]
        base = cols % length
        if mapped_cols.size == 0 or cols.size == 0:
            return base
        positions = np.searchsorted(mapped_cols, cols)
        positions = np.minimum(positions, mapped_cols.size - 1)
        hit = mapped_cols[positions] == cols
        return np.where(hit, lanes[positions], base)

    def unpermute_output(self, y_permuted: np.ndarray) -> np.ndarray:
        """Map the permuted output vector back to original row order."""
        return y_permuted[self.row_perm]

    def color_lower_bounds(self, length: int) -> list[int]:
        """Per-window Eq. (1) color lower bounds, as scheduled.

        The max bipartite degree of each window graph with this balancer's
        column-to-multiplier assignment applied.  Any proper coloring needs
        at least this many colors.
        """
        matrix = self.matrix
        m, _ = matrix.shape
        windows = window_count(m, length)
        if windows == 0:
            return []
        if matrix.nnz == 0:
            return [0] * windows
        window_ids = matrix.rows // length
        local_rows = matrix.rows % length
        row_deg = np.bincount(
            window_ids * length + local_rows, minlength=windows * length
        ).reshape(windows, length)
        seg_deg = np.bincount(
            window_ids * length + self.lanes, minlength=windows * length
        ).reshape(windows, length)
        bounds = np.maximum(row_deg.max(axis=1), seg_deg.max(axis=1))
        return [int(b) for b in bounds]


class LoadBalancer:
    """Applies the three-step balancing for a given accelerator length."""

    def __init__(self, length: int):
        require_positive_length(length)
        self.length = length

    def balance(self, matrix: CooMatrix) -> BalancedMatrix:
        """Run steps 1-3 and return the permuted matrix plus metadata."""
        length = self.length
        m, n = matrix.shape

        # Step 1: stable-sort rows by nonzero count (descending), so heavy
        # rows share windows with other heavy rows, then move each row's
        # block of entries to its new position.
        counts = matrix.row_counts()
        order = np.argsort(-counts, kind="stable")
        row_perm = np.empty(m, dtype=np.int64)
        row_perm[order] = np.arange(m, dtype=np.int64)
        data_order = matrix.row_order(row_perm)
        permuted = CooMatrix(
            rows=np.repeat(np.arange(m, dtype=np.int64), counts[order]),
            cols=matrix.cols[data_order],
            data=matrix.data[data_order],
            shape=matrix.shape,
        )

        # Steps 2-3, every window at once.
        windows = window_count(m, length)
        lanes, map_cols, map_lanes, map_offsets = self._window_maps(
            permuted, windows, n
        )
        return BalancedMatrix(
            matrix=permuted,
            row_perm=row_perm,
            lanes=lanes,
            map_cols=map_cols,
            map_lanes=map_lanes,
            map_offsets=map_offsets,
            data_order=data_order,
        )

    def _window_maps(
        self, permuted: CooMatrix, windows: int, n: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-entry lanes and the flat (cols, lanes, offsets) window maps."""
        length = self.length
        nnz = permuted.nnz
        if nnz == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty, np.zeros(windows + 1, dtype=np.int64)

        # Unique (window, column) pairs with counts: group the entries by
        # their window*n + col key.
        pair_key = (permuted.rows // length) * np.int64(n) + permuted.cols
        by_pair = np.argsort(pair_key, kind="stable")
        sorted_key = pair_key[by_pair]
        firsts = np.empty(nnz, dtype=bool)
        firsts[0] = True
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=firsts[1:])
        unique_key = sorted_key[firsts]
        col_counts = np.diff(np.append(np.flatnonzero(firsts), nnz))
        win_of_unique, col_of_unique = np.divmod(unique_key, n)

        # Per window: order by descending count, ties by ascending column.
        # The unique keys are column-ascending inside a window and a column
        # occurs at most ``length`` times in one, so a stable sort on
        # (window, length - count) is that order.
        load_key = win_of_unique * (length + 1) + (length - col_counts)
        by_load = np.argsort(load_key, kind="stable")
        window_starts = np.searchsorted(
            win_of_unique, np.arange(windows + 1, dtype=np.int64)
        )
        rank = (
            np.arange(by_load.size, dtype=np.int64)
            - window_starts[win_of_unique[by_load]]
        )
        map_lanes = np.empty(by_load.size, dtype=np.int64)
        map_lanes[by_load] = _snake_deal_ranks(rank, length)

        lanes = np.empty(nnz, dtype=np.int64)
        lanes[by_pair] = map_lanes[np.cumsum(firsts) - 1]
        return lanes, col_of_unique, map_lanes, window_starts


def _snake_deal_ranks(ranks: np.ndarray, length: int) -> np.ndarray:
    """Lane for each dealing rank, snake-wise into ``length`` lanes: round 0
    left-to-right, round 1 right-to-left, and so on."""
    rounds, offsets = np.divmod(ranks, length)
    return np.where(rounds & 1, length - 1 - offsets, offsets)


def identity_balance(matrix: CooMatrix, length: int) -> BalancedMatrix:
    """A no-op :class:`BalancedMatrix` (used when load balancing is off)."""
    require_positive_length(length)
    m, _ = matrix.shape
    empty = np.zeros(0, dtype=np.int64)
    return BalancedMatrix(
        matrix=matrix,
        row_perm=np.arange(m, dtype=np.int64),
        lanes=matrix.cols % length,
        map_cols=empty,
        map_lanes=empty,
        map_offsets=np.zeros(window_count(m, length) + 1, dtype=np.int64),
        data_order=np.arange(matrix.nnz, dtype=np.int64),
    )
