"""The scheduled-matrix storage format: M_sch, Row_sch, Col_sch.

Section 3.3: scheduling produces three l-by-C_total matrices.  ``M_sch``
holds matrix values rearranged and compressed; ``Row_sch`` holds each
element's row mod l (the crossbar destination); ``Col_sch`` holds its
original column (the vector element to multiply with).  "These matrices can
be viewed as a compressed storage format similar to the Coordinate format."

We store exactly that coordinate form: one entry per scheduled nonzero,
giving its slot (timestep ``steps[k]``, multiplier lane ``lanes[k]``), its
destination row, its column, its value and the index of the matrix entry
it came from.  Slots are kept in *destination-row order* — by row, then by
timestep — which is the replay order of
:class:`~repro.core.plan.ExecutionPlan` and the order artifacts persist,
so neither has to sort.

The dense timestep-major arrays of the paper — shape (C_total, l), so
timestep ``t`` is the contiguous slice fed to the multipliers at cycle
``t``, with empty slots carrying ``row == -1`` / ``col == -1`` / value 0 —
are materialized on first access (:attr:`Schedule.m_sch` and friends) for
the cycle-accurate machine, the uncompiled ``legacy-scatter`` replay
baseline and inspection; no compile, cache or compiled replay path reads
them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.errors import ScheduleError

#: Sentinel for unoccupied schedule slots.
EMPTY = -1

#: Pipeline depth: multiplier, crossbar, adder (Section 3.4: "GUST has 3
#: levels", adding 2 cycles of fill to the color count).
PIPELINE_FILL_CYCLES = 2


@dataclass(frozen=True)
class Schedule:
    """A complete collision-free GUST schedule for one matrix.

    Every per-slot array has one entry per scheduled nonzero, in
    destination-row order (row, then timestep).  Index arrays are integer
    arrays of any width: a schedule read back without validation keeps the
    narrow dtypes its artifact stores them in.

    Attributes:
        length: accelerator length ``l``.
        shape: original matrix shape (m, n) *after* any load-balancing row
            permutation (the pipeline tracks the permutation itself).
        window_colors: colors (timesteps) used by each row window; their sum
            is C_total.
        steps: timestep of each slot, in ``[0, C_total)``.
        lanes: multiplier lane of each slot, in ``[0, l)``.
        rows: destination row of each slot (the ``Row_sch`` entry is
            ``rows % l``).
        cols: original column of each slot (the ``Col_sch`` entry).
        values: float64 value of each slot (the ``M_sch`` entry).
        source: index of each slot's entry in the scheduled matrix's
            canonical value stream, so ``values == matrix.data[source]``.
    """

    length: int
    shape: tuple[int, int]
    window_colors: tuple[int, ...]
    steps: np.ndarray
    lanes: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    source: np.ndarray

    # -- sizes -------------------------------------------------------------

    @cached_property
    def total_colors(self) -> int:
        """C_total: timesteps of multiplier input (buffer length)."""
        return int(sum(self.window_colors))

    @property
    def window_count(self) -> int:
        return len(self.window_colors)

    @property
    def nnz(self) -> int:
        """Scheduled nonzeros (occupied slots)."""
        return int(self.steps.size)

    @property
    def execution_cycles(self) -> int:
        """Total cycles: color sum plus pipeline fill (Section 3.4)."""
        if self.nnz == 0:
            return 0
        return self.total_colors + PIPELINE_FILL_CYCLES

    @property
    def utilization(self) -> float:
        """Hardware utilization: NZ ops per cycle per unit (Section 1).

        Each scheduled nonzero occupies one multiplier and one adder for one
        cycle, so the ratio reduces to nnz / (l * cycles).
        """
        cycles = self.execution_cycles
        if cycles == 0:
            return 0.0
        return self.nnz / (self.length * cycles)

    @property
    def occupancy(self) -> float:
        """Fraction of schedule slots occupied (densified-stream quality)."""
        slots = self.total_colors * self.length
        return self.nnz / slots if slots else 0.0

    def window_offsets(self) -> np.ndarray:
        """Start timestep of each window (cumulative color sum)."""
        offsets = np.zeros(self.window_count, dtype=np.int64)
        np.cumsum(self.window_colors[:-1], out=offsets[1:])
        return offsets

    def window_of_timestep(self) -> np.ndarray:
        """Window index owning each timestep (length C_total)."""
        return np.repeat(
            np.arange(self.window_count, dtype=np.int64),
            np.asarray(self.window_colors, dtype=np.int64),
        )

    def with_values(self, values: np.ndarray) -> "Schedule":
        """The same slots carrying new values (Listing 2 without Listing 1)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.values.shape:
            raise ScheduleError(
                f"{values.size} values for a schedule of {self.nnz} slots"
            )
        return replace(self, values=values)

    # -- the paper's dense arrays -------------------------------------------

    @cached_property
    def _dense(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        shape = (self.total_colors, self.length)
        m_sch = np.zeros(shape, dtype=np.float64)
        row_sch = np.full(shape, EMPTY, dtype=np.int64)
        col_sch = np.full(shape, EMPTY, dtype=np.int64)
        try:
            m_sch[self.steps, self.lanes] = self.values
            row_sch[self.steps, self.lanes] = self.rows % self.length
            col_sch[self.steps, self.lanes] = self.cols
        except IndexError as err:
            raise ScheduleError("schedule holds out-of-range slot indices") from err
        return m_sch, row_sch, col_sch

    @property
    def m_sch(self) -> np.ndarray:
        """(C_total, l) float64 — value entering multiplier j at step t."""
        return self._dense[0]

    @property
    def row_sch(self) -> np.ndarray:
        """(C_total, l) int64 — window-local destination adder, or -1."""
        return self._dense[1]

    @property
    def col_sch(self) -> np.ndarray:
        """(C_total, l) int64 — original column index, or -1."""
        return self._dense[2]

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check structural consistency and collision freedom.

        Runs on the slot arrays alone (the dense arrays are never built):
        O(nnz) passes plus one sort of the (step, lane) keys.

        Raises:
            ScheduleError: on mismatched slot arrays, out-of-range indices,
                two nonzeros in one slot, a row outside its timestep's
                window, two elements of one row sharing a timestep, slots
                out of destination-row order, or a source that is not a
                permutation of the matrix entries.
        """
        m, n = self.shape
        length = self.length
        if any(c < 0 for c in self.window_colors):
            raise ScheduleError("negative window color count")
        nnz = self.nnz
        for name in ("steps", "lanes", "rows", "cols", "values", "source"):
            arr = getattr(self, name)
            if arr.shape != (nnz,):
                raise ScheduleError(
                    f"slot array {name} has shape {arr.shape}, expected ({nnz},)"
                )
        if nnz == 0:
            return
        total = self.total_colors
        for name, bound in (
            ("steps", total),
            ("lanes", length),
            ("rows", m),
            ("cols", n),
            ("source", nnz),
        ):
            arr = getattr(self, name)
            if int(arr.min()) < 0 or int(arr.max()) >= bound:
                raise ScheduleError(f"slot {name} out of range [0, {bound})")
        steps = self.steps.astype(np.int64, copy=False)
        rows = self.rows.astype(np.int64, copy=False)

        # No value in an empty slot, no slot holding two: (step, lane) is
        # unique.
        slots = np.sort(steps * length + self.lanes, kind="stable")
        if (slots[1:] == slots[:-1]).any():
            raise ScheduleError(
                "slot coordinates collide: two nonzeros share one (step, lane)"
            )

        # Window containment: each slot's row lies in its timestep's window.
        if (rows // length != self.window_of_timestep()[steps]).any():
            raise ScheduleError("scheduled row outside its timestep's window")

        # Within a window, (step, local row) is unique iff (row, step) is,
        # so one pass over the row-ordered keys checks both collision
        # freedom and the slot order; a failure is told apart by a sort.
        keys = rows * total + steps
        if (keys[1:] <= keys[:-1]).any():
            if np.unique(keys).size != nnz:
                raise ScheduleError(
                    "collision: one adder addressed twice in a cycle"
                )
            raise ScheduleError("slots are not sorted by destination row")

        if np.bincount(self.source, minlength=nnz).max() != 1:
            raise ScheduleError(
                "slot sources are not a permutation of the matrix entries"
            )
