"""Tests for the Schedule container and its validation."""

from dataclasses import replace

import numpy as np
import pytest

from repro import GustScheduler, uniform_random
from repro.core.schedule import EMPTY, PIPELINE_FILL_CYCLES, Schedule
from repro.errors import ScheduleError


@pytest.fixture
def schedule(square_matrix):
    return GustScheduler(32, validate=True).schedule(square_matrix)


class TestSizes:
    def test_totals(self, schedule, square_matrix):
        assert schedule.total_colors == sum(schedule.window_colors)
        assert schedule.nnz == square_matrix.nnz
        assert schedule.window_count == 3
        assert (
            schedule.execution_cycles
            == schedule.total_colors + PIPELINE_FILL_CYCLES
        )

    def test_empty_schedule(self):
        from repro import CooMatrix

        empty = GustScheduler(8).schedule(CooMatrix.empty((4, 4)))
        assert empty.execution_cycles == 0
        assert empty.utilization == 0.0

    def test_utilization_formula(self, schedule):
        expected = schedule.nnz / (schedule.length * schedule.execution_cycles)
        assert schedule.utilization == pytest.approx(expected)

    def test_occupancy_bounds(self, schedule):
        assert 0 < schedule.occupancy <= 1

    def test_window_offsets(self, schedule):
        offsets = schedule.window_offsets()
        assert offsets[0] == 0
        np.testing.assert_array_equal(
            np.diff(offsets), np.asarray(schedule.window_colors[:-1])
        )

    def test_window_of_timestep(self, schedule):
        owners = schedule.window_of_timestep()
        assert owners.shape == (schedule.total_colors,)
        counts = np.bincount(owners, minlength=schedule.window_count)
        assert counts.tolist() == list(schedule.window_colors)


def _hand_built(**overrides) -> Schedule:
    """A valid 4x4 schedule at l = 2, built slot by slot.

    Window 0 (rows 0-1) owns timesteps 0-1, window 1 (rows 2-3) owns
    timesteps 2-3; slots are listed by row, then timestep.
    """
    fields = {
        "length": 2,
        "shape": (4, 4),
        "window_colors": (2, 2),
        "steps": np.array([0, 1, 1, 2, 3]),
        "lanes": np.array([0, 1, 0, 0, 1]),
        "rows": np.array([0, 0, 1, 2, 3]),
        "cols": np.array([0, 1, 2, 0, 3]),
        "values": np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        "source": np.arange(5),
    }
    fields.update(overrides)
    return Schedule(**fields)


class TestDenseView:
    def test_dense_arrays_materialize_from_slots(self):
        schedule = _hand_built()
        assert "_dense" not in schedule.__dict__
        np.testing.assert_array_equal(
            schedule.row_sch, [[0, EMPTY], [1, 0], [0, EMPTY], [EMPTY, 1]]
        )
        np.testing.assert_array_equal(
            schedule.col_sch, [[0, EMPTY], [2, 1], [0, EMPTY], [EMPTY, 3]]
        )
        np.testing.assert_array_equal(
            schedule.m_sch, [[1.0, 0.0], [3.0, 2.0], [4.0, 0.0], [0.0, 5.0]]
        )
        assert schedule.occupancy == pytest.approx(5 / 8)

    def test_with_values_keeps_slots(self):
        schedule = _hand_built()
        refreshed = schedule.with_values(schedule.values * 2)
        assert refreshed.steps is schedule.steps
        np.testing.assert_array_equal(refreshed.values, schedule.values * 2)
        with pytest.raises(ScheduleError, match="values"):
            schedule.with_values(np.ones(3))


class TestValidation:
    def test_valid_passes(self, schedule):
        schedule.validate()
        _hand_built().validate()

    def test_validation_leaves_dense_arrays_unbuilt(self, schedule):
        schedule.validate()
        assert "_dense" not in schedule.__dict__

    def test_shape_mismatch(self, schedule):
        bad = replace(schedule, values=schedule.values[:-1])
        with pytest.raises(ScheduleError, match="shape"):
            bad.validate()

    def test_window_colors_mismatch(self, schedule):
        bad = replace(
            schedule,
            window_colors=schedule.window_colors[:-1]
            + (schedule.window_colors[-1] - 1,),
        )
        with pytest.raises(ScheduleError, match="steps out of range"):
            bad.validate()

    def test_negative_window_colors(self):
        with pytest.raises(ScheduleError, match="negative"):
            _hand_built(window_colors=(5, -1)).validate()

    def test_occupancy_disagreement(self, schedule):
        bad = replace(schedule, cols=schedule.cols[1:])
        with pytest.raises(ScheduleError, match="cols"):
            bad.validate()

    def test_duplicate_step_lane(self):
        """Two nonzeros in one slot: the dense form's "value in an empty
        slot" and lost-value cases, stated on the slots."""
        bad = _hand_built(lanes=np.array([0, 1, 1, 0, 1]))
        with pytest.raises(ScheduleError, match="collide"):
            bad.validate()

    def test_colliding_step_row(self):
        bad = _hand_built(rows=np.array([0, 0, 0, 2, 3]))
        with pytest.raises(ScheduleError, match="collision"):
            bad.validate()

    def test_out_of_window_row(self):
        # Row 1 belongs to window 0, but timestep 2 to window 1.
        bad = _hand_built(rows=np.array([0, 0, 1, 1, 3]))
        with pytest.raises(ScheduleError, match="window"):
            bad.validate()

    def test_unsorted_slots(self):
        swap = np.array([0, 1, 3, 2, 4])
        fields = {
            name: getattr(_hand_built(), name)[swap]
            for name in ("steps", "lanes", "rows", "cols", "values", "source")
        }
        with pytest.raises(ScheduleError, match="not sorted"):
            _hand_built(**fields).validate()

    def test_source_not_a_permutation(self):
        bad = _hand_built(source=np.array([0, 0, 2, 3, 4]))
        with pytest.raises(ScheduleError, match="permutation"):
            bad.validate()

    def test_collision_detected(self, schedule):
        # Alias the adders of two slots sharing the busiest timestep.
        step = np.bincount(schedule.steps).argmax()
        first, second = np.flatnonzero(schedule.steps == step)[:2]
        rows = schedule.rows.copy()
        rows[second] = rows[first]
        bad = replace(schedule, rows=rows)
        with pytest.raises(ScheduleError, match="collision"):
            bad.validate()

    @pytest.mark.parametrize(
        "name, bound",
        [("rows", "m"), ("cols", "n"), ("lanes", "length"), ("steps", "total")],
    )
    def test_index_out_of_range(self, schedule, name, bound):
        limit = {
            "m": schedule.shape[0],
            "n": schedule.shape[1],
            "length": schedule.length,
            "total": schedule.total_colors,
        }[bound]
        arr = getattr(schedule, name).copy()
        arr[0] = limit
        with pytest.raises(ScheduleError, match="out of range"):
            replace(schedule, **{name: arr}).validate()

    def test_destination_out_of_range(self, schedule):
        rows = schedule.rows.copy()
        rows[-1] = schedule.shape[0] + 5
        with pytest.raises(ScheduleError, match="out of range"):
            replace(schedule, rows=rows).validate()

    def test_column_out_of_range(self, schedule):
        cols = schedule.cols.copy()
        cols[0] = schedule.shape[1] + 7
        with pytest.raises(ScheduleError, match="out of range"):
            replace(schedule, cols=cols).validate()
