"""The slot-native compile path against the dense-array derivation.

The scheduler emits each nonzero's (step, lane, source) directly and every
consumer reads those slot arrays.  These tests rebuild the same facts the
long way — materialize the dense M_sch / Row_sch / Col_sch triple, scan it
for occupied slots, join each slot to its matrix entry by (row, col) and
sort the slots by destination row — and require the schedule, the
execution plan and the persisted artifact to match that derivation exactly,
on uniform and skewed matrices, at several lengths, in and out of a
process pool.
"""

import numpy as np
import pytest

from repro import GustPipeline, GustScheduler, LoadBalancer, save_schedule
from repro.core.plan import ExecutionPlan
from repro.core.schedule import EMPTY, Schedule
from repro.sparse.coo import CooMatrix
from repro.sparse.datasets import load_dataset
from repro.sparse.generators import banded, power_law, uniform_random


def _hub_rows(m: int, n: int, seed: int) -> CooMatrix:
    """Sparse background plus three dense rows and one dense column."""
    base = uniform_random(m, n, 0.02, seed=seed)
    hubs = np.random.default_rng(seed).choice(m, size=3, replace=False)
    rows = np.concatenate([base.rows, np.repeat(hubs, n), np.arange(m)])
    cols = np.concatenate(
        [base.cols, np.tile(np.arange(n), hubs.size), np.full(m, n // 2)]
    )
    return CooMatrix.from_arrays(rows, cols, np.ones(rows.size), (m, n))


FAMILIES = {
    "uniform_random": lambda: uniform_random(300, 280, 0.03, seed=1),
    "power_law": lambda: power_law(300, 300, 0.03, seed=2),
    "banded": lambda: banded(300, 300, bandwidth=12, fill=0.7, seed=3),
    "hub_rows": lambda: _hub_rows(300, 300, seed=4),
    "googleplus": lambda: load_dataset("googleplus", scale=1024),
}
LENGTHS = (1, 3, 64, 256)


def _dense_slots(schedule: Schedule, matrix: CooMatrix):
    """(steps, lanes, source) derived from the dense triple alone, in
    destination-row order."""
    occupied = schedule.row_sch != EMPTY
    steps, lanes = np.nonzero(occupied)
    rows = (
        schedule.window_of_timestep()[steps] * schedule.length
        + schedule.row_sch[steps, lanes]
    )
    cols = schedule.col_sch[steps, lanes]
    n = max(1, schedule.shape[1])
    matrix_keys = matrix.rows * np.int64(n) + matrix.cols
    source = np.searchsorted(matrix_keys, rows * np.int64(n) + cols)
    np.testing.assert_array_equal(matrix_keys[source], rows * n + cols)
    order = np.argsort(rows, kind="stable")
    return steps[order], lanes[order], source[order]


def _dense_schedule(schedule: Schedule, matrix: CooMatrix) -> Schedule:
    steps, lanes, source = _dense_slots(schedule, matrix)
    return Schedule(
        length=schedule.length,
        shape=schedule.shape,
        window_colors=schedule.window_colors,
        steps=steps,
        lanes=lanes,
        rows=matrix.rows[source],
        cols=schedule.col_sch[steps, lanes],
        values=schedule.m_sch[steps, lanes],
        source=source,
    )


def _compile(name: str, length: int, jobs: int = 1):
    balanced = LoadBalancer(length).balance(FAMILIES[name]())
    schedule = GustScheduler(length, jobs=jobs).schedule_balanced(balanced)
    return schedule, balanced


def _assert_slot_native_matches_dense(schedule, balanced, tmp_path):
    schedule.validate()
    steps, lanes, source = _dense_slots(schedule, balanced.matrix)
    np.testing.assert_array_equal(schedule.steps, steps)
    np.testing.assert_array_equal(schedule.lanes, lanes)
    np.testing.assert_array_equal(schedule.source, source)

    dense = _dense_schedule(schedule, balanced.matrix)
    plan = ExecutionPlan.from_schedule(schedule, row_perm=balanced.row_perm)
    expected = ExecutionPlan.from_schedule(dense, row_perm=balanced.row_perm)
    for name in (
        "values", "sources", "rows", "seg_starts", "seg_rows", "row_perm",
        "value_source",
    ):
        np.testing.assert_array_equal(
            getattr(plan, name), getattr(expected, name), err_msg=name
        )

    save_schedule(tmp_path / "slots.sched", schedule, balanced)
    save_schedule(tmp_path / "dense.sched", dense, balanced)
    assert (tmp_path / "slots.sched").read_bytes() == (
        tmp_path / "dense.sched"
    ).read_bytes()


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_slots_plan_and_bytes_match_dense_derivation(name, length, tmp_path):
    schedule, balanced = _compile(name, length)
    _assert_slot_native_matches_dense(schedule, balanced, tmp_path)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_process_pool_matches_dense_derivation(name, tmp_path):
    schedule, balanced = _compile(name, 64, jobs=2)
    _assert_slot_native_matches_dense(schedule, balanced, tmp_path)
    serial, _ = _compile(name, 64)
    for field in ("steps", "lanes", "rows", "cols", "values", "source"):
        np.testing.assert_array_equal(
            getattr(schedule, field), getattr(serial, field)
        )


@pytest.mark.parametrize("validate", ["0", "1"])
def test_compile_paths_never_build_dense_arrays(
    validate, tmp_path, monkeypatch, rng
):
    """Cold compile, cache insert, value refresh and warm start (with and
    without load-time validation) all run on the slot arrays."""
    monkeypatch.setenv("GUST_VALIDATE", validate)
    monkeypatch.setattr(
        Schedule,
        "_dense",
        property(lambda self: pytest.fail("dense schedule arrays built")),
    )
    matrix = FAMILIES["power_law"]()
    updated = matrix.with_data(rng.uniform(1.0, 2.0, size=matrix.nnz))
    x = rng.normal(size=matrix.shape[1])

    cold = GustPipeline(64, cache=True, store=tmp_path)
    handle = cold.compile(matrix)
    np.testing.assert_allclose(handle.matvec(x), matrix.matvec(x))
    refreshed = cold.compile(updated)
    assert refreshed.stats.preprocess.notes["cache_refresh"] == 1.0
    np.testing.assert_allclose(refreshed.matvec(x), updated.matvec(x))

    warm = GustPipeline(64, store=tmp_path)
    loaded = warm.compile(updated)
    assert loaded.stats.preprocess.notes["disk_hit"] == 1.0
    np.testing.assert_array_equal(loaded.matvec(x), refreshed.matvec(x))
    schedule, _, _ = warm.preprocess(matrix)
    schedule.validate()
