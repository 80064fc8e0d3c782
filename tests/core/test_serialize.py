"""Tests for schedule persistence: round-trips, integrity, atomicity."""

import os

import numpy as np
import pytest

from repro import (
    GustPipeline,
    load_schedule,
    load_schedule_entry,
    save_schedule,
)
from repro.core.serialize import _load_container, _save_container
from repro.errors import ScheduleError


def _rewrite(path, mutate):
    """Load an artifact, apply ``mutate(scalars, arrays)``, re-save in place.

    Re-saving through the writer recomputes the integrity checksum, so
    this models a *logically* wrong artifact that is nonetheless signed;
    raw-byte corruption (which the checksum must catch) is done on the
    file bytes directly in the tests below.
    """
    scalars, views, _version = _load_container(path)
    arrays = {name: arr.copy() for name, arr in views.items()}
    mutate(scalars, arrays)
    _save_container(path, scalars, arrays)


class TestRoundtrip:
    def test_save_load_execute(self, square_matrix, rng, tmp_path):
        pipeline = GustPipeline(32)
        schedule, balanced, _ = pipeline.preprocess(square_matrix)
        path = tmp_path / "schedule.sched"
        save_schedule(path, schedule, balanced)

        loaded_schedule, loaded_balanced = load_schedule(path)
        assert loaded_schedule.window_colors == schedule.window_colors
        assert loaded_schedule.shape == schedule.shape
        np.testing.assert_array_equal(loaded_schedule.m_sch, schedule.m_sch)
        np.testing.assert_array_equal(loaded_schedule.row_sch, schedule.row_sch)
        np.testing.assert_array_equal(loaded_schedule.col_sch, schedule.col_sch)
        x = rng.normal(size=square_matrix.shape[1])
        y = pipeline.execute(loaded_schedule, loaded_balanced, x)
        np.testing.assert_allclose(y, square_matrix.matvec(x))

    def test_roundtrip_without_load_balancing(self, small_matrix, rng, tmp_path):
        pipeline = GustPipeline(16, load_balance=False)
        schedule, balanced, _ = pipeline.preprocess(small_matrix)
        path = tmp_path / "plain.sched"
        save_schedule(path, schedule, balanced)
        loaded_schedule, loaded_balanced = load_schedule(path)
        x = rng.normal(size=small_matrix.shape[1])
        np.testing.assert_allclose(
            pipeline.execute(loaded_schedule, loaded_balanced, x),
            small_matrix.matvec(x),
        )

    def test_empty_matrix_roundtrip(self, tmp_path):
        from repro import CooMatrix

        pipeline = GustPipeline(8)
        empty = CooMatrix.empty((16, 16))
        schedule, balanced, _ = pipeline.preprocess(empty)
        path = tmp_path / "empty.sched"
        save_schedule(path, schedule, balanced)
        loaded_schedule, _ = load_schedule(path)
        assert loaded_schedule.nnz == 0
        assert loaded_schedule.window_colors == schedule.window_colors

    def test_stalls_metadata_roundtrip(self, square_matrix, tmp_path):
        pipeline = GustPipeline(32, algorithm="naive")
        schedule, balanced, _ = pipeline.preprocess(square_matrix)
        stalls = pipeline.scheduler.last_stalls
        assert stalls > 0
        path = tmp_path / "naive.sched"
        save_schedule(path, schedule, balanced, stalls=stalls)
        entry = load_schedule_entry(path)
        assert entry.stalls == stalls

    def test_window_col_maps_roundtrip_exactly(self, square_matrix, tmp_path):
        """The flat map encoding and every entry's lane come back exactly."""
        pipeline = GustPipeline(32)
        schedule, balanced, _ = pipeline.preprocess(square_matrix)
        path = tmp_path / "maps.sched"
        save_schedule(path, schedule, balanced)
        _, loaded = load_schedule(path)
        for name in ("map_cols", "map_lanes", "map_offsets", "lanes"):
            np.testing.assert_array_equal(
                getattr(loaded, name), getattr(balanced, name)
            )

    def test_slot_join_and_data_order_roundtrip(self, square_matrix, tmp_path):
        """The persisted slots are the schedule's, in its order, and the
        persisted inverse inverts the balancer's value order."""
        pipeline = GustPipeline(32)
        schedule, balanced, _ = pipeline.preprocess(square_matrix)
        order = np.lexsort(
            (square_matrix.cols, balanced.row_perm[square_matrix.rows])
        )
        np.testing.assert_array_equal(balanced.data_order, order)
        path = tmp_path / "joined.sched"
        save_schedule(path, schedule, balanced, data_order=order)
        entry = load_schedule_entry(path)
        for name in ("steps", "lanes", "rows", "cols", "values", "source"):
            np.testing.assert_array_equal(
                getattr(entry.schedule, name), getattr(schedule, name)
            )
        # Only the inverse permutation is persisted; it must invert the
        # data_order the writer was given.
        inverse = np.empty_like(order)
        inverse[order] = np.arange(order.size)
        np.testing.assert_array_equal(entry.inv_order, inverse)

        # Without a data order the artifact carries neither permutation.
        bare = tmp_path / "bare.sched"
        save_schedule(bare, schedule, balanced)
        recomputed = load_schedule_entry(bare)
        np.testing.assert_array_equal(recomputed.schedule.source, schedule.source)
        assert recomputed.balanced.data_order is None
        assert recomputed.inv_order is None

    def test_atomic_write_leaves_no_temporaries(self, square_matrix, tmp_path):
        pipeline = GustPipeline(32)
        schedule, balanced, _ = pipeline.preprocess(square_matrix)
        for _ in range(3):
            save_schedule(tmp_path / "s.sched", schedule, balanced)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.sched"]

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_schedule(tmp_path / "absent.sched")


@pytest.fixture
def saved_schedule(square_matrix, tmp_path):
    pipeline = GustPipeline(32)
    schedule, balanced, _ = pipeline.preprocess(square_matrix)
    path = tmp_path / "schedule.sched"
    save_schedule(path, schedule, balanced)
    return path


class TestTamperResistance:
    def test_logically_corrupt_but_signed_schedule_rejected(self, saved_schedule):
        """A re-signed artifact aliasing two slots onto one adder still
        fails structural validation — the checksum is not the only gate."""

        def alias_destination(scalars, arrays):
            steps = arrays["slot_steps"]
            lanes = arrays["slot_lanes"]
            source = arrays["slot_source"]
            # Route the last slot to slot 0's timestep and destination row
            # via a lane that step leaves free: a unique (step, lane) slot
            # whose (step, row) pair collides with slot 0's adder.
            target = int(steps[0])
            used = set(lanes[steps == target].tolist())
            free = next(
                lane for lane in range(scalars["length"]) if lane not in used
            )
            steps[-1] = target
            lanes[-1] = free
            source[-1] = source[0]
            arrays["slot_rows"][-1] = arrays["slot_rows"][0]

        _rewrite(saved_schedule, alias_destination)
        with pytest.raises(ScheduleError, match="collision"):
            load_schedule(saved_schedule)

    def test_signed_zero_colors_with_nonzeros_rejected(self, saved_schedule):
        """total == 0 with nnz > 0 must fail at load on every path (the
        lazy dense rebuild would otherwise defer the failure past the
        store's quarantine window)."""

        def empty_colors(scalars, arrays):
            arrays["window_colors"] = np.zeros(
                arrays["window_colors"].size, dtype=np.int16
            )

        _rewrite(saved_schedule, empty_colors)
        with pytest.raises(ScheduleError, match="slots"):
            load_schedule_entry(saved_schedule, validate=False)

    def test_signed_duplicate_slot_rejected(self, saved_schedule):
        """Two slots on one (step, lane) coordinate merge in the dense
        scatter; the occupancy count must expose the collision."""

        def duplicate_slot(scalars, arrays):
            for name in ("slot_steps", "slot_lanes"):
                member = arrays[name].copy()
                member[1] = member[0]
                arrays[name] = member

        _rewrite(saved_schedule, duplicate_slot)
        with pytest.raises(ScheduleError, match="collide"):
            load_schedule(saved_schedule)

    def test_signed_out_of_range_slot_rejected(self, saved_schedule):
        def break_slot(scalars, arrays):
            arrays["slot_source"] = arrays["slot_source"].astype(np.int64)
            arrays["slot_source"][0] = 10**9

        _rewrite(saved_schedule, break_slot)
        with pytest.raises(ScheduleError, match="out-of-range"):
            load_schedule(saved_schedule)

    def test_bit_flip_in_payload_fails_checksum(self, saved_schedule):
        blob = bytearray(saved_schedule.read_bytes())
        blob[-8] ^= 0x01  # one bit, deep in the payload
        saved_schedule.write_bytes(bytes(blob))
        with pytest.raises(ScheduleError, match="checksum"):
            load_schedule(saved_schedule)

    def test_flipped_checksum_byte_rejected(self, saved_schedule):
        blob = bytearray(saved_schedule.read_bytes())
        blob[16] ^= 0xFF  # the stored CRC-32 lives at prologue offset 16
        saved_schedule.write_bytes(bytes(blob))
        with pytest.raises(ScheduleError, match="checksum"):
            load_schedule(saved_schedule)

    def test_wrong_version_rejected(self, saved_schedule):
        blob = bytearray(saved_schedule.read_bytes())
        blob[8:12] = (999).to_bytes(4, "little")  # version field
        saved_schedule.write_bytes(bytes(blob))
        with pytest.raises(ScheduleError, match="version"):
            load_schedule(saved_schedule)

    def test_missing_member_rejected(self, saved_schedule):
        def drop_member(scalars, arrays):
            del arrays["row_perm"]

        _rewrite(saved_schedule, drop_member)
        with pytest.raises(ScheduleError, match="missing"):
            load_schedule(saved_schedule)

    @pytest.mark.parametrize("keep_fraction", [0.0, 0.3, 0.9])
    def test_truncated_file_rejected(self, saved_schedule, keep_fraction):
        data = saved_schedule.read_bytes()
        saved_schedule.write_bytes(data[: int(len(data) * keep_fraction)])
        with pytest.raises(ScheduleError):
            load_schedule(saved_schedule)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "noise.sched"
        path.write_bytes(os.urandom(4096))
        with pytest.raises(ScheduleError, match="not a schedule artifact"):
            load_schedule(path)

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "other.sched"
        np.savez(path.with_suffix(".npz"), unrelated=np.arange(4))
        path.with_suffix(".npz").rename(path)
        with pytest.raises(ScheduleError, match="not a schedule artifact"):
            load_schedule(path)


class TestExecutionPlanPersistence:
    """Version 3 persists the plan sort; version 2 recompiles it on load."""

    def test_v3_artifact_is_replay_ready(self, square_matrix, rng, tmp_path):
        pipeline = GustPipeline(32)
        schedule, balanced, _ = pipeline.preprocess(square_matrix)
        path = tmp_path / "planned.sched"
        save_schedule(path, schedule, balanced)
        entry = load_schedule_entry(path)
        assert entry.plan is not None
        entry.plan.validate()
        x = rng.normal(size=square_matrix.shape[1])
        # The reconstituted plan replays bit-identically to a live one.
        live = pipeline.plan_for(schedule, balanced)
        np.testing.assert_array_equal(entry.plan.execute(x), live.execute(x))

    def test_persisted_order_equals_live_plan(self, square_matrix, tmp_path):
        pipeline = GustPipeline(32)
        schedule, balanced, _ = pipeline.preprocess(square_matrix)
        live = pipeline.plan_for(schedule, balanced)
        path = tmp_path / "ordered.sched"
        save_schedule(path, schedule, balanced)
        entry = load_schedule_entry(path)
        # The artifact's slots are persisted in plan order, so the loaded
        # plan's arrays must equal the live plan's exactly.
        np.testing.assert_array_equal(entry.plan.value_source, live.value_source)
        np.testing.assert_array_equal(entry.plan.rows, live.rows)
        np.testing.assert_array_equal(entry.plan.values, live.values)
        np.testing.assert_array_equal(entry.plan.sources, live.sources)
        np.testing.assert_array_equal(entry.plan.seg_starts, live.seg_starts)

    def test_legacy_v2_artifact_recompiles_plan(self, rng):
        """The committed pre-bump fixture must keep loading: same schedule
        semantics, plan rebuilt from scratch (ISSUE 3 compatibility)."""
        from pathlib import Path

        fixture = Path(__file__).parent.parent / "data" / "legacy_v2.sched"
        entry = load_schedule_entry(fixture)
        assert entry.plan is not None
        entry.plan.validate()
        entry.schedule.validate()
        expected = np.load(
            Path(__file__).parent.parent / "data" / "legacy_v2_expected.npz"
        )
        np.testing.assert_allclose(
            entry.plan.execute(expected["x"]), expected["y"]
        )

    def test_signed_unsorted_slots_rejected(self, saved_schedule):
        """Version 3 persists slots sorted by destination row; a re-signed
        artifact violating that invariant must fail validation (the plan
        would otherwise mis-replay through its segment boundaries)."""

        def unsort_slots(scalars, arrays):
            rows = arrays["slot_rows"].astype(np.int64)
            # Swap two slots from different destination rows, consistently
            # across every per-slot member, so the schedule itself stays
            # structurally valid but the sort invariant breaks.
            others = np.flatnonzero(rows != rows[0])
            assert others.size, "fixture needs at least two distinct rows"
            j = int(others[0])
            for name in ("slot_steps", "slot_lanes", "slot_rows", "slot_source"):
                member = arrays[name].copy()
                member[0], member[j] = member[j], member[0]
                arrays[name] = member

        _rewrite(saved_schedule, unsort_slots)
        with pytest.raises(ScheduleError, match="not sorted"):
            load_schedule(saved_schedule)
