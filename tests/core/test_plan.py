"""Tests for the prepared execution-plan replay engine.

The plan is the steady-state hot path, so the contract is strict: replay
must be **bit-identical** to the pre-plan scatter path (not merely close),
compile exactly once per schedule, refresh values without re-sorting, and
survive the cache/store tiers intact.
"""

import numpy as np
import pytest

from repro import (
    ExecutionPlan,
    GustPipeline,
    GustSpmm,
    uniform_random,
)
from repro.core.plan import DEFAULT_TILE_BUDGET
from repro.errors import HardwareConfigError, ScheduleError
from repro.sparse.coo import CooMatrix


@pytest.fixture
def prepared(square_matrix):
    pipeline = GustPipeline(32)
    schedule, balanced, _ = pipeline.preprocess(square_matrix)
    return pipeline, schedule, balanced


class TestCompile:
    def test_structure_is_row_sorted_csr(self, prepared):
        pipeline, schedule, balanced = prepared
        plan = pipeline.plan_for(schedule, balanced)
        plan.validate()
        assert plan.nnz == schedule.nnz
        assert (np.diff(plan.rows) >= 0).all()
        assert plan.seg_starts[0] == 0
        assert plan.segments == np.unique(plan.rows).size
        # Segment rows are strictly increasing: one segment per dest row.
        assert (np.diff(plan.seg_rows) > 0).all()

    def test_memoized_per_schedule_object(self, prepared):
        pipeline, schedule, balanced = prepared
        assert pipeline.plan_for(schedule, balanced) is pipeline.plan_for(
            schedule, balanced
        )

    def test_from_schedule_shares_slot_arrays(self, prepared):
        """The schedule's slots are in plan order: compiling copies and
        sorts nothing, and every plan can refresh its values."""
        _, schedule, balanced = prepared
        plan = ExecutionPlan.from_schedule(schedule, row_perm=balanced.row_perm)
        plan.validate()
        assert plan.values is schedule.values
        assert plan.rows is schedule.rows
        np.testing.assert_array_equal(plan.value_source, schedule.source)
        stream = balanced.matrix.data * 2.0
        np.testing.assert_array_equal(
            plan.with_values(stream).values, stream[schedule.source]
        )

    def test_plan_without_value_source_cannot_refresh(self, prepared):
        _, schedule, balanced = prepared
        plan = ExecutionPlan.from_sorted(
            length=schedule.length,
            shape=schedule.shape,
            values=schedule.values,
            sources=schedule.cols,
            rows=schedule.rows,
            row_perm=balanced.row_perm,
        )
        with pytest.raises(ScheduleError, match="value-source"):
            plan.with_values(np.zeros(plan.nnz))

    def test_empty_matrix(self):
        matrix = CooMatrix.empty((7, 5))
        pipeline = GustPipeline(4)
        schedule, balanced, _ = pipeline.preprocess(matrix)
        plan = pipeline.plan_for(schedule, balanced)
        plan.validate()
        assert plan.nnz == 0
        np.testing.assert_array_equal(plan.execute(np.ones(5)), np.zeros(7))


class TestReplay:
    def test_bit_identical_to_scatter_path(self, square_matrix, rng):
        plan_pipe = GustPipeline(32)
        s, b, _ = plan_pipe.preprocess(square_matrix)
        for _ in range(3):
            x = rng.normal(size=square_matrix.shape[1])
            y_plan = plan_pipe.execute(s, b, x)
            y_scatter = plan_pipe.execute_scatter(s, b, x)
            np.testing.assert_array_equal(y_plan, y_scatter)
            np.testing.assert_allclose(y_plan, square_matrix.matvec(x))

    def test_legacy_backend_selects_scatter(self, square_matrix, rng):
        pipeline = GustPipeline(32, backend="legacy-scatter")
        s, b, _ = pipeline.preprocess(square_matrix)
        x = rng.normal(size=square_matrix.shape[1])
        np.testing.assert_array_equal(
            pipeline.execute(s, b, x), pipeline.execute_scatter(s, b, x)
        )

    def test_compiled_matvec_binds_once(self, prepared, rng):
        pipeline, schedule, balanced = prepared
        apply_a = pipeline.compile_schedule(schedule, balanced).matvec
        x = rng.normal(size=schedule.shape[1])
        np.testing.assert_array_equal(
            apply_a(x), pipeline.execute(schedule, balanced, x)
        )

    def test_memo_hit_skips_plan_lookup(self, prepared, rng, monkeypatch):
        """Steady-state executes resolve the compiled handle by identity:
        after the first call, plan_for must not run again."""
        pipeline, schedule, balanced = prepared
        x = rng.normal(size=schedule.shape[1])
        pipeline.execute(schedule, balanced, x)  # compile + memoize
        calls = []
        original = GustPipeline.plan_for

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(GustPipeline, "plan_for", counting)
        for _ in range(3):
            pipeline.execute(schedule, balanced, x)
        assert calls == []

    def test_memo_respects_balanced_argument(self, square_matrix, rng):
        """A schedule executed against a *different* BalancedMatrix must
        not reuse the memoized plan's row permutation."""
        from repro.core.load_balance import identity_balance

        pipeline = GustPipeline(32)
        schedule, balanced, _ = pipeline.preprocess(square_matrix)
        x = rng.normal(size=square_matrix.shape[1])
        pipeline.execute(schedule, balanced, x)  # memoize against balanced
        other = identity_balance(balanced.matrix, 32)
        np.testing.assert_array_equal(
            pipeline.execute(schedule, other, x),
            pipeline.execute_scatter(schedule, other, x),
        )
        # And the original pairing still serves the original plan.
        np.testing.assert_array_equal(
            pipeline.execute(schedule, balanced, x),
            pipeline.execute_scatter(schedule, balanced, x),
        )

    def test_rectangular_and_unbalanced(self, rng):
        matrix = uniform_random(50, 130, 0.07, seed=21)
        for load_balance in (True, False):
            pipeline = GustPipeline(16, load_balance=load_balance)
            s, b, _ = pipeline.preprocess(matrix)
            x = rng.normal(size=130)
            np.testing.assert_array_equal(
                pipeline.execute(s, b, x), pipeline.execute_scatter(s, b, x)
            )

    def test_wrong_vector_shape(self, prepared):
        pipeline, schedule, balanced = prepared
        plan = pipeline.plan_for(schedule, balanced)
        with pytest.raises(HardwareConfigError, match="incompatible"):
            plan.execute(np.zeros(schedule.shape[1] + 1))

    def test_block_matches_per_column_execute(self, prepared, rng):
        pipeline, schedule, balanced = prepared
        plan = pipeline.plan_for(schedule, balanced)
        dense = rng.normal(size=(schedule.shape[1], 6))
        block = plan.execute_block(dense)
        expected = np.column_stack(
            [plan.execute(dense[:, j]) for j in range(6)]
        )
        np.testing.assert_allclose(block, expected)

    def test_block_wrong_shape(self, prepared):
        pipeline, schedule, balanced = prepared
        plan = pipeline.plan_for(schedule, balanced)
        with pytest.raises(HardwareConfigError, match="dense operand"):
            plan.execute_block(np.zeros((3, 3)))

    def test_block_zero_columns(self, prepared):
        pipeline, schedule, balanced = prepared
        plan = pipeline.plan_for(schedule, balanced)
        out = plan.execute_block(np.zeros((schedule.shape[1], 0)))
        assert out.shape == (schedule.shape[0], 0)


class TestRefresh:
    def test_with_values_matches_cold_compile(self, square_matrix, rng):
        cache_pipe = GustPipeline(32, cache=True)
        s, b, _ = cache_pipe.preprocess(square_matrix)
        updated = square_matrix.with_data(
            rng.uniform(1.0, 2.0, size=square_matrix.nnz)
        )
        s2, b2, report = cache_pipe.preprocess(updated)
        assert report.notes["cache_refresh"] == 1.0
        x = rng.normal(size=square_matrix.shape[1])
        y_refreshed = cache_pipe.execute(s2, b2, x)
        cold = GustPipeline(32)
        s3, b3, _ = cold.preprocess(updated)
        np.testing.assert_array_equal(y_refreshed, cold.execute(s3, b3, x))

    def test_with_values_rejects_pattern_change(self, prepared):
        pipeline, schedule, balanced = prepared
        pipeline_cache = GustPipeline(32, cache=True)
        s, b, _ = pipeline_cache.preprocess(
            uniform_random(96, 96, 0.06, seed=11)
        )
        plan = pipeline_cache.plan_for(s, b)
        if plan.value_source is None:
            pytest.skip("cache did not attach value sources")
        with pytest.raises(ScheduleError, match="pattern changed"):
            plan.with_values(np.zeros(plan.nnz + 3))

    def test_cache_hit_reuses_plan_object(self, square_matrix):
        pipeline = GustPipeline(32, cache=True)
        s1, b1, _ = pipeline.preprocess(square_matrix)
        plan_first = pipeline.plan_for(s1, b1)
        s2, b2, report = pipeline.preprocess(square_matrix)
        assert report.notes["cache_hit"] == 1.0
        assert pipeline.plan_for(s2, b2) is plan_first


class TestSpmmTiles:
    def test_plan_block_tile_one_budget(self, prepared, rng):
        pipeline, schedule, balanced = prepared
        plan = pipeline.plan_for(schedule, balanced)
        dense = rng.normal(size=(schedule.shape[1], 5))
        tiled = plan.execute_block(dense, tile_budget=1)
        untiled = plan.execute_block(dense, tile_budget=DEFAULT_TILE_BUDGET)
        np.testing.assert_array_equal(tiled, untiled)

    def test_plan_and_scatter_spmm_agree(self, square_matrix, rng):
        dense = rng.normal(size=(square_matrix.shape[1], 9))
        with_plan = GustSpmm(32).spmm(square_matrix, dense)
        without = GustSpmm(32, backend="legacy-scatter").spmm(
            square_matrix, dense
        )
        np.testing.assert_allclose(with_plan.y, without.y)


class TestScratchBuffer:
    """The reusable per-plan product buffer must never change results."""

    def test_repeated_replays_bit_identical_to_scatter(
        self, prepared, rng
    ):
        pipeline, schedule, balanced = prepared
        plan = pipeline.plan_for(schedule, balanced)
        for _ in range(5):
            x = rng.normal(size=schedule.shape[1])
            expected = pipeline.execute_scatter(schedule, balanced, x)
            # Twice with the same x: the second call reuses a dirty
            # buffer and must still be bit-identical.
            assert (plan.execute(x) == expected).all()
            assert (plan.execute(x) == expected).all()

    def test_scratch_allocated_once_per_thread(self, prepared, rng):
        pipeline, schedule, balanced = prepared
        plan = pipeline.plan_for(schedule, balanced)
        plan.execute(rng.normal(size=schedule.shape[1]))
        first = plan._scratch.products
        plan.execute(rng.normal(size=schedule.shape[1]))
        assert plan._scratch.products is first

    def test_concurrent_replay_from_many_threads(self, prepared, rng):
        """Thread-local scratch: concurrent replays never corrupt."""
        import threading

        pipeline, schedule, balanced = prepared
        plan = pipeline.plan_for(schedule, balanced)
        xs = rng.normal(size=(8, schedule.shape[1]))
        expected = [
            pipeline.execute_scatter(schedule, balanced, x) for x in xs
        ]
        mismatches = []
        lock = threading.Lock()

        def worker(j: int) -> None:
            for _ in range(20):
                if not (plan.execute(xs[j]) == expected[j]).all():
                    with lock:
                        mismatches.append(j)

        threads = [
            threading.Thread(target=worker, args=(j,)) for j in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert mismatches == []

    def test_value_refresh_gets_fresh_scratch(self, square_matrix, rng):
        pipeline = GustPipeline(32, cache=True)
        schedule, balanced, _ = pipeline.preprocess(square_matrix)
        plan = pipeline.plan_for(schedule, balanced)
        plan.execute(rng.normal(size=square_matrix.shape[1]))
        refreshed = plan.with_values(balanced.matrix.data)
        assert not hasattr(refreshed._scratch, "products")


class TestCsrLayout:
    def test_layout_is_consistent_and_cached(self, prepared):
        pipeline, schedule, balanced = prepared
        plan = pipeline.plan_for(schedule, balanced)
        indptr, cols, vals, order = plan.csr_layout()
        assert indptr.shape == (schedule.shape[0] + 1,)
        assert indptr[0] == 0 and indptr[-1] == plan.nnz
        assert (np.diff(indptr) >= 0).all()
        counts = np.bincount(order, minlength=plan.nnz)
        assert counts.max() == counts.min() == 1  # a permutation
        assert (vals == plan.values[order]).all()
        assert plan.csr_layout()[0] is indptr  # memoized

    def test_layout_matvec_matches_execute(self, prepared, rng):
        """A sequential walk of the CSR layout equals plan.execute."""
        pipeline, schedule, balanced = prepared
        plan = pipeline.plan_for(schedule, balanced)
        indptr, cols, vals, _ = plan.csr_layout()
        x = rng.normal(size=schedule.shape[1])
        m = schedule.shape[0]
        y = np.zeros(m)
        for i in range(m):
            acc = 0.0
            for jj in range(indptr[i], indptr[i + 1]):
                acc += vals[jj] * x[cols[jj]]
            y[i] = acc
        assert np.allclose(y, plan.execute(x))

    def test_empty_plan_layout(self):
        matrix = CooMatrix.empty((6, 4))
        pipeline = GustPipeline(4)
        schedule, balanced, _ = pipeline.preprocess(matrix)
        plan = pipeline.plan_for(schedule, balanced)
        indptr, cols, vals, order = plan.csr_layout()
        assert indptr.tolist() == [0] * 7
        assert cols.size == vals.size == order.size == 0


class TestScipyOracle:
    """Cross-check the replay stack against scipy.sparse CSR matvec.

    The ROADMAP's "natural next backend" note: the plan's sorted CSR
    segment layout is exactly what a scipy CSR matvec consumes, so scipy
    — where available — is an independent oracle for every replay path.
    Skipped cleanly when scipy is absent.
    """

    sparse = pytest.importorskip("scipy.sparse")

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_plan_replay_matches_scipy(self, seed, rng):
        matrix = uniform_random(120, 90, 0.07, seed=seed)
        pipeline = GustPipeline(16)
        schedule, balanced, _ = pipeline.preprocess(matrix)
        plan = pipeline.plan_for(schedule, balanced)
        oracle = self.sparse.coo_matrix(
            (matrix.data, (matrix.rows, matrix.cols)), shape=matrix.shape
        ).tocsr()
        for _ in range(3):
            x = rng.normal(size=matrix.shape[1])
            expected = oracle @ x
            np.testing.assert_allclose(plan.execute(x), expected)
            np.testing.assert_allclose(
                pipeline.execute_scatter(schedule, balanced, x), expected
            )

    def test_plan_spmm_matches_scipy(self, square_matrix, rng):
        pipeline = GustPipeline(32)
        schedule, balanced, _ = pipeline.preprocess(square_matrix)
        plan = pipeline.plan_for(schedule, balanced)
        dense = rng.normal(size=(square_matrix.shape[1], 7))
        oracle = self.sparse.coo_matrix(
            (
                square_matrix.data,
                (square_matrix.rows, square_matrix.cols),
            ),
            shape=square_matrix.shape,
        ).tocsr()
        np.testing.assert_allclose(plan.execute_block(dense), oracle @ dense)
