"""Tests for the cycle-accurate GUST machine."""

import numpy as np
import pytest

from repro import CooMatrix, GustMachine, GustPipeline, uniform_random
from repro.errors import CollisionError, HardwareConfigError


@pytest.fixture
def pipeline():
    return GustPipeline(16, load_balance=True, validate=True)


class TestExecution:
    def test_matches_oracle_and_analytic_cycles(self, small_matrix, rng):
        pipeline = GustPipeline(16, validate=True)
        schedule, balanced, _ = pipeline.preprocess(small_matrix)
        x = rng.normal(size=small_matrix.shape[1])
        y, result = pipeline.execute_cycle_accurate(schedule, balanced, x)
        np.testing.assert_allclose(y, small_matrix.matvec(x))
        assert result.cycles == schedule.execution_cycles
        assert result.multiplier_ops == small_matrix.nnz
        assert result.adder_ops == small_matrix.nnz

    def test_fifo_depth_equals_max_window_colors(self, small_matrix, rng):
        pipeline = GustPipeline(16, validate=True)
        schedule, balanced, _ = pipeline.preprocess(small_matrix)
        x = rng.normal(size=small_matrix.shape[1])
        _, result = pipeline.execute_cycle_accurate(schedule, balanced, x)
        assert result.max_fifo_depth == max(schedule.window_colors)

    def test_empty_matrix(self):
        machine = GustMachine(8)
        pipeline = GustPipeline(8)
        schedule, balanced, _ = pipeline.preprocess(CooMatrix.empty((4, 4)))
        result = machine.run(schedule, np.ones(4))
        assert result.cycles == 0
        np.testing.assert_array_equal(result.y_permuted, np.zeros(4))

    def test_empty_rows_emit_zero(self, rng):
        # Rows 1 and 3 have no nonzeros; their outputs must be exactly 0.
        matrix = CooMatrix.from_arrays(
            np.array([0, 2]), np.array([1, 3]), np.array([2.0, 3.0]), (4, 4)
        )
        pipeline = GustPipeline(4, validate=True)
        x = rng.normal(size=4)
        result = pipeline.spmv(matrix, x)
        y2, _ = pipeline.execute_cycle_accurate(
            *pipeline.preprocess(matrix)[:2], x
        )
        np.testing.assert_allclose(y2, matrix.matvec(x))
        assert y2[1] == 0.0 and y2[3] == 0.0

    def test_non_divisible_dimensions(self, rng):
        matrix = uniform_random(37, 53, 0.1, seed=2)
        pipeline = GustPipeline(8, validate=True)
        schedule, balanced, _ = pipeline.preprocess(matrix)
        x = rng.normal(size=53)
        y, result = pipeline.execute_cycle_accurate(schedule, balanced, x)
        np.testing.assert_allclose(y, matrix.matvec(x))

    def test_memory_traffic_accounted(self, small_matrix, rng):
        pipeline = GustPipeline(16, validate=True)
        schedule, balanced, _ = pipeline.preprocess(small_matrix)
        x = rng.normal(size=small_matrix.shape[1])
        _, result = pipeline.execute_cycle_accurate(schedule, balanced, x)
        stream = result.stream
        # Vector in + 3 words per nonzero.
        assert stream.offchip_read_words == (
            small_matrix.shape[1] + 3 * small_matrix.nnz
        )
        # One output word per matrix row (all windows dump full lanes).
        assert stream.offchip_write_words == small_matrix.shape[0]


class TestGuards:
    def test_collision_detection(self, small_matrix, rng):
        from dataclasses import replace

        pipeline = GustPipeline(16, validate=True)
        schedule, balanced, _ = pipeline.preprocess(small_matrix)
        # Alias the adders of two slots that share a timestep.
        step = np.bincount(schedule.steps).argmax()
        first, second = np.flatnonzero(schedule.steps == step)[:2]
        rows = schedule.rows.copy()
        rows[second] = rows[first]
        corrupted = replace(schedule, rows=rows)
        with pytest.raises(CollisionError, match="routed"):
            GustMachine(16).run(corrupted, rng.normal(size=small_matrix.shape[1]))

    def test_length_mismatch(self, small_matrix):
        pipeline = GustPipeline(16)
        schedule, _, _ = pipeline.preprocess(small_matrix)
        with pytest.raises(HardwareConfigError, match="length"):
            GustMachine(8).run(schedule, np.zeros(small_matrix.shape[1]))

    def test_vector_length_mismatch(self, small_matrix):
        pipeline = GustPipeline(16)
        schedule, _, _ = pipeline.preprocess(small_matrix)
        with pytest.raises(HardwareConfigError, match="incompatible"):
            GustMachine(16).run(schedule, np.zeros(3))

    def test_invalid_length(self):
        with pytest.raises(HardwareConfigError, match="positive"):
            GustMachine(0)


class TestAcrossAlgorithms:
    @pytest.mark.parametrize("algorithm", ["matching", "first_fit", "euler", "naive"])
    def test_machine_runs_any_proper_schedule(self, algorithm, rng):
        matrix = uniform_random(48, 48, 0.08, seed=9)
        pipeline = GustPipeline(
            16, algorithm=algorithm, load_balance=False, validate=True
        )
        schedule, balanced, _ = pipeline.preprocess(matrix)
        x = rng.normal(size=48)
        y, result = pipeline.execute_cycle_accurate(schedule, balanced, x)
        np.testing.assert_allclose(y, matrix.matvec(x))
        assert result.cycles == schedule.execution_cycles
