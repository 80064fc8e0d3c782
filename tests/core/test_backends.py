"""Execution-backend registry, capability, and equivalence tests.

The heart is the cross-backend equivalence matrix: every registered
backend is run against the ``np.add.at`` scatter oracle on adversarial
shapes (empty rows, a single giant window, ``k % tile != 0`` blocks,
float32/float64 inputs).  Backends whose effective ``bit_identical`` flag
is true must agree **bit for bit**; the rest (``reduceat``) must agree to
``allclose``.  Alongside it: registry resolution (unknown names, the
``GUST_BACKEND`` override, ``auto`` selection), the typed
``BackendCapabilityError`` that replaced the silent NumPy 2.x
``reduceat`` hazard, in-place value refreshes, and proof that the
removed ``use_plans=``/``executor()`` shims stay removed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import CompiledSpmv, GustPipeline, GustSpmm, uniform_random
from repro.core.backends import (
    available_backends,
    compile_plan,
    get_backend,
    probe_bit_identity,
    register_backend,
    registered_backends,
    scatter_matvec,
)
from repro.core.backends.base import (
    BackendCapabilities,
    CompiledKernel,
    ReplayBackend,
)
from repro.core.pipeline import LEGACY_SCATTER
from repro.core.plan import ExecutionPlan
from repro.errors import (
    BackendCapabilityError,
    BackendError,
    HardwareConfigError,
    ScheduleError,
)
from repro.sparse.coo import CooMatrix


def _plan_for(matrix, length=16):
    pipeline = GustPipeline(length)
    schedule, balanced, _ = pipeline.preprocess(matrix)
    return pipeline.plan_for(schedule, balanced)


def _empty_rows_matrix():
    """Rows 3, 7, 11 (and more) carry no nonzeros at all."""
    rows = np.array([0, 0, 1, 2, 4, 5, 5, 6, 8, 9, 10, 12])
    cols = np.array([1, 5, 2, 0, 3, 1, 4, 2, 5, 0, 3, 1])
    data = np.linspace(1.0, 2.0, rows.size)
    return CooMatrix.from_arrays(rows, cols, data, (13, 6))


def _giant_window_matrix():
    """One dense-ish row far heavier than the accelerator length."""
    m = uniform_random(24, 24, 0.05, seed=9)
    heavy_cols = np.arange(24)
    rows = np.concatenate([m.rows, np.full(24, 5)])
    cols = np.concatenate([m.cols, heavy_cols])
    data = np.concatenate([m.data, np.linspace(0.5, 1.5, 24)])
    # Deduplicate (row, col) pairs, keeping the first occurrence.
    keys = rows * 24 + cols
    _, keep = np.unique(keys, return_index=True)
    return CooMatrix.from_arrays(rows[keep], cols[keep], data[keep], (24, 24))


ADVERSARIAL = {
    "empty_rows": _empty_rows_matrix,
    "giant_window": _giant_window_matrix,
    "rectangular": lambda: uniform_random(50, 130, 0.07, seed=21),
    "empty": lambda: CooMatrix.empty((5, 3)),
}


def _backend_names():
    return sorted(available_backends())


class TestEquivalenceMatrix:
    """Every registered backend vs. the scatter oracle."""

    @pytest.mark.parametrize("backend", _backend_names())
    @pytest.mark.parametrize("shape_name", sorted(ADVERSARIAL))
    def test_matvec_matches_oracle(self, backend, shape_name, rng):
        matrix = ADVERSARIAL[shape_name]()
        plan = _plan_for(matrix)
        compiled = compile_plan(plan, backend=backend)
        for dtype in (np.float64, np.float32):
            x = rng.normal(size=matrix.shape[1]).astype(dtype)
            oracle = scatter_matvec(plan, np.asarray(x, dtype=np.float64))
            got = compiled.kernel.matvec(x)
            if compiled.bit_identical:
                np.testing.assert_array_equal(got, oracle)
            else:
                np.testing.assert_allclose(got, oracle)
            if matrix.nnz:
                np.testing.assert_allclose(
                    got,
                    matrix.matvec(np.asarray(x, dtype=np.float64)),
                    rtol=1e-6,
                )

    @pytest.mark.parametrize("backend", _backend_names())
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_matmat_matches_per_column_matvec(self, backend, k, rng):
        """Block replay == stacked matvec, including k % tile != 0 tiling."""
        matrix = uniform_random(40, 60, 0.08, seed=7)
        plan = _plan_for(matrix)
        compiled = compile_plan(plan, backend=backend)
        dense = rng.normal(size=(60, k))
        # tile_budget forces a tile width of 1 (and k % tile == k % 2 != 0
        # for the larger budget), exercising every tile boundary.
        for budget in (1, 2 * plan.nnz + 1, 1 << 26):
            block = compiled.kernel.matmat(dense, tile_budget=budget)
            assert block.shape == (40, k)
            for j in range(k):
                column = compiled.kernel.matvec(dense[:, j])
                if compiled.bit_identical:
                    np.testing.assert_array_equal(block[:, j], column)
                else:
                    np.testing.assert_allclose(block[:, j], column)

    @pytest.mark.parametrize("backend", _backend_names())
    def test_shape_validation(self, backend):
        plan = _plan_for(uniform_random(10, 8, 0.2, seed=1))
        kernel = compile_plan(plan, backend=backend).kernel
        with pytest.raises(HardwareConfigError, match="incompatible"):
            kernel.matvec(np.zeros(9))
        with pytest.raises(HardwareConfigError, match="dense operand"):
            kernel.matmat(np.zeros((9, 2)))

    def test_bit_identical_backends_agree_with_each_other(self, rng):
        matrix = uniform_random(64, 64, 0.1, seed=3)
        plan = _plan_for(matrix)
        x = rng.normal(size=64)
        results = {}
        for name in _backend_names():
            compiled = compile_plan(plan, backend=name)
            if compiled.bit_identical:
                results[name] = compiled.kernel.matvec(x)
        assert len(results) >= 2  # scatter + bincount at minimum
        reference = results.pop("scatter")
        for name, got in results.items():
            np.testing.assert_array_equal(got, reference, err_msg=name)


class TestRegistry:
    def test_unknown_backend_name(self):
        plan = _plan_for(uniform_random(8, 8, 0.2, seed=1))
        with pytest.raises(BackendError, match="unknown backend 'gpu'"):
            compile_plan(plan, backend="gpu")
        with pytest.raises(BackendError, match="unknown backend"):
            get_backend("gpu")

    def test_builtins_registered_with_expected_flags(self):
        caps = available_backends()
        assert {"scatter", "bincount", "reduceat"} <= set(caps)
        assert caps["scatter"].bit_identical
        assert caps["bincount"].bit_identical
        assert not caps["reduceat"].bit_identical
        if "scipy" in caps:
            assert caps["scipy"].probed
        for flags in caps.values():
            assert flags.supports_block and flags.thread_safe

    def test_duplicate_registration_rejected(self):
        backend = registered_backends()["scatter"]
        with pytest.raises(BackendError, match="already registered"):
            register_backend(backend)
        # replace=True swaps (and restores) without error.
        register_backend(backend, replace=True)

    def test_auto_selects_bit_identical(self, monkeypatch):
        monkeypatch.delenv("GUST_BACKEND", raising=False)
        plan = _plan_for(uniform_random(20, 20, 0.1, seed=2))
        compiled = compile_plan(plan, backend="auto")
        assert compiled.bit_identical
        assert compiled.name in ("scipy", "bincount")

    def test_env_override_selects_backend(self, monkeypatch):
        plan = _plan_for(uniform_random(20, 20, 0.1, seed=2))
        monkeypatch.setenv("GUST_BACKEND", "scatter")
        assert compile_plan(plan, backend="auto").name == "scatter"
        # Explicit names win over the environment.
        assert compile_plan(plan, backend="bincount").name == "bincount"

    def test_env_override_unknown_name_fails_loudly(self, monkeypatch):
        plan = _plan_for(uniform_random(20, 20, 0.1, seed=2))
        monkeypatch.setenv("GUST_BACKEND", "typo")
        with pytest.raises(BackendError, match="unknown backend"):
            compile_plan(plan, backend="auto")

    def test_env_override_skipped_when_capability_missing(self, monkeypatch):
        """GUST_BACKEND=reduceat cannot hijack an exactness-requiring
        caller: the override is skipped with a warning, not honored."""
        plan = _plan_for(uniform_random(20, 20, 0.1, seed=2))
        monkeypatch.setenv("GUST_BACKEND", "reduceat")
        assert compile_plan(plan, backend="auto").name == "reduceat"
        with pytest.warns(RuntimeWarning, match="falling back"):
            compiled = compile_plan(
                plan, backend="auto", require_bit_identical=True
            )
        assert compiled.name != "reduceat"
        assert compiled.bit_identical

    def test_probe_confirms_oracle(self):
        plan = _plan_for(uniform_random(30, 30, 0.1, seed=4))
        for name in _backend_names():
            kernel = get_backend(name).compile(plan)
            verdict = probe_bit_identity(kernel, plan)
            if get_backend(name).capabilities.bit_identical:
                assert verdict, name


class _BrokenKernel(CompiledKernel):
    """A 'bit-identical' claim that the probe must falsify."""

    def matvec(self, x):
        return scatter_matvec(self._plan, np.asarray(x, dtype=np.float64)) + 1e-12

    def matmat(self, dense, tile_budget=1 << 26):
        return np.stack(
            [self.matvec(dense[:, j]) for j in range(dense.shape[1])], axis=1
        )


class _BrokenBackend(ReplayBackend):
    name = "broken-probe-test"
    capabilities = BackendCapabilities(
        bit_identical=True, supports_block=True, thread_safe=True, probed=True
    )

    def compile(self, plan):
        return _BrokenKernel(plan)


class TestProbedBackends:
    def test_failed_probe_downgrades_and_blocks_exactness(self):
        register_backend(_BrokenBackend())
        try:
            plan = _plan_for(uniform_random(20, 20, 0.1, seed=5))
            compiled = compile_plan(plan, backend="broken-probe-test")
            assert compiled.probe_verdict is False
            assert not compiled.bit_identical
            with pytest.raises(BackendCapabilityError, match="bit-identical"):
                compile_plan(
                    plan,
                    backend="broken-probe-test",
                    require_bit_identical=True,
                )
        finally:
            from repro.core.backends import registry as registry_module

            registry_module._REGISTRY.pop("broken-probe-test", None)


class TestCapabilityErrors:
    def test_reduceat_with_exactness_is_typed_error(self):
        """The NumPy 2.x reduceat hazard is a typed error, not an
        allclose-only gate."""
        matrix = uniform_random(30, 30, 0.1, seed=6)
        pipeline = GustPipeline(16)
        with pytest.raises(BackendCapabilityError, match="reduceat"):
            pipeline.compile(matrix, backend="reduceat",
                             require_bit_identical=True)

    def test_spmm_engine_honors_requirement(self, square_matrix, rng):
        engine = GustSpmm(32, backend="reduceat", require_bit_identical=True)
        dense = rng.normal(size=(square_matrix.shape[1], 3))
        with pytest.raises(BackendCapabilityError):
            engine.spmm(square_matrix, dense)

    def test_spmm_auto_is_bit_identical_per_column(self, square_matrix, rng):
        engine = GustSpmm(32)  # default backend="auto"
        dense = rng.normal(size=(square_matrix.shape[1], 5))
        result = engine.spmm(square_matrix, dense)
        pipeline = GustPipeline(32)
        compiled = pipeline.compile(square_matrix)
        for j in range(5):
            np.testing.assert_array_equal(
                result.y[:, j], compiled.matvec(dense[:, j])
            )


class TestCompiledSpmvHandle:
    def test_compile_returns_handle_with_stats(self, square_matrix, rng):
        pipeline = GustPipeline(32, cache=True)
        compiled = pipeline.compile(square_matrix)
        assert isinstance(compiled, CompiledSpmv)
        assert compiled.backend_name in available_backends()
        assert compiled.stats.bit_identical
        assert compiled.stats.nnz == compiled.plan.nnz
        assert compiled.stats.shape == square_matrix.shape
        assert compiled.stats.preprocess is not None
        x = rng.normal(size=square_matrix.shape[1])
        np.testing.assert_allclose(
            compiled.matvec(x), square_matrix.matvec(x)
        )
        assert compiled(x) is not None  # __call__ alias
        # Memoized per schedule object with a warm cache.
        assert pipeline.compile(square_matrix) is compiled

    def test_legacy_backend_handle(self, square_matrix, rng):
        pipeline = GustPipeline(32, backend=LEGACY_SCATTER)
        schedule, balanced, _ = pipeline.preprocess(square_matrix)
        compiled = pipeline.compile_schedule(schedule, balanced)
        assert compiled.plan is None
        assert compiled.backend_name == LEGACY_SCATTER
        x = rng.normal(size=square_matrix.shape[1])
        np.testing.assert_array_equal(
            compiled.matvec(x),
            pipeline.execute_scatter(schedule, balanced, x),
        )
        with pytest.raises(BackendError, match="legacy-scatter"):
            compiled.refresh_values(np.zeros(1))

    @pytest.mark.parametrize("backend", _backend_names())
    def test_refresh_values_in_place(self, backend, square_matrix, rng):
        """Same structure, new values: no recompile, updated results."""
        pipeline = GustPipeline(32, cache=True)
        compiled = pipeline.compile(square_matrix, backend=backend)
        kernel = compiled._kernel
        x = rng.normal(size=square_matrix.shape[1])
        before = compiled.matvec(x)
        old_plan = compiled.plan
        # Doubling every value in balanced order must exactly double the
        # replay output (the replay is linear in the values).
        compiled.refresh_values(_balanced_stream(old_plan) * 2.0)
        assert compiled._kernel is kernel  # structure reused, no recompile
        after = compiled.matvec(x)
        if compiled.stats.bit_identical:
            np.testing.assert_array_equal(after, 2.0 * before)
        else:
            np.testing.assert_allclose(after, 2.0 * before)

    def test_refresh_rejects_foreign_structure(self, square_matrix):
        pipeline = GustPipeline(32)
        compiled = pipeline.compile(square_matrix)
        other = _plan_for(uniform_random(50, 130, 0.07, seed=21), length=32)
        with pytest.raises(ScheduleError, match="pattern changed"):
            compiled.refresh_from_plan(other)

    @pytest.mark.parametrize("backend", _backend_names())
    def test_refresh_rejects_moved_sources(self, backend):
        """Same rows, same nnz, different source columns: a different
        matrix — backends with derived structure (scipy CSR indices)
        would silently keep the old columns if this were accepted."""

        def plan_with_sources(sources):
            return ExecutionPlan.from_sorted(
                length=4,
                shape=(4, 4),
                values=np.array([1.0, 2.0, 3.0]),
                sources=np.array(sources),
                rows=np.array([0, 1, 2]),
                row_perm=np.arange(4),
            )

        kernel = get_backend(backend).compile(plan_with_sources([0, 1, 2]))
        with pytest.raises(ScheduleError, match="sources differ"):
            kernel.refresh_values(plan_with_sources([1, 2, 3]))


def _balanced_stream(plan: ExecutionPlan) -> np.ndarray:
    """Reconstruct the balanced-order value stream feeding ``plan``."""
    stream = np.empty(plan.nnz, dtype=np.float64)
    stream[plan.value_source] = plan.values
    return stream


class TestStackedReplayRefresh:
    def test_refresh_regathers_in_place(self, square_matrix, rng):
        from repro import StackedReplay

        pipeline = GustPipeline(32, cache=True)
        compiled = pipeline.compile(square_matrix)
        plan = compiled.plan
        for force_numpy in (False, True):
            kernel = StackedReplay(plan, force_numpy=force_numpy)
            inner = kernel._kernel
            stacked = rng.normal(size=(4, square_matrix.shape[1]))
            before = kernel.matvecs(stacked)
            refreshed = plan.with_values(_balanced_stream(plan) * -2.0)
            kernel.refresh_from_plan(refreshed)
            assert kernel._kernel is inner  # no recompile
            assert kernel.plan is refreshed
            np.testing.assert_array_equal(
                kernel.matvecs(stacked), -2.0 * before
            )

    def test_registry_reregistration_reuses_kernels(self, rng):
        """Re-registering a tenant with new values refreshes the pinned
        kernels in place instead of recompiling them (ROADMAP PR-4
        follow-on)."""
        from repro import MatrixRegistry

        matrix = uniform_random(48, 48, 0.1, seed=13)
        registry = MatrixRegistry(length=16)
        first = registry.register("A", matrix)
        updated = CooMatrix.from_arrays(
            matrix.rows, matrix.cols, matrix.data * 0.5, matrix.shape
        )
        second = registry.register("A", updated, replace=True)
        assert second is not first
        # Same kernel objects, refreshed values.
        assert second.stacked is first.stacked
        assert second.compiled is first.compiled
        assert second.plan is not first.plan
        assert second.preprocess.notes["cache_refresh"] == 1.0
        x = rng.normal(size=48)
        np.testing.assert_allclose(second.execute(x), updated.matvec(x))
        np.testing.assert_array_equal(
            second.stacked.matvecs(x[None, :])[:, 0], second.execute(x)
        )

    def test_registry_new_pattern_recompiles(self, rng):
        from repro import MatrixRegistry

        registry = MatrixRegistry(length=16)
        first = registry.register("A", uniform_random(48, 48, 0.1, seed=13))
        second = registry.register(
            "A", uniform_random(48, 48, 0.1, seed=14), replace=True
        )
        assert second.stacked is not first.stacked
        assert second.compiled is not first.compiled

    def test_registry_shares_one_kernel_per_tenant(self, rng):
        """Fresh registration wraps the per-request handle's kernel for
        batching instead of compiling (and probing) a second one."""
        from repro import MatrixRegistry

        registry = MatrixRegistry(length=16)
        entry = registry.register("A", uniform_random(48, 48, 0.1, seed=13))
        assert entry.stacked._kernel is entry.compiled._kernel
        assert entry.stacked.backend == entry.compiled.backend_name
        x = rng.normal(size=48)
        np.testing.assert_array_equal(
            entry.stacked.matvecs(x[None, :])[:, 0], entry.execute(x)
        )
        # The force_numpy pin still gets its own bincount kernel.
        pinned = registry.register(
            "B", uniform_random(48, 48, 0.1, seed=13),
            force_numpy_backend=True,
        )
        assert pinned.stacked.backend == "bincount"

    def test_registry_dropping_force_numpy_restores_sharing(self):
        """Re-registering without the force_numpy pin returns the tenant
        to the default shared kernel, like a fresh registration would."""
        from repro import MatrixRegistry

        matrix = uniform_random(48, 48, 0.1, seed=13)
        registry = MatrixRegistry(length=16)
        pinned = registry.register("A", matrix, force_numpy_backend=True)
        assert pinned.stacked.backend == "bincount"
        entry = registry.register("A", matrix, replace=True)
        assert entry.stacked._kernel is entry.compiled._kernel
        assert entry.stacked.backend == entry.compiled.backend_name

    def test_from_compiled_rejects_legacy_handle(self, square_matrix):
        from repro import StackedReplay

        pipeline = GustPipeline(16, backend=LEGACY_SCATTER)
        schedule, balanced, _ = pipeline.preprocess(square_matrix)
        handle = pipeline.compile_schedule(schedule, balanced)
        with pytest.raises(BackendCapabilityError, match="no compiled plan"):
            StackedReplay.from_compiled(handle)


class TestShimsStayRemoved:
    """The one-release ``use_plans``/``executor`` shims are gone for good.

    Lint rule R3 proves no internal call sites remain; these tests prove
    the public surface rejects the old spellings outright instead of
    silently accepting and ignoring them.
    """

    def test_use_plans_kwarg_rejected(self):
        with pytest.raises(TypeError, match="use_plans"):
            GustPipeline(8, use_plans=True)
        with pytest.raises(TypeError, match="use_plans"):
            GustSpmm(8, use_plans=False)

    def test_use_plans_attribute_gone(self):
        assert not hasattr(GustPipeline(8), "use_plans")

    def test_executor_method_gone(self):
        assert not hasattr(GustPipeline(8), "executor")
