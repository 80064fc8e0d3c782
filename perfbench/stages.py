"""The three stages every workload runs, and their correctness checks.

1. **compile** — cold ``GustPipeline.compile`` of the corpus, then a
   value refresh of every pattern through ``compile`` again (from the
   store in a fresh pipeline when the workload has one, else through the
   same pipeline's memory cache).
2. **replay** — rounds of ``CompiledSpmv.matvec`` and ``matmat`` sweeps
   over the refreshed handles.
3. **serve** — an ``SpmvServer`` with one worker fed by this thread in
   open loop: base-rate and high-rate windows alternating with the steps
   of a rate ladder, each window re-registering one tenant with new
   values half way through.

After the first cold pass and the first refresh, the further compile
passes and the replay rounds are paced (:func:`pace`) between the
serving windows, so each metric samples the whole serving stage.

Outputs are checked outside the timed regions: handles bit-for-bit
against the scatter oracle and with ``allclose`` against SciPy CSR (or,
compiled again, bit-for-bit against the first checked compile of the
same matrix and values), replay sweeps against those checked results, and each served response
against the oracle replay of the tenant version it may have used.
"""

from __future__ import annotations

import math
import statistics
import tempfile
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
import scipy.sparse

from repro.core.backends import compile_plan
from repro.core.pipeline import GustPipeline
from repro.obs import trace as _trace
from repro.serve.batcher import BatchPolicy
from repro.serve.registry import MatrixRegistry
from repro.serve.server import SpmvServer
from repro.sparse.coo import CooMatrix
from repro.types import CycleReport

from perfbench.workloads import (
    DEADLINE_S,
    MAX_QUEUE,
    P99_LIMIT_MS,
    REREGISTERED,
    Inputs,
    Window,
    Workload,
)

clock = time.perf_counter

def median(values) -> float:
    return float(statistics.median(values))


#: Cold-compile passes of the corpus, and refresh passes, which also
#: repeat until they add up to ``MIN_REFRESH_S`` (see CompileStage).
COLD_PASSES = 3
REFRESH_PASSES = 3
MIN_REFRESH_S = 6.0
#: Closeness demanded of the GUST result against SciPy CSR.
RTOL = 1e-9
ATOL = 1e-9
#: Idle gap the generator needs before it fingerprints one response.
_CHECK_SLACK_S = 0.00005
#: Answers held unchecked before the generator checks one even when it
#: is due to send: bounds memory when the server outruns the checks.
_MAX_UNCHECKED = 64


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    #: Wrong outputs and broken cache-tier expectations (the run is
    #: incorrect); a subset of ``failed``.
    wrong: int = 0
    reasons: list[str] = field(default_factory=list)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, wrong: bool = True) -> None:
        self.failed += 1
        self.wrong += int(wrong)
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def _csr(matrix: CooMatrix) -> scipy.sparse.csr_matrix:
    return scipy.sparse.csr_matrix(
        (matrix.data, (matrix.rows, matrix.cols)), shape=matrix.shape
    )


def _oracle(plan):
    return compile_plan(plan, backend="scatter").kernel


def _check_handle(inputs: Inputs, index: int, handle, matrix, disk_hit,
                  tally: Tally, label: str, checked=None):
    """The store tier served what it should (``disk_hit`` of ``None``
    means either way), and the handle of corpus matrix ``index`` is right:
    bit-for-bit against the scatter oracle, allclose against SciPy; or,
    given the ``checked`` outputs of an earlier handle of the same matrix
    and values, bit-for-bit against those.

    Returns the checked ``(y, Y)`` so later sweeps compare against them.
    """
    tally.attempt()
    label = f"{inputs.names[index]} {label}"
    served = handle.stats.preprocess.notes.get("disk_hit")
    if disk_hit is not None and served != disk_hit:
        tally.fail(f"{label}: disk_hit {served}, expected {disk_hit}")
    x, block = inputs.vectors[index], inputs.blocks[index]
    if checked is not None:
        for kind, got, want in (("matvec", handle.matvec(x), checked[0]),
                                ("matmat", handle.matmat(block), checked[1])):
            if not np.array_equal(got, want):
                tally.fail(f"{label}: {kind} differs from an earlier "
                           f"checked compile")
        return checked
    oracle = _oracle(handle.plan)
    reference = _csr(matrix)
    y, y_oracle = handle.matvec(x), oracle.matvec(x)
    if not np.array_equal(y, y_oracle):
        tally.fail(f"{label}: matvec differs from the scatter oracle")
    elif not np.allclose(y, reference @ x, rtol=RTOL, atol=ATOL):
        tally.fail(f"{label}: matvec differs from SciPy CSR")
    big, big_oracle = handle.matmat(block), oracle.matmat(block)
    if not np.array_equal(big, big_oracle):
        tally.fail(f"{label}: matmat differs from the scatter oracle")
    elif not np.allclose(big, reference @ block, rtol=RTOL, atol=ATOL):
        tally.fail(f"{label}: matmat differs from SciPy CSR")
    return y_oracle, big_oracle


def _utilization(handles, length: int) -> float:
    """Analytic utilization of replaying the whole corpus once."""
    return CycleReport(
        cycles=sum(h.stats.cycles_per_replay for h in handles),
        useful_ops=sum(2 * h.stats.nnz for h in handles),
        total_units=2 * length,
    ).utilization


# -- stage 1: compile ----------------------------------------------------------


def pace(times: list[float], share: float, seconds: float, passes: int,
         run) -> None:
    """Call ``run()``, which appends one pass's time to ``times``, until
    ``share`` of both ``seconds`` and ``passes`` is spent.

    Paced over a run (``share`` rising to 1), a metric's passes sample the
    whole run: on a shared machine, the host's speed changes in episodes
    of seconds, and passes back to back would share one.
    """
    while (sum(times) < share * seconds
           or len(times) < math.ceil(share * passes)):
        run()


def per_matrix_median(times: list[list[float]]) -> float:
    """A pass's time with each matrix at its median: the sum over the
    corpus of each matrix's median compile time."""
    return sum(median(t) for t in times)


class CompileStage:
    """Cold compiles and value refreshes of the corpus.

    Construction runs the first cold pass and the first refresh, which
    give the handles the replay and serve stages use and the pipeline
    whose cache serving shares.  With ``repeat``, :meth:`advance` runs the
    further passes: cold passes one matrix at a time, so that a pass
    spreads over the run, until there are ``COLD_PASSES``, and refreshes a
    pass at a time until there are ``REFRESH_PASSES`` adding up to at
    least ``MIN_REFRESH_S``.  Every compile is timed on its own, and a
    stage's reported time is :func:`per_matrix_median`.  Further passes
    run in pipelines of their own, so they leave serving's cache alone.
    ``untraced()`` brackets the checks, which run between the timed
    compiles.
    """

    def __init__(self, workload: Workload, inputs: Inputs, workdir: Path,
                 tally: Tally, untraced=nullcontext, repeat: bool = True):
        self.workload, self.inputs = workload, inputs
        self.nnz = inputs.nnz
        self._workdir, self._tally, self._untraced = workdir, tally, untraced
        self._repeat = repeat
        #: Per matrix, the wall time of each cold compile and of each
        #: refresh; and the wall time of each whole refresh pass.
        count = len(inputs.matrices)
        self.cold_times: list[list[float]] = [[] for _ in range(count)]
        self.refresh_times: list[list[float]] = [[] for _ in range(count)]
        self._refresh_walls: list[float] = []
        #: Checked ``(y, Y)`` per (value set, matrix index).
        self._checked: dict[tuple[int, int], tuple] = {}
        self._retired: list = []
        self._backends: set[str] = set()
        #: The pipeline serving shares (set by the first refresh); the
        #: latest complete cold pass's pipeline (let go when the next pass
        #: starts), store and value set; and the cold pass in progress:
        #: pipeline, store and handles so far.
        self.pipeline: GustPipeline | None = None
        self._pipeline: GustPipeline | None = None
        self.store_dir: Path | None = None
        self._values: list[CooMatrix] = inputs.matrices
        self._pending: tuple | None = None
        cold = None
        while cold is None:
            cold = self._cold_step()
        self.utilization = _utilization(cold, workload.length)
        #: Colors of the cold schedules, summed over the corpus.
        self.colors = sum(h.stats.preprocess.total_colors for h in cold)
        #: The refreshed handles (stage 2 replays these) and their checked
        #: outputs.
        self.handles, expected, self.pipeline = self._refresh_pass()
        self.expected_matvec, self.expected_matmat = expected

    @property
    def cold_s(self) -> float:
        return per_matrix_median(self.cold_times)

    @property
    def refresh_s(self) -> float:
        return per_matrix_median(self.refresh_times)

    @property
    def compile_s(self) -> float:
        """Wall time of every cold compile and refresh."""
        return sum(map(sum, self.cold_times + self.refresh_times))

    @property
    def backends(self) -> list[str]:
        return sorted(self._backends)

    def cache_stats(self) -> list:
        """Cache counters of every pipeline the stage made."""
        live = [self._pipeline, self.pipeline,
                self._pending[0] if self._pending else None]
        live = {id(p): p for p in live if p is not None}
        return [*self._retired, *(p.cache.stats for p in live.values())]

    def advance(self, share: float) -> None:
        if not self._repeat:
            return
        compiles = share * COLD_PASSES * len(self.inputs.matrices)
        while sum(map(len, self.cold_times)) < compiles:
            self._cold_step()
        pace(self._refresh_walls, share, MIN_REFRESH_S, REFRESH_PASSES,
             self._refresh_pass)

    def _new_pipeline(self, store_dir: Path | None) -> GustPipeline:
        return GustPipeline(
            self.workload.length,
            algorithm="matching",
            cache=True,
            store=store_dir,
            require_bit_identical=True,
        )

    def _retire(self, pipeline: GustPipeline | None) -> None:
        # Keep only the counters of a pipeline done with: its cache holds
        # every schedule it compiled.
        if pipeline is not None and pipeline is not self.pipeline:
            self._retired.append(pipeline.cache.stats)

    def _check(self, index: int, handle, values: list[CooMatrix],
               disk_hit, label: str):
        """:func:`_check_handle`, untraced, against the oracles the first
        time a matrix is compiled with a value set and against that
        compile's checked outputs after."""
        key = (id(values), index)
        with self._untraced():
            self._checked[key] = _check_handle(
                self.inputs, index, handle, values[index], disk_hit,
                self._tally, label, self._checked.get(key),
            )
        return self._checked[key]

    def _cold_step(self) -> list | None:
        """Cold-compile the next matrix of the pass in progress, starting
        a pass (a fresh pipeline, over a fresh store if the workload has
        one) when none is; returns the pass's handles once it is whole.

        Starting a pass lets the previous one's pipeline go, so beside
        serving's there is one pipeline alive at a time, and peak memory
        does not depend on how the paced passes interleave."""
        if self._pending is None:
            self._retire(self._pipeline)
            self._pipeline = None
            store_dir = None
            if self.workload.use_store:
                store_dir = Path(
                    tempfile.mkdtemp(prefix="store-", dir=self._workdir)
                )
            self._pending = (self._new_pipeline(store_dir), store_dir, [])
        pipeline, store_dir, handles = self._pending
        index = len(handles)
        matrix = self.inputs.matrices[index]
        started = clock()
        handle = pipeline.compile(matrix)
        self.cold_times[index].append(clock() - started)
        self._check(index, handle, self.inputs.matrices, 0.0, "cold")
        self._backends.add(handle.backend_name)
        handles.append(handle)
        if len(handles) < len(self.inputs.matrices):
            return None
        self._pending = None
        self._pipeline, self.store_dir = pipeline, store_dir
        self._values = self.inputs.matrices
        return handles

    def _refresh_pass(self):
        """The corpus with new values, through ``compile`` again; returns
        the handles, their checked outputs and the pipeline.

        With a store, a fresh pipeline over the latest cold pass's store:
        a new process's view, an empty memory tier over the written store
        (the warm start).  In memory, the latest cold pass's pipeline
        (finishing the pass in progress first, and running one if the
        latest is serving's), switching
        between the two value sets so every pass is a real refresh; the
        first switches to ``refreshed``, which the later stages replay and
        serve.
        """
        if self.workload.use_store:
            pipeline = self._new_pipeline(self.store_dir)
            values = self.inputs.refreshed
        else:
            while self._pending or self._pipeline is self.pipeline:
                self._cold_step()
            pipeline = self._pipeline
            values = (self.inputs.refreshed
                      if self._values is self.inputs.matrices
                      else self.inputs.matrices)
            self._values = values
        warm = []
        for index, matrix in enumerate(values):
            started = clock()
            warm.append(pipeline.compile(matrix))
            self.refresh_times[index].append(clock() - started)
        self._refresh_walls.append(sum(t[-1] for t in self.refresh_times))
        disk_hit = 1.0 if self.workload.use_store else None
        checked = [self._check(index, handle, values, disk_hit, "refreshed")
                   for index, handle in enumerate(warm)]
        expected = [y for y, _ in checked], [big for _, big in checked]
        self._backends.update(h.backend_name for h in warm)
        if self.workload.use_store and self.pipeline is not None:
            self._retire(pipeline)
        return warm, expected, pipeline


# -- stage 2: replay -----------------------------------------------------------


#: Rounds of the replay stage.  Each round times matvec, then matmat, on
#: fresh copies of the operands, and the rounds are paced over the run.
#: The kernels are memory-bound, and on a shared machine other tenants'
#: memory traffic slows them by up to 2x in episodes of seconds that
#: cover most of some runs; so the reported sweep time is the fastest
#: sweep of the run, the one least disturbed from outside.  A slower
#: kernel is slower in every sweep, the fastest one included.
ROUNDS = 48


@dataclass
class ReplayResult:
    #: Seconds of the fastest sweep over the whole corpus, and sweeps
    #: timed.
    matvec_s: float
    matvec_sweeps: int
    matmat_s: float
    matmat_sweeps: int


def _placement(run, operands, expected, seconds, tally: Tally, label: str,
               untraced) -> list[float]:
    """Time sweeps on a fresh copy of ``operands`` for ``seconds`` (at
    least three); check every output untimed."""
    copies = [np.array(operand, copy=True) for operand in operands]
    times: list[float] = []
    deadline = clock() + seconds
    while len(times) < 3 or clock() < deadline:
        started = clock()
        outputs = run(copies)
        times.append(clock() - started)
        tally.attempt(len(outputs))
        with untraced():
            for index, (got, want) in enumerate(zip(outputs, expected)):
                if not np.array_equal(got, want):
                    tally.fail(f"{label} sweep {len(times)}: output "
                               f"{index} differs from its checked result")
    return times


class ReplayStage:
    """``ROUNDS`` rounds of matvec and matmat sweeps over the refreshed
    handles, ``seconds`` in all."""

    def __init__(self, inputs: Inputs, compiled: CompileStage,
                 seconds: float, tally: Tally, untraced=nullcontext):
        handles = compiled.handles
        self._series = {
            "matvec": (
                lambda xs: [h.matvec(x) for h, x in zip(handles, xs)],
                inputs.vectors, compiled.expected_matvec,
            ),
            "matmat": (
                lambda bs: [h.matmat(b) for h, b in zip(handles, bs)],
                inputs.blocks, compiled.expected_matmat,
            ),
        }
        self._seconds = seconds / (2 * ROUNDS)
        self._tally, self._untraced = tally, untraced
        self._rounds = 0
        self._times: dict[str, list[float]] = {k: [] for k in self._series}

    def advance(self, share: float) -> None:
        """Run rounds until ``share`` of them are done."""
        while self._rounds < math.ceil(share * ROUNDS):
            self._round()

    def _round(self) -> None:
        with _trace.span("bench.replay_round", cat="bench"):
            for label, (run, operands, expected) in self._series.items():
                self._times[label] += _placement(
                    run, operands, expected, self._seconds, self._tally,
                    f"{label} round {self._rounds}", self._untraced,
                )
        self._rounds += 1

    def result(self) -> ReplayResult:
        matvec, matmat = self._times["matvec"], self._times["matmat"]
        return ReplayResult(min(matvec), len(matvec),
                            min(matmat), len(matmat))


# -- stage 3: serve ------------------------------------------------------------


#: Odd 64-bit weights of the response fingerprint (fixed, not seeded).
_WEIGHTS = np.random.default_rng(0x5eed).integers(
    0, 2**63, size=(2, 1 << 17), dtype=np.uint64
) | np.uint64(1)


def _digest(y: np.ndarray) -> tuple[int, int]:
    """Exact-match fingerprint of a float64 vector, cheap enough to take
    between sends: two weighted sums of its bit patterns modulo 2**64.
    Any single changed element changes both sums (the weights are odd)."""
    bits = y.view(np.uint64)
    weights = _WEIGHTS[:, : bits.size]
    return int((bits * weights[0]).sum()), int((bits * weights[1]).sum())


#: A window's p99 is the median of the p99s of its slices, so one stall
#: from outside the program moves one slice, not the figure; each slice
#: still has at least ten samples beyond its p99.
P99_SLICES = 4


@dataclass
class WindowResult:
    label: str
    rate: float
    requests: int
    failed: int
    #: Latency of each answered request, in due-time order.
    latency_ms: np.ndarray
    late_ms: np.ndarray
    backlog_growing: bool
    #: Latencies split into the slices whose p99s give :attr:`p99`.
    slices: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if not self.slices:
            self.slices = np.array_split(self.latency_ms, P99_SLICES)

    @classmethod
    def merge(cls, label: str, parts: list["WindowResult"]):
        """One result from windows sent at one rate at different times;
        each window is one slice."""
        return cls(
            label=label,
            rate=parts[0].rate,
            requests=sum(p.requests for p in parts),
            failed=sum(p.failed for p in parts),
            latency_ms=np.concatenate([p.latency_ms for p in parts]),
            late_ms=np.concatenate([p.late_ms for p in parts]),
            backlog_growing=any(p.backlog_growing for p in parts),
            slices=[p.latency_ms for p in parts],
        )

    @property
    def p50(self) -> float:
        return float(np.percentile(self.latency_ms, 50))

    @property
    def p99(self) -> float:
        return median(np.percentile(part, 99) for part in self.slices)

    @property
    def meets_limit(self) -> bool:
        return (
            self.failed == 0
            and not self.backlog_growing
            and self.p99 <= P99_LIMIT_MS
        )

    def summary(self) -> dict:
        return {
            "label": self.label,
            "rate_rps": self.rate,
            "requests": self.requests,
            "failed": self.failed,
            "p50_ms": self.p50,
            "p99_ms": self.p99,
            "slice_p99_ms": [float(np.percentile(part, 99))
                             for part in self.slices],
            "pooled_p99_ms": float(np.percentile(self.latency_ms, 99)),
            "late_p99_ms": float(np.percentile(self.late_ms, 99)),
            "backlog_growing": self.backlog_growing,
        }


@dataclass
class ServeResult:
    base: WindowResult
    high: WindowResult
    ladder: list[WindowResult]
    capacity_rps: float
    #: Process CPU seconds per answered request over the base- and
    #: high-rate windows (load generator and its checks included).
    cpu_s_per_request: float
    #: True when even the top ladder rate met the limit (capacity is then
    #: only a lower bound).
    capacity_saturated: bool
    serving_s: float
    stats: object
    late_ms: np.ndarray


class _Tenants:
    """Registered tenants, every version of each, and oracle digests."""

    def __init__(self, server: SpmvServer, inputs: Inputs):
        self.server = server
        self.inputs = inputs
        self.names = [f"t{i}-{name}" for i, name in enumerate(inputs.names)]
        #: Per tenant, (matrix, plan) of every registered version.
        self.versions: list[list[tuple[CooMatrix, object]]] = [
            [] for _ in inputs.names
        ]
        self._digests: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def register(self, tenant: int, matrix: CooMatrix, replace: bool):
        entry = self.server.register(
            self.names[tenant], matrix, replace=replace
        )
        self.versions[tenant].append((matrix, entry.plan))

    def current(self, tenant: int) -> int:
        return len(self.versions[tenant]) - 1

    def expected(self, tenant: int, version: int, tally: Tally):
        """Oracle digests of every pool operand for one tenant version."""
        key = (tenant, version)
        if key not in self._digests:
            matrix, plan = self.versions[tenant][version]
            oracle, reference = _oracle(plan), _csr(matrix)
            digests = []
            for x in self.inputs.pools[tenant]:
                y = oracle.matvec(x)
                if not np.allclose(y, reference @ x, rtol=RTOL, atol=ATOL):
                    tally.fail(f"{self.names[tenant]} v{version}: oracle "
                               f"differs from SciPy CSR")
                digests.append(_digest(y))
            self._digests[key] = digests
        return self._digests[key]


def _run_window(
    window: Window,
    tenants: _Tenants,
    tally: Tally,
    record: list,
) -> WindowResult:
    """Send one window open-loop and wait for every answer.

    Latency runs from each request's due time to its completion callback.
    Responses are fingerprinted by this thread while it waits for the
    next due time, so the worker never pays for checking; ``record`` collects
    ``(tenant, allowed versions, pool index, digest)`` per answer.
    """
    server, inputs = tenants.server, tenants.inputs
    count = window.due.size
    done_at = np.full(count, np.nan)
    sent_at = np.zeros(count)
    finished: deque = deque()

    def on_done(index: int, future) -> None:
        done_at[index] = clock()
        finished.append((index, future))

    #: Versions each request may have been served with: one submitted
    #: before the mid-window swap may run after it.
    allowed: list[tuple[int, ...]] = [()] * count
    outcomes: list = [None] * count

    def drain_one() -> None:
        index, future = finished.popleft()
        error = future.exception()
        outcomes[index] = error if error is not None else _digest(
            future.result()
        )

    start = clock() + 0.01
    due = start + window.due
    middle = count // 2
    for index in range(count):
        if index == middle:
            matrix = inputs.refreshed[REREGISTERED].with_data(
                window.reregister_values
            )
            tenants.register(REREGISTERED, matrix, replace=True)
        target = due[index]
        while len(finished) > _MAX_UNCHECKED:
            drain_one()
        while True:
            slack = target - clock()
            if slack <= 0:
                break
            if finished and slack > _CHECK_SLACK_S:
                drain_one()
            else:
                time.sleep(slack)
        tenant = int(window.tenant[index])
        pool = inputs.pools[tenant]
        version = tenants.current(tenant)
        allowed[index] = (
            (version, version + 1)
            if tenant == REREGISTERED and index < middle else (version,)
        )
        sent_at[index] = clock()
        try:
            future = server.submit(
                tenants.names[tenant],
                pool[window.pool_index[index]],
                deadline=target + DEADLINE_S,
            )
        except Exception as error:  # refused: counted, never raised
            outcomes[index] = error
            done_at[index] = clock()
            continue
        future.add_done_callback(partial(on_done, index))

    give_up = clock() + DEADLINE_S + 10.0
    while np.isnan(done_at).any() or finished:
        if finished:
            drain_one()
        elif clock() > give_up:
            break
        else:
            time.sleep(0.001)

    failed = 0
    latency = []
    for index in range(count):
        outcome = outcomes[index]
        tally.attempt()
        if outcome is None or isinstance(outcome, BaseException):
            failed += 1
            tally.fail(f"{window.label} request {index}: {outcome!r}",
                       wrong=False)
            continue
        latency.append(done_at[index] - due[index])
        record.append((int(window.tenant[index]), allowed[index],
                       int(window.pool_index[index]), outcome))
    latency_ms = np.asarray(latency) * 1e3
    quarter = max(1, latency_ms.size // 4)
    first = np.median(latency_ms[:quarter]) if latency_ms.size else 0.0
    last = np.median(latency_ms[-quarter:]) if latency_ms.size else 0.0
    return WindowResult(
        label=window.label,
        rate=window.rate,
        requests=count,
        failed=failed,
        latency_ms=latency_ms if latency_ms.size else np.zeros(1),
        late_ms=(sent_at - due) * 1e3,
        backlog_growing=bool(last > 2.0 * first + 2.0),
    )


def _capacity(ladder: list[WindowResult]) -> tuple[float, bool]:
    """Highest ladder rate meeting the limit, interpolated on p99.

    The knee is the first of two consecutive failing steps, so one step
    disturbed from outside does not end the probe.  Capacity sits where
    p99 crosses the limit between the last passing step below the knee
    and the knee; a knee that failed with p99 under the limit (errors, a
    growing backlog) puts it at that passing step.
    """
    knee = next(
        (i for i in range(len(ladder) - 1)
         if not ladder[i].meets_limit and not ladder[i + 1].meets_limit),
        None,
    )
    if knee is None:
        return ladder[-1].rate, True
    step, limit = ladder[knee], P99_LIMIT_MS
    passing = next(
        (s for s in reversed(ladder[:knee]) if s.meets_limit), None
    )
    if passing is None:
        return step.rate * min(1.0, limit / step.p99), False
    if step.p99 <= limit:
        return passing.rate, False
    share = (limit - passing.p99) / (step.p99 - passing.p99)
    return passing.rate + (step.rate - passing.rate) * share, False


def serve_stage(
    workload: Workload,
    inputs: Inputs,
    compiled: CompileStage,
    tally: Tally,
    untraced=nullcontext,
    between=lambda share: None,
) -> ServeResult:
    """Serve the corpus open-loop; check every response afterwards.

    ``between(share)`` runs after the warm-up and after each base-rate,
    high-rate and interleaved ladder window, while the server is idle and
    outside every serving measurement, with the share of those windows
    sent so far; the ladder steps after them run on their own."""
    registry = MatrixRegistry(
        cache=compiled.pipeline.cache, length=workload.length
    )
    server = SpmvServer(
        registry=registry,
        policy=BatchPolicy(max_queue=MAX_QUEUE),
        workers=1,
    )
    tenants = _Tenants(server, inputs)
    # Reverse order: the most recently cached patterns register first,
    # and the re-registered tenant ends as the newest entry.
    for tenant in reversed(range(len(inputs.names))):
        tenants.register(tenant, inputs.refreshed[tenant], replace=False)
    record: list = []
    base, high, ladder = [], [], []
    steps = iter(inputs.ladder)
    cpu_s = serving_s = 0.0
    # The warm-up, the base- and high-rate slices and one ladder step
    # after each pair.
    windows = 1 + 3 * len(inputs.base)
    sent = 0

    def serve(window: Window) -> tuple[WindowResult, float]:
        """Send one window, then run ``between``; returns the window's
        result and process CPU seconds."""
        nonlocal serving_s, sent
        cpu_started, started = time.process_time(), clock()
        result = _run_window(window, tenants, tally, record)
        serving_s += clock() - started
        cpu = time.process_time() - cpu_started
        sent += 1
        between(min(1.0, sent / windows))
        return result, cpu

    def probe() -> bool:
        window = next(steps, None)
        if window is None:
            return False
        ladder.append(serve(window)[0])
        return len(ladder) < 2 or any(
            step.meets_limit for step in ladder[-2:]
        )

    with server:
        serve(inputs.warmup)
        # Base- and high-rate slices alternate with the ladder's first
        # steps, so each figure samples the whole stage, not one moment.
        probing = True
        for base_slice, high_slice in zip(inputs.base, inputs.high):
            for results, window in ((base, base_slice), (high, high_slice)):
                result, cpu = serve(window)
                results.append(result)
                cpu_s += cpu
            probing = probing and probe()
        while probing:
            probing = probe()
    stats = server.stats()

    with untraced():
        for tenant, versions, pool_index, digest in record:
            if not any(
                digest == tenants.expected(tenant, v, tally)[pool_index]
                for v in versions
            ):
                tally.fail(f"{tenants.names[tenant]} v{versions[0]}: "
                           f"response differs from the oracle replay")
    capacity, saturated = _capacity(ladder)
    base = WindowResult.merge("base", base)
    high = WindowResult.merge("high", high)
    return ServeResult(
        base=base,
        high=high,
        ladder=ladder,
        capacity_rps=capacity,
        cpu_s_per_request=cpu_s / (base.latency_ms.size
                                   + high.latency_ms.size),
        capacity_saturated=saturated,
        serving_s=serving_s,
        stats=stats,
        late_ms=np.concatenate(
            [w.late_ms for w in [base, high, *ladder]]
        ),
    )
