"""Run one workload and turn its stages into the benchmark's metrics.

An untraced run (``--trace 0``) reports the end-to-end metrics.  A traced
run (``--trace 1``) runs the compile and replay stages untraced, then all
three stages under :class:`~perfbench.probes.Probes`, and reports the
per-layer metrics; the traced stage times against the untraced ones give
``trace.overhead``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from repro.core.load_balance import LoadBalancer
from repro.core.store import DiskScheduleStore
from repro.obs import trace as _trace

from perfbench import probes as _probes
from perfbench.stages import (
    CompileStage,
    ReplayResult,
    ReplayStage,
    ServeResult,
    Tally,
    clock,
    median,
    pace,
    serve_stage,
)
from perfbench.workloads import (
    MATMAT_K,
    WORKLOADS,
    Workload,
    build_inputs,
    generate_corpus,
)

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "compile_nnz_per_s": "nnz/s",
    "sim_utilization": "ratio",
    "refresh_s": "s",
    "matvec_nnz_per_s": "nnz/s",
    "matmat_nnz_per_s": "nnz.col/s",
    "serve_cpu_us_per_req": "us",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "load_balance.s": "s",
    "scheduler.s": "s",
    "partition.s": "s",
    "coloring.s": "s",
    "scatter.s": "s",
    "scheduler.share": "ratio",
    "scheduler.colors": "count",
    "scheduler.colors_over_bound": "ratio",
    "plan_build.s": "s",
    "plan.segments": "count",
    "kernel_compile.s": "s",
    "matvec.s": "s",
    "matmat.s": "s",
    "matvec.flops": "count",
    "matvec.bytes": "B",
    "cache.fetch_s": "s",
    "cache.hit_rate": "ratio",
    "cache.refreshes": "count",
    "cache.misses": "count",
    "cache.evictions": "count",
    "cache.disk_load_s": "s",
    "store.read_s": "s",
    "store.write_s": "s",
    "store.bytes": "B",
    "store.disk_hits": "count",
    "register.s": "s",
    "reregister.s": "s",
    "submit.s": "s",
    "serve.assemble.s": "s",
    "serve.kernel.s": "s",
    "serve.settle.s": "s",
    "queue_wait_ms.p50": "ms",
    "queue_wait_ms.p99": "ms",
    "worker.busy_ratio": "ratio",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "latency_p99_ms.high": "ms",
    "capacity_rps": "req/s",
    "batch.mean_size": "count",
    "server.rejected": "count",
    "server.deadline_expired": "count",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead": "ratio",
}

#: Corpus generation repeats at least this many times, and until the
#: repeats add up to ``MIN_SETUP_S``; ``setup_s`` is their median.
SETUP_REPEATS = 5
MIN_SETUP_S = 2.0
#: Share of ``--seconds`` spent in replay sweeps (half matvec, half
#: matmat); the serving windows take about as long again (workloads.py).
REPLAY_SHARE = 0.6


@dataclass
class Pass:
    compiled: CompileStage
    replay: ReplayResult
    serve: ServeResult | None


class _Setup:
    """Generations of the corpus by the program's own generators; the
    benchmark's own draws of values, operands and arrivals are not part
    of ``setup_s``.  The first gives the run its inputs, and the rest are
    paced over the run."""

    def __init__(self, workload: Workload, seed: int):
        self.workload, self.seed = workload, seed
        self.times: list[float] = []

    def generate(self):
        started = clock()
        corpus = generate_corpus(self.workload.name, self.seed)
        self.times.append(clock() - started)
        return corpus

    def advance(self, share: float) -> None:
        pace(self.times, share, MIN_SETUP_S, SETUP_REPEATS, self.generate)


def _run_pass(workload, inputs, seconds, workdir, tally, serve,
              untraced=nullcontext, also=lambda share: None,
              repeat=True) -> Pass:
    """Compile, then serve with the further compile passes (with
    ``repeat``), the replay rounds and ``also`` paced between the serving
    windows (without serving, back to back)."""
    with _trace.span("bench.stage.compile", cat="bench"):
        compiled = CompileStage(workload, inputs, workdir, tally, untraced,
                                repeat=repeat)
    replay = ReplayStage(
        inputs, compiled, seconds * REPLAY_SHARE, tally, untraced
    )

    def between(share: float) -> None:
        also(share)
        with _trace.span("bench.stage.compile", cat="bench"):
            compiled.advance(share)
        replay.advance(share)

    served = None
    if serve:
        with _trace.span("bench.stage.serve", cat="bench"):
            served = serve_stage(workload, inputs, compiled, tally,
                                 untraced, between=between)
    between(1.0)
    return Pass(compiled, replay.result(), served)


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def _end_to_end(run: Pass, inputs, setup_times: list[float]) -> dict:
    compiled, replay, served = run.compiled, run.replay, run.serve
    nnz = compiled.nnz
    corpus = len(inputs.matrices)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (median(setup_times), len(setup_times)),
        "peak_rss_mb": (peak_kb / 1024.0, 1),
        "compile_nnz_per_s": (nnz / compiled.cold_s,
                              sum(map(len, compiled.cold_times))),
        "sim_utilization": (compiled.utilization, corpus),
        "refresh_s": (compiled.refresh_s,
                      sum(map(len, compiled.refresh_times))),
        "matvec_nnz_per_s": (nnz / replay.matvec_s, replay.matvec_sweeps),
        "matmat_nnz_per_s": (nnz * MATMAT_K / replay.matmat_s,
                             replay.matmat_sweeps),
        "serve_cpu_us_per_req": (
            served.cpu_s_per_request * 1e6,
            served.base.latency_ms.size + served.high.latency_ms.size,
        ),
        **_serving(served),
    }
    units = {**PER_LAYER, **END_TO_END}
    return {name: _metric(value, units[name], samples)
            for name, (value, samples) in values.items()}


def _serving(served: ServeResult) -> dict:
    """Latency at the base and high rates, and capacity, with sample
    counts.

    Every run reports these, but only as per-layer metrics, which carry
    no bound: on a shared two-CPU machine they follow the host's
    scheduling more than the program (see README.md).
    """
    return {
        "latency_p50_ms": (served.base.p50, served.base.latency_ms.size),
        "latency_p99_ms": (served.base.p99, served.base.latency_ms.size),
        "latency_p99_ms.high": (served.high.p99,
                                served.high.latency_ms.size),
        "capacity_rps": (served.capacity_rps, len(served.ladder)),
    }


def _stage_times(run: Pass) -> list[float]:
    return [
        run.compiled.cold_s,
        run.compiled.refresh_s,
        run.replay.matvec_s,
        run.replay.matmat_s,
    ]


def _cache_totals(compiled: CompileStage) -> dict:
    stats = compiled.cache_stats()
    lookups = sum(s.lookups for s in stats)
    hits = sum(s.hits + s.refreshes for s in stats)
    return {
        "cache.hit_rate": hits / lookups if lookups else 0.0,
        "cache.refreshes": sum(s.refreshes for s in stats),
        "cache.misses": sum(s.misses for s in stats),
        "cache.evictions": sum(s.evictions for s in stats),
        "store.disk_hits": sum(s.disk_hits for s in stats),
    }


def _replay_bytes(handles) -> int:
    """Bytes one matvec sweep moves, computed from array sizes: each
    plan's value, gather-index and segment arrays plus x and y."""
    total = 0
    for handle in handles:
        plan = handle.plan
        m, n = plan.shape
        total += (plan.values.nbytes + plan.sources.nbytes
                  + plan.seg_starts.nbytes + plan.seg_rows.nbytes
                  + 8 * (m + n))
    return total


def _per_layer(workload, inputs, traced: Pass, untraced: Pass,
               summary: _probes.SpanSummary, queue_wait_ms) -> dict:
    compiled, replay, served = traced.compiled, traced.replay, traced.serve
    stats = served.stats
    length = workload.length
    bounds = sum(
        sum(LoadBalancer(length).balance(m).color_lower_bounds(length))
        for m in inputs.matrices
    )
    ratios = [
        t / u for t, u in zip(_stage_times(traced), _stage_times(untraced))
    ]
    store_bytes = (
        DiskScheduleStore(compiled.store_dir).total_bytes()
        if compiled.store_dir is not None else 0
    )
    total = summary.total
    values = {
        "load_balance.s": total("bench.load_balance"),
        "scheduler.s": total("bench.schedule_balanced"),
        "partition.s": total("compile.partition"),
        "coloring.s": total("compile.coloring"),
        "scatter.s": total("compile.scatter"),
        "scheduler.share": (
            total("bench.schedule_balanced", stage="compile")
            / compiled.compile_s
        ),
        "scheduler.colors": compiled.colors,
        "scheduler.colors_over_bound": compiled.colors / bounds,
        "plan_build.s": total("bench.plan_build"),
        "plan.segments": sum(h.stats.segments for h in compiled.handles),
        "kernel_compile.s": total("bench.kernel_compile"),
        "matvec.s": total("bench.matvec") / replay.matvec_sweeps,
        "matmat.s": total("bench.matmat") / replay.matmat_sweeps,
        "matvec.flops": 2 * compiled.nnz,
        "matvec.bytes": _replay_bytes(compiled.handles),
        "cache.fetch_s": total("bench.cache_fetch"),
        "cache.disk_load_s": total("cache.disk_load"),
        "store.read_s": total("store.read"),
        "store.write_s": total("store.write"),
        "store.bytes": store_bytes,
        "register.s": total("bench.register"),
        "reregister.s": total("bench.reregister"),
        "submit.s": total("bench.submit"),
        "serve.assemble.s": total("serve.assemble"),
        "serve.kernel.s": total("serve.kernel"),
        "serve.settle.s": total("serve.settle"),
        "queue_wait_ms.p50": float(np.percentile(queue_wait_ms, 50)),
        "queue_wait_ms.p99": float(np.percentile(queue_wait_ms, 99)),
        "worker.busy_ratio": total("serve.batch") / served.serving_s,
        **{name: value for name, (value, _) in _serving(served).items()},
        "batch.mean_size": stats.mean_batch_size,
        "server.rejected": stats.rejected,
        "server.deadline_expired": stats.deadline_expired,
        "loadgen.late_p99_ms": float(np.percentile(served.late_ms, 99)),
        "trace.overhead": math.exp(
            sum(math.log(r) for r in ratios) / len(ratios)
        ),
        **_cache_totals(compiled),
    }
    samples = {
        "matvec.s": replay.matvec_sweeps,
        "matmat.s": replay.matmat_sweeps,
        "queue_wait_ms.p50": len(queue_wait_ms),
        "queue_wait_ms.p99": len(queue_wait_ms),
        "loadgen.late_p99_ms": served.late_ms.size,
        "trace.overhead": len(ratios),
        **{name: count for name, (_, count) in _serving(served).items()},
    }
    return {
        name: _metric(values[name], PER_LAYER[name],
                      samples.get(name, summary.count(_SPAN_OF.get(name))))
        for name in PER_LAYER
    }


#: Per-layer metric -> the span whose count is its sample count.
_SPAN_OF = {
    "load_balance.s": "bench.load_balance",
    "scheduler.s": "bench.schedule_balanced",
    "partition.s": "compile.partition",
    "coloring.s": "compile.coloring",
    "scatter.s": "compile.scatter",
    "plan_build.s": "bench.plan_build",
    "kernel_compile.s": "bench.kernel_compile",
    "cache.fetch_s": "bench.cache_fetch",
    "cache.disk_load_s": "cache.disk_load",
    "store.read_s": "store.read",
    "store.write_s": "store.write",
    "register.s": "bench.register",
    "reregister.s": "bench.reregister",
    "submit.s": "bench.submit",
    "serve.assemble.s": "serve.assemble",
    "serve.kernel.s": "serve.kernel",
    "serve.settle.s": "serve.settle",
    "worker.busy_ratio": "serve.batch",
}


def _git_commit(root: Path) -> str | None:
    """HEAD of ``root`` when ``root`` is itself a git checkout."""
    try:
        found = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(found) != 2 or Path(found[0]).resolve() != root.resolve():
        return None
    return found[1]


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(root: Path, backends: list[str]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "backends": backends,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }


def run(root: Path, workload_name: str, seed: int, seconds: float,
        trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (contract line, full result record)."""
    workload = WORKLOADS[workload_name]
    work_root = root / "perfbench" / "_work"
    work_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    tally = Tally()
    extra: dict = {}
    try:
        setup = _Setup(workload, seed)
        inputs = build_inputs(workload, seed, seconds, setup.generate())
        if not trace:
            result = _run_pass(workload, inputs, seconds, workdir, tally,
                               serve=True, also=setup.advance)
            metrics = _end_to_end(result, inputs, setup.times)
        else:
            # One pass of each compile kind on both sides: the per-layer
            # figures are totals, and a second timed pass would only
            # lengthen the run.
            untraced = _run_pass(workload, inputs, seconds, workdir,
                                 tally, serve=False, repeat=False)
            probes = _probes.Probes()
            with probes:
                result = _run_pass(workload, inputs, seconds, workdir,
                                   tally, serve=True,
                                   untraced=probes.paused, repeat=False)
            summary = _probes.summarize(probes.tracer)
            metrics = _per_layer(workload, inputs, result, untraced,
                                 summary, probes.queue_wait_ms)
            extra["layers"] = [row.as_dict() for row in sorted(
                summary.rows.values(), key=lambda r: -r.total_s)]
            extra["trace_dropped"] = summary.dropped
            extra["trace"] = (probes.tracer, summary)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    served = result.serve
    contract = PER_LAYER if trace else END_TO_END
    line = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name]["value"],
                           "unit": metrics[name]["unit"]}
                    for name in contract},
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
        "fingerprint": fingerprint(root, result.compiled.backends),
        "corpus": [{"name": n, "shape": list(m.shape), "nnz": m.nnz}
                   for n, m in zip(inputs.names, inputs.matrices)],
        "fail_ratio": tally.failed / max(1, tally.attempted),
        "failures": tally.reasons,
        "metrics": metrics,
        "serve_windows": [w.summary() for w in
                          [served.base, served.high, *served.ladder]],
        "capacity_saturated": served.capacity_saturated,
        **extra,
    }
    return line, record


def write_record(root: Path, record: dict) -> Path:
    """Write the full record (and, for traced runs, the Chrome trace and
    per-layer table) under ``perfbench/results``."""
    out = root / "perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = out / (f"{record['workload']}-seed{record['seed']}"
                  f"-trace{int(record['traced'])}")
    traced = record.pop("trace", None)
    if traced is not None:
        _probes.export(*traced, stem)
    path = stem.with_name(stem.name + ".json")
    path.write_text(json.dumps(record, indent=1, default=str))
    return path
