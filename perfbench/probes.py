"""Traced runs: spans around each layer's public calls, and their summary.

:class:`Probes` installs a :class:`repro.obs.trace.Tracer` ambiently, so
the spans the program already emits (``compile.*``, ``store.*``,
``cache.disk_load``, ``serve.*``) land in it, and wraps the public entry
point of each layer so its calls are timed from outside as ``bench.*``
spans in the same tracer.  Nothing under ``src/`` changes; the wrappers
are removed when the context exits.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from pathlib import Path

import numpy as np

import repro.core.pipeline as pipeline_module
import repro.serve.server as server_module
from repro.core.cache import ScheduleCache
from repro.core.compiled import CompiledSpmv
from repro.core.load_balance import LoadBalancer
from repro.core.plan import ExecutionPlan
from repro.core.scheduler import GustScheduler
from repro.core.store import DiskScheduleStore
from repro.obs import trace as _trace
from repro.serve.registry import MatrixRegistry
from repro.serve.server import SpmvServer

from perfbench.stages import clock

#: Enough for every span of one traced run (serving emits a few per
#: request); a dropped span would bias the per-layer sums.
TRACE_CAPACITY = 1 << 19

#: (span name, owner, attribute) of each layer entry point timed from
#: outside.  ``pipeline_module.compile_plan`` is the name the pipeline
#: calls, so patching it there times every kernel compile of a handle.
_TARGETS = (
    ("bench.load_balance", LoadBalancer, "balance"),
    ("bench.schedule_balanced", GustScheduler, "schedule_balanced"),
    ("bench.plan_build", ExecutionPlan, "from_schedule"),
    ("bench.kernel_compile", pipeline_module, "compile_plan"),
    ("bench.matvec", CompiledSpmv, "matvec"),
    ("bench.matmat", CompiledSpmv, "matmat"),
    ("bench.cache_fetch", ScheduleCache, "fetch"),
    ("bench.store_load", DiskScheduleStore, "load"),
    ("bench.store_store", DiskScheduleStore, "store"),
    ("bench.register", MatrixRegistry, "register"),
    ("bench.submit", SpmvServer, "submit"),
)


def _timed(name: str, function):
    if name == "bench.register":
        @wraps(function)
        def register(*args, **kwargs):
            label = "bench.reregister" if kwargs.get("replace") else name
            with _trace.span(label, cat="bench"):
                return function(*args, **kwargs)
        return register

    @wraps(function)
    def timed(*args, **kwargs):
        with _trace.span(name, cat="bench"):
            return function(*args, **kwargs)
    return timed


class Probes:
    """Context manager: ambient tracer plus layer wrappers.

    ``queue_wait_ms`` collects, per served request, the time from its
    admission to the start of the batch that ran it.
    """

    def __init__(self):
        self.tracer = _trace.Tracer(capacity=TRACE_CAPACITY)
        self.queue_wait_ms: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def __enter__(self) -> "Probes":
        for name, owner, attribute in _TARGETS:
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                replacement = classmethod(_timed(name, original.__func__))
            else:
                replacement = _timed(name, original)
            self._patch(owner, attribute, replacement)

        run_batch = server_module.run_batch
        waits = self.queue_wait_ms

        @wraps(run_batch)
        def timed_batch(entry, batch, *args, **kwargs):
            started = clock()
            waits.extend((started - r.enqueued) * 1e3 for r in batch)
            return run_batch(entry, batch, *args, **kwargs)

        self._patch(server_module, "run_batch", timed_batch)
        self._previous = _trace.install(self.tracer)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _trace.install(self._previous)
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    @contextmanager
    def paused(self):
        """Record nothing inside the block (used around output checks)."""
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = True


@dataclass
class SpanRow:
    name: str
    count: int
    total_s: float
    self_s: float
    p50_s: float
    p99_s: float

    def as_dict(self) -> dict:
        return {
            "name": self.name, "count": self.count, "total_s": self.total_s,
            "self_s": self.self_s, "p50_s": self.p50_s, "p99_s": self.p99_s,
        }


@dataclass
class SpanSummary:
    rows: dict[str, SpanRow]
    #: Per span name, seconds spent inside each ``bench.stage.*`` span
    #: (the innermost one around it).
    by_stage: dict[str, dict[str, float]]
    dropped: int

    def total(self, name: str, stage: str | None = None) -> float:
        if stage is not None:
            return self.by_stage.get(stage, {}).get(name, 0.0)
        row = self.rows.get(name)
        return row.total_s if row else 0.0

    def count(self, name: str) -> int:
        row = self.rows.get(name)
        return row.count if row else 0

    def table(self) -> str:
        lines = [f"{'span':<28}{'count':>8}{'total s':>11}{'self s':>11}"
                 f"{'p50 ms':>10}{'p99 ms':>10}"]
        for row in sorted(self.rows.values(), key=lambda r: -r.total_s):
            lines.append(
                f"{row.name:<28}{row.count:>8}{row.total_s:>11.4f}"
                f"{row.self_s:>11.4f}{row.p50_s * 1e3:>10.3f}"
                f"{row.p99_s * 1e3:>10.3f}"
            )
        return "\n".join(lines)


def summarize(tracer: _trace.Tracer) -> SpanSummary:
    """Count, total, self time and p50/p99 per span name.

    A span's self time is its duration minus that of its direct children
    (spans of the same thread that start and end inside it); spans of one
    thread never partly overlap, so the children's durations add up.
    """
    spans = [e for e in tracer.events() if e["ph"] == "X"]
    durations: dict[str, list[float]] = {}
    self_time: dict[str, float] = {}
    by_stage: dict[str, dict[str, float]] = {}
    for event in spans:
        durations.setdefault(event["name"], []).append(event["dur_s"])
        self_time.setdefault(event["name"], 0.0)
        self_time[event["name"]] += event["dur_s"]
    by_thread: dict[int, list[dict]] = {}
    for event in spans:
        by_thread.setdefault(event["tid"], []).append(event)
    for events in by_thread.values():
        events.sort(key=lambda e: (e["ts_s"], -e["dur_s"]))
        open_spans: list[dict] = []
        for event in events:
            end = event["ts_s"] + event["dur_s"]
            while open_spans and (
                open_spans[-1]["ts_s"] + open_spans[-1]["dur_s"]
                < end - 1e-12
            ):
                open_spans.pop()
            if open_spans:
                self_time[open_spans[-1]["name"]] -= event["dur_s"]
                inner = next((s["name"] for s in reversed(open_spans)
                              if s["name"].startswith("bench.stage.")), None)
                if inner is not None:
                    stage = by_stage.setdefault(inner[len("bench.stage."):],
                                                {})
                    stage[event["name"]] = (
                        stage.get(event["name"], 0.0) + event["dur_s"]
                    )
            open_spans.append(event)
    rows = {
        name: SpanRow(
            name=name,
            count=len(values),
            total_s=float(sum(values)),
            self_s=self_time[name],
            p50_s=float(np.percentile(values, 50)),
            p99_s=float(np.percentile(values, 99)),
        )
        for name, values in durations.items()
    }
    return SpanSummary(rows=rows, by_stage=by_stage, dropped=tracer.dropped)


def export(tracer: _trace.Tracer, summary: SpanSummary, stem: Path) -> None:
    """Write ``<stem>.chrome.json`` and ``<stem>.layers.{json,txt}``."""
    tracer.export(stem.with_name(stem.name + ".chrome.json"))
    stem.with_name(stem.name + ".layers.json").write_text(json.dumps(
        {
            "dropped": summary.dropped,
            "spans": [row.as_dict() for row in summary.rows.values()],
            "by_stage": summary.by_stage,
        },
        indent=1,
    ))
    stem.with_name(stem.name + ".layers.txt").write_text(
        summary.table() + "\n"
    )
