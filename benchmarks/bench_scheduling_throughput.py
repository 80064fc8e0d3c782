"""Scheduling-throughput benchmark: vectorized engine vs. the seed path.

The paper amortizes preprocessing over SpMV replays (Section 3.3), so the
scheduling front end's wall clock decides how quickly that amortization
pays off.  This benchmark pits the vectorized batch engine
(:class:`repro.core.scheduler.GustScheduler`) against the frozen seed
implementation (:mod:`repro.graph._reference`: boolean-mask window
partition + pure-Python colorings + per-window scatter) on a 300k-nonzero,
``l = 64`` synthetic matrix and on a skewed social-graph surrogate
(``googleplus``, whose hub rows push greedy matching to hundreds of
rounds), and measures the pattern-keyed schedule cache's value-refresh
path against cold scheduling.

Acceptance gates (asserted when run as a script or under pytest):

* ``GustScheduler.schedule`` >= 5x faster than the seed path for all three
  flat-kernel algorithms — "matching", "first_fit", and "euler" (the
  optimal-coloring ablation, whose seed path runs one Python
  Hopcroft-Karp per window per color);
* "matching" on the skewed ``googleplus`` surrogate (``scale=256``,
  ``l = 256``) >= 1.5x faster than the seed path, on the median ratio of
  interleaved seed/vectorized repeats;
* cached re-scheduling of an unchanged pattern (new values) >= 50x faster
  than cold scheduling.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_scheduling_throughput.py

or via pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_scheduling_throughput.py -s
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro import GustPipeline, GustScheduler, uniform_random
from repro.core.load_balance import identity_balance
from repro.core.schedule import EMPTY
from repro.graph._reference import (
    REFERENCE_ALGORITHMS,
    reference_window_graphs,
)
from repro.sparse.coo import CooMatrix
from repro.sparse.datasets import load_dataset

#: Headline configuration: 300k nonzeros (~4.6 nonzeros/row, circuit- and
#: mesh-like sparsity), length 64 — the regime where preprocessing cost
#: dominates, windows are plentiful, and the euler ablation peels several
#: matchings per window.
DIM = 65536
TARGET_NNZ = 300_000
LENGTH = 64
SEED = 3

MIN_SCHEDULING_SPEEDUP = 5.0
MIN_CACHE_SPEEDUP = 50.0

#: Skewed row: few windows, hub rows, hundreds of matching rounds.
SKEWED_DATASET = "googleplus"
SKEWED_SCALE = 256
SKEWED_LENGTH = 256
SKEWED_REPEATS = 7
MIN_SKEWED_SPEEDUP = 1.5


def seed_schedule(matrix: CooMatrix, length: int, algorithm: str) -> tuple:
    """The full seed scheduling path, reproduced from the pre-vectorization
    implementation: mask partition, per-window Python coloring, per-window
    scatter into M_sch / Row_sch / Col_sch."""
    balanced = identity_balance(matrix, length)
    graphs = reference_window_graphs(balanced, length)
    color_fn = REFERENCE_ALGORITHMS[algorithm]
    colorings = [color_fn(graph) for graph in graphs]
    counts = [int(c.max()) + 1 if c.size else 0 for c in colorings]
    total = int(sum(counts))
    m_sch = np.zeros((total, length), dtype=np.float64)
    row_sch = np.full((total, length), EMPTY, dtype=np.int64)
    col_sch = np.full((total, length), EMPTY, dtype=np.int64)
    offset = 0
    for graph, colors, span in zip(graphs, colorings, counts):
        if graph.edge_count:
            steps = offset + colors
            m_sch[steps, graph.colsegs] = graph.values
            row_sch[steps, graph.colsegs] = graph.local_rows
            col_sch[steps, graph.colsegs] = graph.cols
        offset += span
    return tuple(counts), m_sch, row_sch, col_sch


def _elapsed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _best_of(fn, repeats: int) -> float:
    return min(_elapsed(fn) for _ in range(repeats))


def measure_scheduling(matrix: CooMatrix) -> dict[str, dict[str, float]]:
    """Seed vs. vectorized wall clock for every flat-kernel algorithm."""
    results: dict[str, dict[str, float]] = {}
    for algorithm in ("matching", "first_fit", "euler"):
        scheduler = GustScheduler(LENGTH, algorithm=algorithm)
        # Correctness first: identical per-window color counts.
        seed_counts = seed_schedule(matrix, LENGTH, algorithm)[0]
        vector_counts = scheduler.schedule(matrix).window_colors
        assert vector_counts == seed_counts, (
            f"{algorithm}: vectorized color counts diverge from seed"
        )
        seed_s = _best_of(lambda: seed_schedule(matrix, LENGTH, algorithm), 3)
        vector_s = _best_of(lambda: scheduler.schedule(matrix), 7)
        results[algorithm] = {
            "seed_s": seed_s,
            "vectorized_s": vector_s,
            "speedup": seed_s / vector_s,
        }
    return results


def measure_skewed() -> dict[str, float]:
    """Seed vs. vectorized "matching" on the skewed surrogate.

    Seed and vectorized runs alternate, so drift on a shared machine hits
    both sides alike; the gate takes the median of the per-pair ratios.
    """
    matrix = load_dataset(SKEWED_DATASET, scale=SKEWED_SCALE)
    scheduler = GustScheduler(SKEWED_LENGTH, algorithm="matching")
    seed_counts = seed_schedule(matrix, SKEWED_LENGTH, "matching")[0]
    assert scheduler.schedule(matrix).window_colors == seed_counts, (
        "skewed: vectorized color counts diverge from seed"
    )
    seed_times, vector_times = [], []
    for _ in range(SKEWED_REPEATS):
        seed_times.append(
            _elapsed(lambda: seed_schedule(matrix, SKEWED_LENGTH, "matching"))
        )
        vector_times.append(_elapsed(lambda: scheduler.schedule(matrix)))
    ratios = np.asarray(seed_times) / np.asarray(vector_times)
    return {
        "nnz": matrix.nnz,
        "seed_s": float(np.median(seed_times)),
        "vectorized_s": float(np.median(vector_times)),
        "speedup": float(np.median(ratios)),
    }


def measure_cache(matrix: CooMatrix) -> dict[str, float]:
    """Cold preprocessing vs. cached same-pattern value refresh."""
    cold_pipeline = GustPipeline(LENGTH)
    cold_s = _best_of(lambda: cold_pipeline.preprocess(matrix), 3)
    pipeline = GustPipeline(LENGTH, cache=True)
    pipeline.preprocess(matrix)  # prime
    rng = np.random.default_rng(SEED + 1)
    refresh_s = float("inf")
    for _ in range(7):
        updated = matrix.with_data(rng.uniform(0.5, 1.5, size=matrix.nnz))
        started = time.perf_counter()
        _, _, report = pipeline.preprocess(updated)
        refresh_s = min(refresh_s, time.perf_counter() - started)
        assert report.notes["cache_refresh"] == 1.0, "expected a cache refresh"
    return {
        "cold_s": cold_s,
        "refresh_s": refresh_s,
        "speedup": cold_s / refresh_s,
    }


def run() -> tuple[dict, dict, dict]:
    matrix = uniform_random(DIM, DIM, TARGET_NNZ / (DIM * DIM), seed=SEED)
    print(
        f"matrix: {DIM}x{DIM}, nnz={matrix.nnz}, length={LENGTH} "
        f"({matrix.nnz / DIM:.2f} nnz/row)"
    )
    scheduling = measure_scheduling(matrix)
    print(f"{'algorithm':<12} {'seed':>10} {'vectorized':>12} {'speedup':>9}")
    for algorithm, r in scheduling.items():
        print(
            f"{algorithm:<12} {r['seed_s'] * 1e3:>8.1f}ms "
            f"{r['vectorized_s'] * 1e3:>10.1f}ms {r['speedup']:>8.1f}x"
        )
    skewed = measure_skewed()
    print(
        f"{'matching*':<12} {skewed['seed_s'] * 1e3:>8.1f}ms "
        f"{skewed['vectorized_s'] * 1e3:>10.1f}ms {skewed['speedup']:>8.1f}x  "
        f"(*{SKEWED_DATASET} scale={SKEWED_SCALE}, l={SKEWED_LENGTH}, "
        f"nnz={skewed['nnz']}; median of {SKEWED_REPEATS} pairs)"
    )
    cache = measure_cache(matrix)
    print(
        f"{'cache':<12} {cache['cold_s'] * 1e3:>8.1f}ms "
        f"{cache['refresh_s'] * 1e3:>10.2f}ms {cache['speedup']:>8.1f}x  "
        "(cold vs value-refresh)"
    )
    return scheduling, skewed, cache


def test_scheduling_throughput():
    """Pytest entry point enforcing the acceptance thresholds."""
    scheduling, skewed, cache = run()
    for algorithm, r in scheduling.items():
        assert r["speedup"] >= MIN_SCHEDULING_SPEEDUP, (
            f"{algorithm}: {r['speedup']:.1f}x < {MIN_SCHEDULING_SPEEDUP}x"
        )
    assert skewed["speedup"] >= MIN_SKEWED_SPEEDUP, (
        f"skewed matching: {skewed['speedup']:.2f}x < {MIN_SKEWED_SPEEDUP}x"
    )
    assert cache["speedup"] >= MIN_CACHE_SPEEDUP, (
        f"cache refresh: {cache['speedup']:.1f}x < {MIN_CACHE_SPEEDUP}x"
    )


if __name__ == "__main__":
    try:
        test_scheduling_throughput()
    except AssertionError as error:
        print(f"FAILED: {error}", file=sys.stderr)
        sys.exit(1)
    print(
        f"PASS: scheduling >= {MIN_SCHEDULING_SPEEDUP:.0f}x, "
        f"skewed matching >= {MIN_SKEWED_SPEEDUP}x, "
        f"cache refresh >= {MIN_CACHE_SPEEDUP:.0f}x"
    )
