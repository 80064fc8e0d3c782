"""The benchmark's workloads and the seeded inputs each one runs on.

A workload is a matrix corpus, the cache regime it is compiled under and
the open-loop traffic it is served with.  Every workload runs the same
three stages (see ``stages.py``), so every end-to-end metric exists on
every workload; what differs is which layer the inputs stress.

Everything here is a pure function of ``seed``: the same seed gives the
same matrices, vectors and arrival times.  Patterns of the paper's named
surrogates are fixed by the dataset registry (they stand for fixed real
matrices); the seed draws their values.  Generator-made patterns take the
seed directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.coo import CooMatrix
from repro.sparse.datasets import figure7_suite, load_dataset, serpens_suite
from repro.sparse.generators import uniform_random

#: Right-hand-side width of the ``matmat`` replay and its checks.
MATMAT_K = 16
#: Distinct operand vectors per tenant (requests cycle through them).
POOL_SIZE = 16
#: Slices the base-rate and high-rate traffic are sent in.
SLICES = 4
#: Tenant re-registered in every serving window.  Tenants register in
#: reverse corpus order, so this one's pattern is the newest cache entry.
REREGISTERED = 0


#: Open-loop rates, req/s: the base rate and the high rate.
BASE_RPS = 1500.0
HIGH_RPS = 3000.0
#: Capacity probe rates, 25% apart from 2000 req/s: the knee moves by a
#: factor of a few with the load other tenants of the machine put on it.
#: The probe stops after two consecutive rates miss the limit.
LADDER = tuple(float(round(2000 * 1.25**i, -2)) for i in range(11))
#: p99 a ladder rate must meet: above the few-ms tail that a busy shared
#: machine adds at any load, below the tens of ms a growing queue gives.
P99_LIMIT_MS = 25.0
#: Per-request deadline, seconds after the request was due: long enough
#: that the ladder's two steps past the knee queue rather than expire.
DEADLINE_S = 5.0
#: Per-tenant queue bound; large so a ladder step past the knee shows as
#: latency, not as refused requests.
MAX_QUEUE = 8192


@dataclass(frozen=True)
class Workload:
    name: str
    length: int
    #: Cold compiles write through a fresh on-disk store and the refresh
    #: stage reads it back from a fresh pipeline (the warm start).
    use_store: bool


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="table3_compile",
            length=256,
            use_store=True,
        ),
        Workload(
            name="replay_steady",
            length=64,
            use_store=False,
        ),
    )
}


def _fresh_values(rng: np.random.Generator, nnz: int) -> np.ndarray:
    # Same range as the in-repo generators; never zero, so with_data holds.
    return rng.uniform(0.1, 1.0, nnz)


def generate_corpus(name: str, seed: int) -> list[tuple[str, CooMatrix]]:
    """The workload's matrices, in compile order, from the program's own
    generators (the part of set-up ``setup_s`` times)."""
    if name == "table3_compile":
        return [(s.name, load_dataset(s.name, scale=256))
                for s in serpens_suite()]
    if name == "replay_steady":
        corpus = [(s.name, load_dataset(s.name, scale=64))
                  for s in figure7_suite()]
        dim = 65536
        corpus.append(
            ("uniform-65536", uniform_random(dim, dim, 4.6 / dim, seed=seed))
        )
        return corpus
    raise KeyError(name)


@dataclass
class Window:
    """One open-loop serving window at a fixed rate."""

    label: str
    rate: float
    #: Due times in seconds from the window start, ascending.
    due: np.ndarray
    tenant: np.ndarray
    pool_index: np.ndarray
    #: New values for the re-registered tenant, sent mid-window.
    reregister_values: np.ndarray


@dataclass
class Inputs:
    names: list[str]
    #: First-version matrices (cold compile).
    matrices: list[CooMatrix]
    #: Same patterns, new values (refresh stage, then served).
    refreshed: list[CooMatrix]
    vectors: list[np.ndarray]
    blocks: list[np.ndarray]
    #: Per tenant, ``(POOL_SIZE, n)`` request operands.
    pools: list[np.ndarray]
    #: Served first and not reported: lets lazy set-up finish.
    warmup: Window
    #: Slices of the base-rate and high-rate traffic, sent apart.
    base: list[Window]
    high: list[Window]
    ladder: list[Window]

    @property
    def nnz(self) -> int:
        return sum(m.nnz for m in self.matrices)


def _window(
    label: str,
    rate: float,
    seconds: float,
    mix: tuple[float, ...],
    nnz: int,
    rng: np.random.Generator,
) -> Window:
    count = max(1, int(round(rate * seconds)))
    due = np.cumsum(rng.exponential(1.0 / rate, count))
    tenants = len(mix)
    return Window(
        label=label,
        rate=rate,
        due=due,
        tenant=rng.choice(tenants, size=count, p=np.asarray(mix)),
        pool_index=rng.integers(0, POOL_SIZE, size=count),
        reregister_values=_fresh_values(rng, nnz),
    )


def build_inputs(
    workload: Workload,
    seed: int,
    seconds: float,
    corpus: list[tuple[str, CooMatrix]],
) -> Inputs:
    """Generate every other input of one run from ``seed`` around the
    ``corpus`` that :func:`generate_corpus` made.

    ``seconds`` sizes the serving windows: the base-rate traffic is a
    fifth of the run in four slices, the high-rate traffic an eighth in
    four slices, each ladder step a twenty-fourth, and the warm-up before
    them a fortieth.
    """
    rng = np.random.default_rng(seed)
    names = [name for name, _ in corpus]
    matrices = [m.with_data(_fresh_values(rng, m.nnz)) for _, m in corpus]
    refreshed = [m.with_data(_fresh_values(rng, m.nnz)) for m in matrices]
    vectors = [rng.standard_normal(m.shape[1]) for m in matrices]
    blocks = [rng.standard_normal((m.shape[1], MATMAT_K)) for m in matrices]
    pools = [rng.standard_normal((POOL_SIZE, m.shape[1])) for m in matrices]
    nnz = matrices[REREGISTERED].nnz
    # Every tenant gets an equal share of the traffic.
    mix = (1.0 / len(matrices),) * len(matrices)
    return Inputs(
        names=names,
        matrices=matrices,
        refreshed=refreshed,
        vectors=vectors,
        blocks=blocks,
        pools=pools,
        warmup=_window("warmup", BASE_RPS, seconds / 40, mix, nnz, rng),
        base=[_window(f"base-{i}", BASE_RPS, seconds / 20, mix, nnz, rng)
              for i in range(SLICES)],
        high=[_window(f"high-{i}", HIGH_RPS, seconds / 32, mix, nnz, rng)
              for i in range(SLICES)],
        ladder=[
            _window(f"ladder-{rate:g}", rate, seconds / 24, mix, nnz, rng)
            for rate in LADDER
        ],
    )
