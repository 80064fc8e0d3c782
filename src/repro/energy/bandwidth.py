"""Bandwidth requirement and utilization (Section 3.3 and Figure 9).

A length-``l`` GUST at frequency ``f`` consumes one schedule timestep per
cycle: ``l`` 32-bit matrix values, ``l`` 32-bit vector values, ``l``
log2(l)-bit row indices, and one dump bit — the paper's
``(64 l + log(l) + 1) f`` bits/s requirement (224 GB/s for l = 256 at
96 MHz).

*Average* bandwidth over a run counts only the words actually streamed
(occupied schedule slots); Figure 9 plots that average for GUST-256,
GUST-87, and 1D-256, showing GUST's densified stream keeps the memory
system busy while 1D's dense-with-zeros stream wastes it.
"""

from __future__ import annotations

from repro.core.schedule import Schedule
from repro.errors import HardwareConfigError
from repro.hw.memory import row_index_bits, timestep_bits
from repro.sparse.coo import CooMatrix
from repro.sparse.stats import window_count


def required_bandwidth_gbps(length: int, frequency_hz: float) -> float:
    """Minimum sustained bandwidth for stall-free streaming (GB/s)."""
    if frequency_hz <= 0:
        raise HardwareConfigError("frequency must be positive")
    return timestep_bits(length) * frequency_hz / 8.0 / 1e9


def average_bandwidth_gbps(schedule: Schedule, frequency_hz: float) -> float:
    """Average bandwidth actually consumed by a scheduled SpMV (GB/s).

    Occupied slots stream a matrix value, a vector value, and a row index;
    every cycle streams the dump bit.
    """
    if frequency_hz <= 0:
        raise HardwareConfigError("frequency must be positive")
    cycles = schedule.execution_cycles
    if cycles == 0:
        return 0.0
    bits_per_element = 64 + row_index_bits(schedule.length)
    total_bits = schedule.nnz * bits_per_element + schedule.total_colors
    seconds = cycles / frequency_hz
    return total_bits / 8.0 / 1e9 / seconds


def average_bandwidth_1d_gbps(
    matrix: CooMatrix, length: int, frequency_hz: float
) -> float:
    """Useful average bandwidth of a 1D systolic array run (GB/s).

    1D streams the dense matrix, but only nonzero words are useful traffic;
    over its m*n/l-cycle run the useful average collapses with sparsity.
    """
    if frequency_hz <= 0:
        raise HardwareConfigError("frequency must be positive")
    m, n = matrix.shape
    cycles = window_count(m, length) * n + length + 1
    if cycles == 0 or matrix.nnz == 0:
        return 0.0
    useful_bits = matrix.nnz * 48  # value + 16-bit position tag
    seconds = cycles / frequency_hz
    return useful_bits / 8.0 / 1e9 / seconds
