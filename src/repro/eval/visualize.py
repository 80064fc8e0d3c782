"""Terminal visualizations of schedules and sparsity structure.

Three views used by the examples and handy for debugging schedulers:

* :func:`schedule_occupancy` — the M_sch buffer as a timestep-by-lane
  density map; a good schedule is a nearly solid block (the paper's
  "dense input stream").
* :func:`degree_profile` — row/column-segment nonzero histograms, the
  quantities Eq. (1) takes maxima over.
* :func:`window_color_chart` — per-window color counts against the
  Eq. (1) lower bound, showing where the scheduler loses cycles.
"""

from __future__ import annotations

import numpy as np

from repro.core.load_balance import BalancedMatrix
from repro.core.schedule import Schedule
from repro.sparse.coo import CooMatrix
from repro.sparse.stats import require_positive_length

#: Shade ramp from empty to full.
_SHADES = " .:-=+*#%@"


def _shade(fraction: float) -> str:
    index = min(len(_SHADES) - 1, int(fraction * (len(_SHADES) - 1) + 0.5))
    return _SHADES[index]


def schedule_occupancy(
    schedule: Schedule, width: int = 64, height: int = 24
) -> str:
    """Render M_sch occupancy as an ASCII density map.

    Rows are (binned) timesteps, columns are (binned) multiplier lanes;
    darker cells mean fuller buffer slots.
    """
    steps, lanes = schedule.total_colors, schedule.length
    occupied = np.zeros((steps, lanes), dtype=np.float64)
    occupied[schedule.steps, schedule.lanes] = 1.0
    if steps == 0:
        return "(empty schedule)"
    height = min(height, steps)
    width = min(width, lanes)
    row_bins = np.array_split(np.arange(steps), height)
    lane_bins = np.array_split(np.arange(lanes), width)
    lines = []
    for row_bin in row_bins:
        cells = []
        for lane_bin in lane_bins:
            block = occupied[np.ix_(row_bin, lane_bin)]
            cells.append(_shade(float(block.mean())))
        lines.append("".join(cells))
    header = (
        f"schedule occupancy ({steps} timesteps x {lanes} lanes, "
        f"{schedule.occupancy:.1%} full)"
    )
    return "\n".join([header] + lines)


def degree_profile(
    matrix: CooMatrix, length: int, bins: int = 12, width: int = 48
) -> str:
    """Histogram of row and column-segment nonzero counts."""
    require_positive_length(length)
    row_counts = matrix.row_counts()
    seg_counts = np.bincount(matrix.cols % length, minlength=length)
    lines = [
        f"degree profile (length {length}): "
        f"max row {int(row_counts.max()) if row_counts.size else 0}, "
        f"max segment {int(seg_counts.max()) if seg_counts.size else 0}"
    ]
    for label, counts in (("rows", row_counts), ("segments", seg_counts)):
        if counts.size == 0 or counts.max() == 0:
            lines.append(f"  {label}: (no nonzeros)")
            continue
        histogram, edges = np.histogram(counts, bins=bins)
        peak = max(1, histogram.max())
        lines.append(f"  {label}:")
        for count, lo, hi in zip(histogram, edges, edges[1:]):
            bar = "#" * int(round(width * count / peak))
            lines.append(f"    [{lo:7.1f}, {hi:7.1f})  {count:6d}  {bar}")
    return "\n".join(lines)


def window_color_chart(
    schedule: Schedule, balanced: BalancedMatrix, width: int = 48
) -> str:
    """Per-window colors vs the Eq. (1) lower bound."""
    bounds = balanced.color_lower_bounds(schedule.length)
    colors = schedule.window_colors
    peak = max(max(colors, default=1), max(bounds, default=1), 1)
    lines = ["window colors (|] marks the Eq. 1 lower bound)"]
    for index, (used, bound) in enumerate(zip(colors, bounds)):
        bar_len = int(round(width * used / peak))
        bound_pos = int(round(width * bound / peak))
        bar = list("#" * bar_len + " " * (width - bar_len))
        if 0 <= bound_pos < len(bar):
            bar[bound_pos] = "]"
        overhead = f" (+{used - bound})" if used > bound else ""
        lines.append(
            f"  w{index:<3d} {''.join(bar)} {used}{overhead}"
        )
    return "\n".join(lines)
