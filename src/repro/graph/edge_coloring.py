"""Edge-coloring algorithms for GUST scheduling.

The color assigned to an edge (a nonzero) is its position in the multiplier
input buffer — its time slot.  A *proper* coloring (no two edges sharing a
vertex have the same color) guarantees collision freedom: per cycle, each
multiplier issues at most one element and each adder receives at most one
partial product.

Three algorithms, trading faithfulness against color count and speed:

=====================  ===========================  =======================
algorithm              colors                       provenance
=====================  ===========================  =======================
greedy_matching        <= 2*Delta - 1, ~Delta typ.  the paper's Listing 1
first_fit              <= 2*Delta - 1, ~Delta typ.  fast bitmask variant
euler (matching peel)  == Delta exactly             König optimum, ablation
=====================  ===========================  =======================

All three take a :class:`~repro.graph.bipartite.WindowGraph` and return a
per-edge int64 color array aligned with the graph's edge arrays, using
``-1`` for "uncolored" (a completed coloring contains no ``-1``; the
dispatcher :func:`color_edges` enforces this).

Vectorized batch kernels
------------------------

All three algorithms are backed by NumPy kernels
(:func:`matching_coloring_flat`, :func:`first_fit_coloring_flat`,
:func:`euler_coloring_flat`) that operate on *flat edge arrays spanning
every window at once* rather than per-vertex Python lists.  Window graphs
are independent, so the kernels batch the embarrassingly parallel
dimension (windows) and keep only the semantically sequential dimension
as a Python loop:

* greedy matching sweeps anti-diagonals — Listing 1's cell (local row
  ``i``, round ``c``) depends only on the claims of rows ``i' < i`` in
  round ``c`` and on row ``i``'s edges left after round ``c - 1``, so
  every cell with ``i + c = d`` is independent of the others (the
  level-scheduling idea of RACE applied to the greedy's own dependence
  graph).  One vectorized step resolves diagonal ``d`` for every row of
  every window: ``rounds + l`` steps instead of ``rounds x l``;
* first-fit iterates the within-window edge rank — edge ``k`` of every
  window takes its smallest free color in one vectorized step against
  boolean (vertex, color) occupancy tables;
* euler iterates colors — one
  :func:`~repro.graph.matching.hopcroft_karp_flat` pass over the disjoint
  union of all still-active windows peels color ``c``'s perfect matching
  for every window simultaneously.

The kernels reproduce the original per-window Python implementations
(preserved in :mod:`repro.graph._reference`) *edge-for-edge*, which
``tests/graph/test_vectorized_equivalence.py`` pins down.  The batch entry
points are what :class:`repro.core.scheduler.GustScheduler` calls; the
per-graph functions below wrap them for single windows.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ColoringError
from repro.graph.bipartite import WindowGraph
from repro.graph.matching import hopcroft_karp_flat

#: Byte budget for a kernel's per-window tables: first-fit's two boolean
#: occupancy tables (beyond it first-fit colors window by window, so a
#: degree hub cannot inflate the (slots x palette) allocation) and greedy
#: matching's (round slot x segment) claim table (beyond it the sweep runs
#: over chunks of windows).
_TABLE_BUDGET = 1 << 27

#: ``np.bitwise_count`` arrived in NumPy 2.0; the uint64 first-fit fast
#: path silently falls back to the boolean tables without it.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def matching_coloring_flat(
    local_rows: np.ndarray,
    colsegs: np.ndarray,
    window_ids: np.ndarray,
    length: int,
    n_windows: int,
) -> np.ndarray:
    """Listing 1 greedy matching over the flat edge arrays of many windows.

    Args:
        local_rows: per-edge left vertex (row index within its window).
        colsegs: per-edge right vertex (multiplier lane).
        window_ids: per-edge owning window; edges must be grouped by window
            and, within a (window, row) pair, ordered by column — the
            canonical COO order delivers exactly this.
        length: accelerator length ``l``.
        n_windows: total window count.  The claim table spans only the
            windows that own edges, so empty windows cost nothing.

    Returns:
        int64 colors aligned with the edge arrays; every edge is colored.

    Raises:
        ColoringError: if some edges can never be colored, e.g. a local
            row ``>= length``, which no diagonal of the sweep reaches.

    Round ``c`` scans local rows in index order; each row colors its first
    remaining edge whose column segment is not yet claimed *in its own
    window* this round, then stops (the ``break`` in Listing 1).  Cell
    (row ``i``, round ``c``) reads only the claims rows ``i' < i`` made in
    round ``c`` and row ``i``'s edges left after round ``c - 1``, so all
    cells on one anti-diagonal ``i + c = d`` depend on earlier diagonals
    alone.  :func:`_matching_wavefront` sweeps the diagonals, resolving
    every row of every window on a diagonal in one vectorized step —
    ``rounds + l`` steps instead of ``rounds x l`` — and reproduces the
    sequential per-window result exactly.
    """
    edge_count = int(local_rows.size)
    colors = np.full(edge_count, -1, dtype=np.int64)
    if edge_count == 0:
        return colors

    # Edges arrive grouped by window: a window starts wherever the id
    # changes.  Only windows that own edges get claim-table space.
    new_window = np.empty(edge_count, dtype=bool)
    new_window[0] = True
    np.not_equal(window_ids[1:], window_ids[:-1], out=new_window[1:])
    window_starts = np.append(np.flatnonzero(new_window), edge_count)

    # Round slots per claim-table segment: the power of two >= l, so a
    # round's slot is a bitwise AND.  Color runs of whole windows whose
    # claim tables (l segments x slots per window, entries of at most 4
    # bytes) fit the byte budget; windows are independent, so chunking
    # changes no color.
    # A lone window past the budget still runs: its table is the kernel's
    # memory floor.
    slots = 1 << (length - 1).bit_length()
    chunk = max(1, _TABLE_BUDGET // (4 * length * slots))
    for first in range(0, window_starts.size - 1, chunk):
        lo = int(window_starts[first])
        hi = int(window_starts[min(first + chunk, window_starts.size - 1)])
        _matching_wavefront(
            colors[lo:hi],
            local_rows[lo:hi],
            colsegs[lo:hi],
            new_window[lo:hi],
            length,
            slots,
        )
    return colors


def _matching_wavefront(
    colors: np.ndarray,
    local_rows: np.ndarray,
    colsegs: np.ndarray,
    new_window: np.ndarray,
    length: int,
    slots: int,
) -> None:
    """Anti-diagonal sweep of Listing 1, writing into ``colors``.

    ``new_window`` flags each window's first edge; the slice starts at one.
    """
    edge_count = int(local_rows.size)
    n_windows = int(np.count_nonzero(new_window))
    mask = slots - 1
    # Claim table: [window, segment, round slot] plus one trailing "dead"
    # segment that colored edges are redirected to.  Round slots are
    # ``round & mask``: one diagonal has at most l <= slots rounds in
    # flight, so a slot is unambiguous among them, and each entry stores
    # the round that claimed it.  No entry ever holds a later round than
    # its reader's, so an edge is open iff its entry is below its round:
    # stale entries from older rounds need no clearing, and the dead
    # segment, pinned at its dtype's maximum, is never open.
    dead = n_windows * length * slots
    # Narrow integers cut the gather bandwidth and the table.  ``dtype``
    # holds table indices and edge ids; ``round_dtype`` holds diagonals:
    # at most 2 * Delta - 1 rounds (Delta, the largest row or segment
    # degree in a window, bounds Listing 1's rounds), plus l diagonals of
    # ramp and l of the no-progress guard.
    dtype = (
        np.int32
        if max(dead + slots, edge_count) <= np.iinfo(np.int32).max
        else np.int64
    )
    windows = np.cumsum(new_window, dtype=dtype)
    windows -= 1
    delta = max(
        np.bincount(windows * length + local_rows).max(),
        np.bincount(windows * length + colsegs).max(),
    )
    round_dtype = next(
        t
        for t in (np.int16, np.int32, np.int64)
        if 2 * (delta + length) <= np.iinfo(t).max
    )
    claims = np.full(dead + slots, -1, dtype=round_dtype)
    claims[dead:] = np.iinfo(round_dtype).max

    # Edges sorted by local row; the stable sort keeps (window, column)
    # order inside each row, i.e. each row's Listing-1 scan order.  The
    # rows a diagonal ``d`` reaches (``<= d``) are then a prefix.  Narrow
    # sort keys make NumPy's stable radix sort a single pass.
    sort_keys = (
        local_rows.astype(np.int16)
        if length <= np.iinfo(np.int16).max
        else local_rows
    )
    pending = np.argsort(sort_keys, kind="stable").astype(dtype)
    rows = local_rows.astype(round_dtype)[pending]
    windows = windows[pending]
    # Per pending edge: the key of the (row, window) scan it belongs to,
    # and its claim-table segment base.
    scan_keys = rows.astype(dtype) * n_windows
    scan_keys += windows
    seg_bases = windows
    seg_bases *= length
    seg_bases += colsegs.astype(dtype)[pending]
    seg_bases *= slots
    row_range = np.arange(length + 1, dtype=round_dtype)

    remaining = edge_count
    d = 0
    last_progress = -1
    while remaining:
        if d % 8 == 0:
            # Every 8 diagonals drop the colored edges (compacting a
            # sorted array keeps it sorted) and re-find the row bounds.
            keep = seg_bases != dead
            pending = pending[keep]
            rows = rows[keep]
            seg_bases = seg_bases[keep]
            scan_keys = scan_keys[keep]
            row_ends = np.searchsorted(rows, row_range, side="right")
        end = row_ends[min(d, length - 1)]
        rounds = d - rows[:end]
        keys = seg_bases[:end] + (rounds & mask)
        # np.take skips fancy indexing's conversion of int32 keys to intp.
        cand = np.flatnonzero(np.take(claims, keys) < rounds)
        if cand.size:
            # First open edge of each (row, window) scan: candidates are
            # in scan order, so scan-key boundaries mark the winners.
            cand_scans = np.take(scan_keys, cand)
            first = np.empty(cand.size, dtype=bool)
            first[0] = True
            np.not_equal(cand_scans[1:], cand_scans[:-1], out=first[1:])
            won = cand[first]
            won_rounds = rounds[won]
            colors[pending[won]] = won_rounds
            claims[keys[won]] = won_rounds
            seg_bases[won] = dead
            remaining -= won.size
            last_progress = d
        elif d - last_progress >= length:
            # A round with uncolored edges colors at least one (its lowest
            # pending row always wins) within l diagonals, so l idle
            # diagonals mean the rest can never be colored.
            raise ColoringError(
                "greedy matching made no progress; inconsistent edge arrays"
            )
        d += 1


def _first_fit_bigint(
    local_rows: np.ndarray, colsegs: np.ndarray, length: int
) -> np.ndarray:
    """Single-window first-fit over per-vertex big-int color bitmasks.

    Memory floor for degree-hub windows where even one window's boolean
    occupancy tables would exceed the budget: O(length) Python integers,
    the seed implementation's layout.  Identical colors by construction —
    both walk the edges in storage order taking the smallest free color.
    """
    edge_colors = np.full(local_rows.size, -1, dtype=np.int64)
    row_used = [0] * length
    seg_used = [0] * length
    for edge_id in range(local_rows.size):
        i = local_rows[edge_id]
        j = colsegs[edge_id]
        free = ~(row_used[i] | seg_used[j])
        color = (free & -free).bit_length() - 1
        bit = 1 << color
        row_used[i] |= bit
        seg_used[j] |= bit
        edge_colors[edge_id] = color
    return edge_colors


def _first_fit_flat_bitmask(
    local_rows: np.ndarray,
    colsegs: np.ndarray,
    window_ids: np.ndarray,
    length: int,
    window_starts: np.ndarray,
    slots: int,
) -> np.ndarray:
    """First-fit over uint64 per-vertex color bitmasks (palette <= 64).

    The same rank-major step order as the boolean-table kernel — edge ``k``
    of every still-active window is resolved in one vectorized step — but
    each vertex's occupied-color set is a single uint64, so a step is two
    gathers, three bitwise ops, and a ``np.bitwise_count`` instead of an
    ``argmax`` over a (heads x palette) boolean block.  The first-fit
    bound guarantees the smallest free color of every edge fits in
    ``deg(row) + deg(colseg) - 1 <= 64`` bits, so the masks never
    overflow; colors are identical to the boolean path by construction
    (both take the lowest free bit).
    """
    edge_count = int(local_rows.size)
    colors = np.full(edge_count, -1, dtype=np.int64)
    row_key = window_ids * length + local_rows
    seg_key = window_ids * length + colsegs

    index_dtype = (
        np.int32
        if max(edge_count, slots) <= np.iinfo(np.int32).max
        else np.int64
    )
    ranks = (
        np.arange(edge_count, dtype=np.int64) - window_starts[window_ids]
    ).astype(index_dtype)
    by_rank = np.argsort(ranks, kind="stable")
    row_by_rank = row_key[by_rank].astype(index_dtype)
    seg_by_rank = seg_key[by_rank].astype(index_dtype)
    rank_starts = np.searchsorted(
        ranks[by_rank], np.arange(int(ranks.max()) + 2)
    )

    one = np.uint64(1)
    row_used = np.zeros(slots, dtype=np.uint64)
    seg_used = np.zeros(slots, dtype=np.uint64)
    for k in range(rank_starts.size - 1):
        lo, hi = rank_starts[k], rank_starts[k + 1]
        rows = row_by_rank[lo:hi]
        segs = seg_by_rank[lo:hi]
        used = row_used[rows] | seg_used[segs]
        # Lowest free bit: free & -free, written as ~used & (used + 1) to
        # stay in unsigned arithmetic throughout.
        lsb = ~used & (used + one)
        colors[by_rank[lo:hi]] = np.bitwise_count(lsb - one)
        # One edge per window per rank, so rows/segs are duplicate-free
        # within a step and plain fancy assignment is a safe accumulate.
        row_used[rows] |= lsb
        seg_used[segs] |= lsb
    return colors


def first_fit_coloring_flat(
    local_rows: np.ndarray,
    colsegs: np.ndarray,
    window_ids: np.ndarray,
    length: int,
    n_windows: int,
    window_starts: np.ndarray,
) -> np.ndarray:
    """First-fit coloring over the flat edge arrays of many windows.

    Args:
        window_starts: int64 array of ``n_windows + 1`` offsets delimiting
            each window's contiguous edge slice; other arguments as in
            :func:`matching_coloring_flat`.

    Each window processes its edges in storage (row-major) order; windows
    are independent, so step ``k`` assigns the ``k``-th edge of every
    still-active window at once.  The smallest color free at both
    endpoints is found with an ``argmax`` over boolean per-vertex
    occupancy rows; a palette of ``max_row_deg + max_seg_deg - 1`` colors
    always contains a free slot (the classic first-fit bound), so no
    reallocation is ever needed.
    """
    edge_count = int(local_rows.size)
    colors = np.full(edge_count, -1, dtype=np.int64)
    if edge_count == 0:
        return colors

    row_key = window_ids * length + local_rows
    seg_key = window_ids * length + colsegs
    max_row_deg = int(np.bincount(row_key).max())
    max_seg_deg = int(np.bincount(seg_key).max())
    palette = max(1, max_row_deg + max_seg_deg - 1)
    slots = n_windows * length

    if (
        _HAS_BITWISE_COUNT
        and palette <= 64
        and 16 * slots <= _TABLE_BUDGET
    ):
        # Bitmask fast path: with at most 64 colors in play, each vertex's
        # occupancy row collapses from ``palette`` booleans to one uint64,
        # and the smallest free color is a popcount away — same colors,
        # an order of magnitude less table memory and per-step work.
        return _first_fit_flat_bitmask(
            local_rows, colsegs, window_ids, length, window_starts, slots
        )

    if 2 * slots * palette > _TABLE_BUDGET:
        # The palette is sized by the *global* degree maximum, so one hub
        # row or column would inflate the occupancy tables of every window.
        # Windows are independent: color them one at a time with window-
        # local tables instead — identical colors, O(l * palette_w) memory
        # per window.  A single window whose own tables would still bust
        # the budget drops to O(l) big-int bitmasks.
        if n_windows == 1:
            return _first_fit_bigint(local_rows, colsegs, length)
        for w in range(n_windows):
            lo, hi = int(window_starts[w]), int(window_starts[w + 1])
            if lo == hi:
                continue
            colors[lo:hi] = first_fit_coloring_flat(
                local_rows[lo:hi],
                colsegs[lo:hi],
                np.zeros(hi - lo, dtype=np.int64),
                length,
                1,
                np.array([0, hi - lo], dtype=np.int64),
            )
        return colors

    row_used = np.zeros((slots, palette), dtype=bool)
    seg_used = np.zeros((slots, palette), dtype=bool)

    # Re-sort the edges rank-major (k-th edge of every window adjacent) so
    # each step's operands are contiguous views, not fancy gathers.  A
    # stable single-key sort on the rank preserves window order inside
    # each rank group; int32 operands halve the gather bandwidth.
    index_dtype = (
        np.int32
        if max(edge_count, slots) <= np.iinfo(np.int32).max
        else np.int64
    )
    ranks = (
        np.arange(edge_count, dtype=np.int64) - window_starts[window_ids]
    ).astype(index_dtype)
    by_rank = np.argsort(ranks, kind="stable")
    row_by_rank = row_key[by_rank].astype(index_dtype)
    seg_by_rank = seg_key[by_rank].astype(index_dtype)
    rank_starts = np.searchsorted(
        ranks[by_rank], np.arange(int(ranks.max()) + 2)
    )
    for k in range(rank_starts.size - 1):
        lo, hi = rank_starts[k], rank_starts[k + 1]
        rows = row_by_rank[lo:hi]
        segs = seg_by_rank[lo:hi]
        free = row_used[rows]
        np.logical_or(free, seg_used[segs], out=free)
        np.logical_not(free, out=free)
        chosen = free.argmax(axis=1)
        row_used[rows, chosen] = True
        seg_used[segs, chosen] = True
        colors[by_rank[lo:hi]] = chosen
    return colors


def greedy_matching_coloring(graph: WindowGraph) -> np.ndarray:
    """The paper's Listing 1: round-based greedy maximal matching.

    Round ``clr`` scans left vertices in index order; each vertex colors its
    first remaining edge whose column segment is not yet claimed this round,
    then stops (the ``break`` in Listing 1).  Rounds repeat until every edge
    is colored.  Single-window wrapper over :func:`matching_coloring_flat`.
    """
    return matching_coloring_flat(
        np.asarray(graph.local_rows, dtype=np.int64),
        np.asarray(graph.colsegs, dtype=np.int64),
        np.zeros(graph.edge_count, dtype=np.int64),
        graph.length,
        1,
    )


def first_fit_coloring(graph: WindowGraph) -> np.ndarray:
    """Per-edge first-fit: each edge takes the smallest color free at both
    endpoints, processed in row-major (canonical COO) order.

    Color count is bounded by deg(row) + deg(colseg) - 1 <= 2*Delta - 1 and
    is typically within a few percent of Delta.  Single-window wrapper over
    :func:`first_fit_coloring_flat`; zero-edge graphs return the documented
    ``-1``-filled (here: empty) array like every other algorithm.
    """
    return first_fit_coloring_flat(
        np.asarray(graph.local_rows, dtype=np.int64),
        np.asarray(graph.colsegs, dtype=np.int64),
        np.zeros(graph.edge_count, dtype=np.int64),
        graph.length,
        1,
        np.array([0, graph.edge_count], dtype=np.int64),
    )


def euler_coloring_flat(
    local_rows: np.ndarray,
    colsegs: np.ndarray,
    window_ids: np.ndarray,
    length: int,
    n_windows: int,
) -> np.ndarray:
    """Euler/König optimal coloring over the flat edge arrays of many windows.

    König's theorem guarantees the chromatic index of a bipartite multigraph
    equals its maximum degree Delta.  We realize it constructively, for
    every window at once:

    1. Pad each window's graph with dummy edges until every vertex has
       degree exactly its window's Delta (always possible for a bipartite
       multigraph with equal side sizes).
    2. Peel off perfect matchings with Hopcroft-Karp, one per color, from
       the disjoint union of all still-active windows — a d-regular
       bipartite multigraph always contains one (Hall), and removing it
       leaves a (d-1)-regular multigraph.  Window ``w`` owns the shifted
       vertex ids ``[w * l, (w + 1) * l)``, so one
       :func:`~repro.graph.matching.hopcroft_karp_flat` pass peels color
       ``c`` for every window whose Delta exceeds ``c`` simultaneously.
    3. Report only the colors of real edges.

    This is the ablation counterpart to the paper's greedy scheduler: it
    attains the Eq. (1) lower bound at higher preprocessing cost.

    Windows are independent components of the union graph, so the joint
    matching equals the per-window ones, and the result reproduces the
    frozen per-edge-list seed
    (:func:`repro.graph._reference.reference_euler_coloring`)
    *edge-for-edge* on every window: the padded edge ids are laid out
    [window reals in storage order, then window dummies in pairing order]
    exactly like the seed's, adjacency is scanned in ascending edge-id
    order, and matched-edge removal takes the highest-id survivor of each
    pair (the seed's ``edge_for_pair[pair].pop()``).
    """
    edge_count = int(local_rows.size)
    edge_colors = np.full(edge_count, -1, dtype=np.int64)
    if edge_count == 0:
        return edge_colors

    n_slots = n_windows * length
    left_key = window_ids * length + local_rows
    right_key = window_ids * length + colsegs
    left_deg = np.bincount(left_key, minlength=n_slots)
    right_deg = np.bincount(right_key, minlength=n_slots)
    delta_w = np.maximum(
        left_deg.reshape(n_windows, length).max(axis=1),
        right_deg.reshape(n_windows, length).max(axis=1),
    ).astype(np.int64)

    # Relabel windows in descending-Delta order before building the padded
    # layout.  Windows are independent components, so relabeling permutes
    # per-window subproblems without changing any of their traversals or
    # results — but it makes every color's still-active windows
    # (``Delta > color``) a *prefix* of the slot space: per-color matching,
    # distance, and scratch structures then size to the live prefix
    # instead of the full slot count, and active-slot gathers become
    # slices.
    worder = np.argsort(-delta_w, kind="stable")
    delta_sorted = delta_w[worder]
    wrank = np.empty(n_windows, dtype=np.int64)
    wrank[worder] = np.arange(n_windows, dtype=np.int64)
    left_deg = left_deg.reshape(n_windows, length)[worder].ravel()
    right_deg = right_deg.reshape(n_windows, length)[worder].ravel()
    new_windows = wrank[window_ids]

    # Regularization, vectorized across windows: the seed's two-pointer
    # deficit walk pairs the k-th unit of left deficit (in ascending vertex
    # order) with the k-th unit of right deficit.  Expanding each side's
    # deficits with ``np.repeat`` produces the same pairing per window
    # because both sides' deficit totals agree within every window, so the
    # running sums line up at each window boundary.
    delta_slot = np.repeat(delta_sorted, length)
    slot_range = np.arange(n_slots, dtype=np.int64)
    dummy_lefts = np.repeat(slot_range, delta_slot - left_deg)
    dummy_rights = np.repeat(slot_range, delta_slot - right_deg)
    if dummy_lefts.size != dummy_rights.size or not np.array_equal(
        dummy_lefts // length, dummy_rights // length
    ):
        raise ColoringError("regularization failed; unbalanced bipartite sides")

    # Every padded-edge position and shifted pair key is bounded by
    # ``n_slots * length``; when that fits 32 bits (any realistic problem
    # size) the per-color compactions, gathers, and searchsorted passes run
    # on half-width elements — they are memory-bound, so the narrowing is
    # a near-2x cut on their cost.
    keydt = np.int32 if n_slots * length <= np.iinfo(np.int32).max else np.int64

    # Padded edge layout: reals first, dummies second, then a stable sort
    # by window interleaves them into the seed's per-window id order
    # [reals..., dummies...] while keeping storage order inside each part.
    # Narrow sort keys let NumPy's stable sort take its radix path.
    pad_windows = np.concatenate([new_windows, dummy_lefts // length])
    if n_windows <= np.iinfo(np.int16).max:
        pad_windows = pad_windows.astype(np.int16)
    order = np.argsort(pad_windows, kind="stable")
    lefts = np.concatenate([new_windows * length + local_rows, dummy_lefts])[
        order
    ].astype(keydt)
    rights = np.concatenate([colsegs, dummy_rights % length])[order].astype(
        keydt
    )
    real_ids = np.concatenate(
        [
            np.arange(edge_count, dtype=np.int64),
            np.full(dummy_lefts.size, -1, dtype=np.int64),
        ]
    )[order].astype(keydt)
    right_global = (lefts // length) * length + rights

    # Both traversal orders are fixed once up front; compacting a sorted
    # array by a boolean mask preserves its order, so the per-color passes
    # never re-sort.  ``by_left`` yields CSR adjacency in ascending edge-id
    # order per left vertex (the order the seed's append loop produced,
    # which Hopcroft-Karp's traversal is sensitive to); ``by_key`` puts
    # equal (left, right) pairs in ascending edge-id order, so the
    # rightmost survivor of a matched key is the seed's popped edge.
    by_left = np.argsort(lefts, kind="stable").astype(keydt)
    pair_keys = lefts * length + rights
    by_key = np.argsort(pair_keys, kind="stable").astype(keydt)
    keys_sorted = pair_keys[by_key]

    # Duplicate (left, right) copies never influence the matching search:
    # in the reference DFS a repeated neighbour either already returned or
    # descended at its first occurrence, or is skipped both times (``dist``
    # only ever falls to the -1 sentinel), and the greedy scan stops at the
    # first free right, which dedup keeps.  Removal always deletes the
    # *highest*-id copy of a matched pair, so the lowest-id copy (``rep0``)
    # stays alive exactly while the pair's multiplicity is >= 1 — handing
    # Hopcroft-Karp one entry per surviving distinct pair changes no
    # traversal outcome.  Dummy edges are massively duplicated, so the
    # deduped CSR is a fraction of the padded edge count.
    rep0 = np.zeros(lefts.size, dtype=bool)
    first_in_key = np.empty(lefts.size, dtype=bool)
    first_in_key[0] = True
    np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=first_in_key[1:])
    rep0[by_key[first_in_key]] = True

    # Row-lockstep layout for the matching's first phase.  Hopcroft-Karp's
    # first phase over an empty matching cannot descend (every matched
    # right's owner is a distance-0 free root), so it degenerates to "each
    # left vertex, in ascending order, takes its first free right in
    # adjacency order".  Windows are independent, so that scan can run one
    # local row of *every* window per vectorized step — a single greedy
    # round, so a row-by-row loop rather than the diagonal sweep
    # :func:`matching_coloring_flat` needs for many rounds, but the same
    # group-boundary pick of each group's first open edge — and be handed
    # to :func:`hopcroft_karp_flat` as the seed matching.
    # The seeded run is then identical to the unseeded one from its second
    # phase onward, with the first BFS+scan eliminated.
    rows_local = lefts % length
    by_row = np.argsort(
        rows_local.astype(np.int16)
        if length <= np.iinfo(np.int16).max
        else rows_local,
        kind="stable",
    ).astype(keydt)
    row_range = np.arange(length + 1, dtype=rows_local.dtype)

    # Live views of the multigraph, one per traversal order, physically
    # compacted as edges die (edges only ever die, and dropping rows from a
    # sorted array preserves its order, so no per-color re-sort or
    # full-size boolean gather is ever needed):
    #   * CSR / by-left order, deduped — feeds Hopcroft-Karp;
    #   * row-major order, deduped — feeds the greedy seed phase;
    #   * by-key order, every copy — resolves matched pairs to edge ids.
    rep_l = rep0[by_left]
    bl_id = by_left[rep_l]
    bl_left = lefts[bl_id]
    bl_right = right_global[bl_id]
    rep_r = rep0[by_row]
    br_id = by_row[rep_r]
    g_left = lefts[br_id]
    g_right = right_global[br_id]
    g_rows = rows_local[br_id]
    bk_id = by_key
    bk_keys = keys_sorted
    pair_dead = np.zeros(lefts.size, dtype=bool)

    csr_range = np.arange(n_slots + 1, dtype=keydt)
    for color in range(int(delta_sorted[0])):
        # Descending-Delta relabeling makes the active windows a prefix.
        n_act = int(np.searchsorted(-delta_sorted, -color, side="left")) * length
        if color:
            # Drop last color's consumed edges from each view.  A deduped
            # entry dies only when its chosen copy *was* the rep0 copy,
            # i.e. the pair's multiplicity just hit zero.
            died_pairs = chosen[rep0[chosen]]
            if died_pairs.size:
                pair_dead[died_pairs] = True
                keep = ~pair_dead[bl_id]
                bl_id = bl_id[keep]
                bl_left = bl_left[keep]
                bl_right = bl_right[keep]
                keep = ~pair_dead[br_id]
                br_id = br_id[keep]
                g_left = g_left[keep]
                g_right = g_right[keep]
                g_rows = g_rows[keep]
            keep = np.ones(bk_id.size, dtype=bool)
            keep[pos] = False
            bk_id = bk_id[keep]
            bk_keys = bk_keys[keep]

        indptr = np.searchsorted(bl_left, csr_range[: n_act + 1]).astype(keydt)

        # Vectorized first phase: claim one free right per left per row
        # step.  Candidate edges within a row group are window-grouped in
        # ascending edge-id order, so the group-boundary trick picks each
        # left vertex's first open edge in its adjacency-scan order.
        row_bounds = np.searchsorted(g_rows, row_range)
        ml0 = np.full(n_act, -1, dtype=keydt)
        mr0 = np.full(n_act, -1, dtype=keydt)
        matched0 = 0
        for i in range(length):
            lo, hi = row_bounds[i], row_bounds[i + 1]
            if lo == hi:
                continue
            seg_view = g_right[lo:hi]
            open_mask = mr0[seg_view] == -1
            cand_r = seg_view[open_mask]
            if cand_r.size == 0:
                continue
            cand_l = g_left[lo:hi][open_mask]
            first = np.empty(cand_l.size, dtype=bool)
            first[0] = True
            np.not_equal(cand_l[1:], cand_l[:-1], out=first[1:])
            w_l = cand_l[first]
            w_r = cand_r[first]
            ml0[w_l] = w_r
            mr0[w_r] = w_l
            matched0 += w_l.size

        if matched0 == n_act:
            # The greedy seed is already perfect, hence maximum: the seeded
            # run's first BFS would find no augmenting layer and return the
            # seed untouched.
            match_left = ml0
        else:
            match_left, _, _ = hopcroft_karp_flat(
                indptr,
                bl_right,
                n_act,
                n_act,
                seed_left=ml0,
                seed_right=mr0,
                seed_size=matched0,
            )

        # Windows whose Delta exceeds the current color must each hold a
        # perfect matching; exhausted windows have no surviving edges and
        # sit outside the active prefix.
        matched = match_left
        if (matched < 0).any():
            raise ColoringError(
                f"regular multigraph lacked a perfect matching at color {color}"
            )

        # Delete one surviving edge per matched (left, right) pair — the
        # highest-id one.
        matched_keys = np.asarray(
            slot_range[:n_act] * length + matched % length, dtype=keydt
        )
        pos = np.searchsorted(bk_keys, matched_keys, side="right") - 1
        if pos.size and (
            (pos < 0).any() or not np.array_equal(bk_keys[pos], matched_keys)
        ):
            raise ColoringError(
                f"matching produced an edge absent from the multigraph "
                f"at color {color}"
            )
        chosen = bk_id[pos]
        chosen_real = real_ids[chosen]
        edge_colors[chosen_real[chosen_real >= 0]] = color

    if (edge_colors < 0).any():
        raise ColoringError("euler coloring left edges uncolored")
    return edge_colors


def euler_coloring(graph: WindowGraph) -> np.ndarray:
    """Optimal bipartite edge coloring with exactly Delta colors.

    Single-window wrapper over :func:`euler_coloring_flat` (see there for
    the construction); kept as the per-graph entry point the
    :data:`ALGORITHMS` registry and :func:`color_edges` dispatch to.
    """
    return euler_coloring_flat(
        np.asarray(graph.local_rows, dtype=np.int64),
        np.asarray(graph.colsegs, dtype=np.int64),
        np.zeros(graph.edge_count, dtype=np.int64),
        graph.length,
        1,
    )


#: Registry used by the scheduler's ``algorithm=`` parameter.
ALGORITHMS = {
    "matching": greedy_matching_coloring,
    "first_fit": first_fit_coloring,
    "euler": euler_coloring,
}


def color_edges(graph: WindowGraph, algorithm: str = "matching") -> np.ndarray:
    """Dispatch to a registered coloring algorithm by name.

    Enforces the library-wide contract: the result is one int64 color per
    edge and a *complete* coloring — ``-1`` ("uncolored") never escapes.
    """
    try:
        fn = ALGORITHMS[algorithm]
    except KeyError:
        raise ColoringError(
            f"unknown coloring algorithm {algorithm!r}; "
            f"choose from {sorted(ALGORITHMS)}"
        ) from None
    colors = fn(graph)
    if colors.shape != (graph.edge_count,):
        raise ColoringError(
            f"{algorithm} returned {colors.shape[0] if colors.ndim else 0} "
            f"colors for {graph.edge_count} edges"
        )
    if graph.edge_count and int(colors.min()) < 0:
        raise ColoringError(f"{algorithm} left edges uncolored (-1)")
    return colors
