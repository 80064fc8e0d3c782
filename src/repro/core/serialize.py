"""Schedule persistence: save and reload preprocessing results.

The paper's economics rest on preprocessing being a one-time cost per
matrix (Table 4 spends seconds scheduling, then sub-millisecond SpMVs).  A
deployment therefore wants schedules on disk.  This module serializes a
(:class:`Schedule`, :class:`BalancedMatrix`) pair — plus the scheduler's
stall metadata and the cache's value-refresh join — into a single artifact
so a solver can restart without rescheduling, and so the content-addressed
:class:`~repro.core.store.DiskScheduleStore` can share one artifact across
a fleet of worker processes.

Container format (version 3)
----------------------------

A warm start must be an order of magnitude cheaper than cold scheduling,
so the container is built for load speed rather than generality:

* a 24-byte prologue: magic, **format version**, header length, and a
  CRC-32 **integrity checksum** covering every byte after the prologue —
  one pass over the file detects any flipped bit or truncation before a
  single array is trusted;
* a JSON header describing each array (dtype, shape, byte offset) plus the
  scalar metadata (length, shape, stall count);
* the payload: raw little-endian array bytes at 64-byte-aligned offsets,
  materialized on load as zero-copy ``np.frombuffer`` views of one read.

The payload stores the schedule's own slot arrays — each occupied slot's
coordinates ``(steps, lanes)``, its window-local row and its source index
into the balanced value stream — never the dense ``M_sch/Row_sch/Col_sch``
triple, which is mostly empty slots; integer arrays are narrowed to the
smallest sufficient dtype on write.  These choices shrink the artifact
(and the checksum pass) by more than half and keep the warm-start path
allocation-light.

Version 3 persists the slots in the :class:`Schedule`'s destination-row
order, which is also the layout of the :class:`~repro.core.plan.
ExecutionPlan` replay engine, so a disk warm start reconstitutes the
schedule and a replay-ready plan from one gather per array: no sort, no
extra payload member.  Version-2 artifacts (slot arrays in occupied-slot
scan order) still load through every explicit-path API
(:func:`load_schedule`, the CLI's ``spmv``/``inspect``); their slots are
simply sorted (one ``argsort``) on the way in, so user-kept artifacts
keep working at a small one-time cost.  The content-addressed store
deliberately does *not* reach v2 artifacts: its keys embed the format
version so generations stay isolated — in a mixed fleet, a v2-era reader
would otherwise look up a v3 artifact, fail its version check, and
quarantine a file the upgraded workers still want.  Old store entries miss once,
reschedule, and age out of the byte budget.

Writes are atomic: the container is written to a same-directory temporary
file, flushed and fsynced, then ``os.replace``-d into place.  A reader can
never observe a half-written schedule, and two processes racing to persist
the same schedule both succeed, leaving exactly one valid artifact.

Any malformed input — truncated file, non-artifact bytes, version or
checksum mismatch, out-of-range indices, or a payload that fails
:meth:`Schedule.validate` — raises :class:`~repro.errors.ScheduleError`
with a descriptive message.  Corruption never escapes as a wrong answer.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.load_balance import BalancedMatrix
from repro.core.plan import ExecutionPlan
from repro.core.schedule import Schedule
from repro.errors import ScheduleError
from repro.sparse.coo import CooMatrix

#: First 8 bytes of every artifact.
_MAGIC = b"GUSTSCH\x00"

#: On-disk format version.  Version 1 (an ``.npz`` of dense schedule
#: arrays) is no longer produced or read; bump this whenever the layout or
#: the meaning of any member changes.
_FORMAT_VERSION = 3

#: Versions :func:`load_schedule_entry` accepts.  Version 2 persisted its
#: slots in scan order; they are sorted on load.
_COMPAT_VERSIONS = (2, 3)

#: Prologue layout: magic, u32 version, u32 header length, u32 CRC-32 of
#: everything after the prologue, u32 reserved.
_PROLOGUE_BYTES = 24

#: Payload arrays are placed at multiples of this within the payload.
_ALIGN = 64

#: Arrays every artifact carries.  ``slot_rows`` is each occupied slot's
#: window-local destination row (its ``Row_sch`` entry), checked against
#: the matrix row it sources from when loading with ``validate=True``.
_REQUIRED = (
    "matrix_rows",
    "matrix_cols",
    "matrix_data",
    "row_perm",
    "map_cols",
    "map_lanes",
    "map_offsets",
    "window_colors",
    "slot_steps",
    "slot_lanes",
    "slot_rows",
    "slot_source",
)

#: Optional acceleration arrays (present when written via the cache tier):
#: the balanced->original value permutation (and, accepted for
#: flexibility, its original->balanced inverse).
_OPTIONAL = ("inv_order", "data_order")


@dataclass(frozen=True)
class StoredSchedule:
    """Everything :func:`load_schedule_entry` recovers from one artifact.

    ``inv_order`` (the balanced-order -> original-order value
    permutation) is present when the artifact was written through a
    :class:`~repro.core.cache.ScheduleCache`, letting the cache reconstruct
    its refresh entry without re-deriving it; an artifact carrying the
    forward ``data_order`` member hands it on as ``balanced.data_order``.
    """

    schedule: Schedule
    balanced: BalancedMatrix
    #: naive-policy stall count captured at scheduling time (0 for the
    #: coloring-based policies).
    stalls: int
    inv_order: np.ndarray | None
    #: replay-ready execution plan, assembled from the schedule's slots
    #: without a sort.
    plan: ExecutionPlan


def _compact_ints(arr: np.ndarray) -> np.ndarray:
    """Narrow an integer array to the smallest sufficient signed dtype."""
    arr = np.ascontiguousarray(arr)
    if arr.size == 0:
        return arr.astype(np.int16)
    lo, hi = int(arr.min()), int(arr.max())
    for dtype in (np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return arr.astype(dtype)
    return arr.astype(np.int64)


def _save_container(
    path: str | Path, scalars: dict, arrays: dict[str, np.ndarray]
) -> None:
    """Assemble and atomically write one artifact.

    Exposed (privately) so tests can author artifacts with arbitrary
    contents; production callers go through :func:`save_schedule`.
    """
    manifest: dict[str, dict] = {}
    offset = 0
    buffers: list[bytes] = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        pad = (-offset) % _ALIGN
        if pad:
            buffers.append(b"\x00" * pad)
            offset += pad
        raw = arr.tobytes()
        manifest[name] = {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
        }
        buffers.append(raw)
        offset += len(raw)
    header = json.dumps({"scalars": scalars, "arrays": manifest}).encode()

    crc = zlib.crc32(header)
    for buf in buffers:
        crc = zlib.crc32(buf, crc)
    prologue = (
        _MAGIC
        + np.array(
            [_FORMAT_VERSION, len(header), crc, 0], dtype="<u4"
        ).tobytes()
    )

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Write-then-rename: the temporary lives in the destination directory
    # so os.replace is an atomic same-filesystem rename.
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(prologue)
            handle.write(header)
            for buf in buffers:
                handle.write(buf)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _load_container(
    path: str | Path,
) -> tuple[dict, dict[str, np.ndarray], int]:
    """Read, checksum-verify, and view one artifact's (scalars, arrays,
    format version).

    Returned arrays are read-only ``frombuffer`` views over the single
    file read; callers copy only what they intend to mutate.
    """
    path = Path(path)
    data = path.read_bytes()  # FileNotFoundError propagates untouched
    if len(data) < _PROLOGUE_BYTES or data[:8] != _MAGIC:
        raise ScheduleError(f"{path} is not a schedule artifact")
    version, header_len, stored_crc, _ = np.frombuffer(
        data, dtype="<u4", count=4, offset=8
    )
    if int(version) not in _COMPAT_VERSIONS:
        raise ScheduleError(
            f"schedule file version {int(version)} unsupported "
            f"(expected one of {_COMPAT_VERSIONS})"
        )
    if zlib.crc32(memoryview(data)[_PROLOGUE_BYTES:]) != int(stored_crc):
        raise ScheduleError(
            f"schedule file {path} failed its integrity checksum; "
            "the artifact is corrupt or truncated"
        )
    try:
        header = json.loads(
            data[_PROLOGUE_BYTES : _PROLOGUE_BYTES + int(header_len)]
        )
        scalars = header["scalars"]
        payload_start = _PROLOGUE_BYTES + int(header_len)
        arrays: dict[str, np.ndarray] = {}
        for name, spec in header["arrays"].items():
            dtype = np.dtype(spec["dtype"])
            shape = tuple(spec["shape"])
            count = int(np.prod(shape)) if shape else 1
            arrays[name] = np.frombuffer(
                data,
                dtype=dtype,
                count=count,
                offset=payload_start + int(spec["offset"]),
            ).reshape(shape)
    except (KeyError, ValueError, TypeError) as err:
        raise ScheduleError(
            f"schedule file {path} has a malformed header: {err}"
        ) from err
    return scalars, arrays, int(version)


def _check_range(name: str, arr: np.ndarray, lo: int, hi: int) -> None:
    """Bounds-check an index array before it drives any fancy indexing."""
    if arr.size and (int(arr.min()) < lo or int(arr.max()) >= hi):
        raise ScheduleError(
            f"schedule artifact member {name!r} holds out-of-range indices"
        )


def save_schedule(
    path: str | Path,
    schedule: Schedule,
    balanced: BalancedMatrix,
    *,
    stalls: int = 0,
    data_order: np.ndarray | None = None,
) -> None:
    """Atomically write a schedule and its balancing metadata to ``path``.

    Args:
        path: destination artifact file.
        schedule / balanced: the preprocessing result to persist.  The
            schedule's slot arrays are written as they are (destination-row
            order), so a reader needs no sort.
        stalls: naive-policy stall count to carry alongside the schedule.
        data_order: optional original-order -> balanced-order value
            permutation, persisted so the cache tier can warm-start
            without re-deriving it.
    """
    m, n = schedule.shape
    scalars = {
        "length": int(schedule.length),
        "shape": [int(m), int(n)],
        "stalls": int(stalls),
    }
    arrays: dict[str, np.ndarray] = {
        "matrix_rows": _compact_ints(balanced.matrix.rows),
        "matrix_cols": _compact_ints(balanced.matrix.cols),
        "matrix_data": np.asarray(balanced.matrix.data, dtype=np.float64),
        "row_perm": _compact_ints(balanced.row_perm),
        "map_cols": _compact_ints(balanced.map_cols),
        "map_lanes": _compact_ints(balanced.map_lanes),
        "map_offsets": _compact_ints(balanced.map_offsets),
        "window_colors": _compact_ints(
            np.asarray(schedule.window_colors, dtype=np.int64)
        ),
        "slot_steps": _compact_ints(schedule.steps),
        "slot_lanes": _compact_ints(schedule.lanes),
        "slot_rows": _compact_ints(schedule.rows % schedule.length),
        "slot_source": _compact_ints(schedule.source),
    }
    if data_order is not None:
        # Persist only the inverse (balanced -> original): a warm start
        # needs exactly one gather through it, and the forward permutation
        # is rebuilt lazily on the first value refresh.
        inv_order = np.empty(data_order.size, dtype=np.int64)
        inv_order[data_order] = np.arange(data_order.size, dtype=np.int64)
        arrays["inv_order"] = _compact_ints(inv_order)
    _save_container(path, scalars, arrays)


def load_schedule_entry(
    path: str | Path, validate: bool = True
) -> StoredSchedule:
    """Read back an artifact written by :func:`save_schedule`.

    Verification order: magic/format version, then the CRC-32 integrity
    checksum over every byte of header and payload, then index bounds
    checks, then (with ``validate=True``) canonical-order and structural
    :meth:`Schedule.validate` checks.  A file failing any step raises
    :class:`ScheduleError`; a missing file raises
    :class:`FileNotFoundError` untouched so callers can distinguish "never
    persisted" from "persisted but corrupt".

    ``validate=False`` skips the logical checks and is
    meant for the disk store's hot warm-start path: an artifact that
    passes its checksum is byte-identical to what :func:`save_schedule`
    wrote, so the residual risk is a writer bug, not disk corruption.
    """
    scalars, arrays, version = _load_container(path)
    missing = [name for name in _REQUIRED if name not in arrays]
    if missing:
        raise ScheduleError(
            f"schedule file {path} is missing members: {', '.join(missing)}"
        )
    try:
        length = int(scalars["length"])
        m, n = (int(v) for v in scalars["shape"])
        stalls = int(scalars["stalls"])
    except (KeyError, TypeError, ValueError) as err:
        raise ScheduleError(
            f"schedule file {path} has malformed scalar metadata: {err}"
        ) from err
    if length <= 0 or m < 0 or n < 0:
        raise ScheduleError(f"schedule file {path} has impossible dimensions")

    window_colors = arrays["window_colors"].astype(np.int64)
    if window_colors.size and int(window_colors.min()) < 0:
        raise ScheduleError("negative window color count in artifact")
    total = int(window_colors.sum())
    nnz = int(arrays["matrix_data"].size)

    # Under validate=True the int64 canonical dtype contract is restored;
    # the checksum-trusted fast path keeps the narrow on-disk dtypes (all
    # downstream arithmetic promotes against np.int64 scalars).
    rows = arrays["matrix_rows"]
    cols = arrays["matrix_cols"]
    if validate:
        rows = rows.astype(np.int64)
        cols = cols.astype(np.int64)
    data = arrays["matrix_data"]
    if rows.size != nnz or cols.size != nnz:
        raise ScheduleError("matrix index/value arrays disagree on nnz")

    steps = arrays["slot_steps"]
    lanes = arrays["slot_lanes"]
    slot_rows = arrays["slot_rows"]
    source = arrays["slot_source"]
    if not (steps.size == lanes.size == source.size == nnz):
        raise ScheduleError("slot arrays disagree with the matrix nnz")
    if slot_rows.size != nnz:
        raise ScheduleError("slot row array disagrees with the matrix nnz")
    if nnz > total * length:
        # Pigeonhole: more scheduled nonzeros than schedule slots.  Also
        # closes the total == 0 corner the per-element bounds below would
        # admit (max(total, 1) keeps an empty range checkable).
        raise ScheduleError(
            f"schedule file {path} holds {nnz} nonzeros in "
            f"{total}x{length} slots"
        )
    # Bounds always precede any fancy indexing (even on the checksum-
    # trusted fast path): the checksum proves these are the writer's
    # bytes, but a *writer bug* could still persist out-of-range indices,
    # and the store's quarantine contract requires that to surface as a
    # clean ScheduleError at load time — not a bare IndexError escaping
    # the lookup, or a deferred failure from a gather or the lazy dense
    # view after the entry has already been served.  Each check is one O(nnz)
    # min/max pass over a narrow array.
    _check_range("matrix_rows", rows, 0, max(m, 1))
    _check_range("matrix_cols", cols, 0, max(n, 1))
    _check_range("slot_steps", steps, 0, max(total, 1))
    _check_range("slot_lanes", lanes, 0, length)
    _check_range("slot_rows", slot_rows, 0, length)
    _check_range("slot_source", source, 0, max(nnz, 1))
    if validate:
        expected_rows = rows[source.astype(np.intp)] % length
        if not np.array_equal(slot_rows, expected_rows.astype(slot_rows.dtype)):
            raise ScheduleError(
                "slot_rows disagree with the matrix rows they index"
            )

    # The schedule is its slot arrays: one gather per array through the
    # slot sources, shared with the execution plan below.  Version 2
    # persisted the slots in scan order (step, then lane); a stable sort by
    # destination row restores the schedule's (row, step) order.
    slot_source = source.astype(np.intp)
    if version < 3:
        order = np.argsort(rows[slot_source], kind="stable")
        slot_source, steps, lanes = slot_source[order], steps[order], lanes[order]
    schedule = Schedule(
        length=length,
        shape=(m, n),
        window_colors=tuple(window_colors.tolist()),
        steps=steps,
        lanes=lanes,
        rows=rows[slot_source].astype(np.intp, copy=False),
        cols=cols[slot_source].astype(np.intp, copy=False),
        values=data[slot_source],
        source=slot_source,
    )

    row_perm = arrays["row_perm"]
    if row_perm.size != m:
        raise ScheduleError("row permutation length does not match matrix")
    # row_perm drives the replay-side gather, so its bounds are enforced
    # on every path too.
    _check_range("row_perm", row_perm, 0, max(m, 1))
    if validate:
        row_perm = row_perm.astype(np.int64)

    offsets = arrays["map_offsets"].astype(np.int64)
    map_cols = arrays["map_cols"].astype(np.int64)
    map_lanes = arrays["map_lanes"].astype(np.int64)
    if (
        offsets.size != window_colors.size + 1
        or offsets.size == 0
        or int(offsets[-1]) != map_cols.size
        or map_lanes.size != map_cols.size
        or (offsets.size > 1 and (np.diff(offsets) < 0).any())
    ):
        raise ScheduleError(
            f"schedule file {path} has inconsistent window map offsets"
        )
    data_order = arrays.get("data_order")
    inv_order = arrays.get("inv_order")
    if data_order is not None:
        if data_order.size != nnz:
            raise ScheduleError("data_order length does not match nnz")
        _check_range("data_order", data_order, 0, max(nnz, 1))
    if inv_order is not None:
        # inv_order feeds the cache tier's warm-start gather after this
        # function returns, so it is bounds-checked on every path.
        if inv_order.size != nnz:
            raise ScheduleError("inv_order length does not match nnz")
        _check_range("inv_order", inv_order, 0, max(nnz, 1))

    # Every entry's lane is its slot's lane.
    entry_lanes = np.empty(nnz, dtype=np.int64)
    entry_lanes[slot_source] = lanes
    balanced = BalancedMatrix(
        matrix=CooMatrix(rows=rows, cols=cols, data=data, shape=(m, n)),
        row_perm=row_perm,
        lanes=entry_lanes,
        map_cols=map_cols,
        map_lanes=map_lanes,
        map_offsets=offsets,
        data_order=data_order,
    )
    plan = ExecutionPlan.from_sorted(
        length=length,
        shape=(m, n),
        values=schedule.values,
        sources=schedule.cols,
        rows=schedule.rows,
        row_perm=row_perm,
        value_source=slot_source,
    )

    if validate:
        # Canonical order underpins the row-block gathers downstream.
        keys = rows * np.int64(max(n, 1)) + cols
        if keys.size > 1 and not (np.diff(keys) > 0).all():
            raise ScheduleError(
                f"schedule file {path} holds a non-canonical matrix"
            )
        if data_order is not None and data_order.size:
            counts = np.bincount(data_order, minlength=nnz)
            if counts.max() != 1:
                raise ScheduleError("data_order is not a permutation")
        schedule.validate()
        # Schedule-level diagnostics first (collisions, ranges), then the
        # plan's own structural checks (sortedness, segment boundaries).
        plan.validate()

    return StoredSchedule(
        schedule=schedule,
        balanced=balanced,
        stalls=stalls,
        inv_order=inv_order,
        plan=plan,
    )


def load_schedule(path: str | Path) -> tuple[Schedule, BalancedMatrix]:
    """Read back a (schedule, balanced) pair written by :func:`save_schedule`.

    The artifact is checksum-verified and re-validated on load, so a
    corrupted or tampered file fails loudly instead of producing silent
    collisions.  See :func:`load_schedule_entry` for the stall and join
    metadata.
    """
    entry = load_schedule_entry(path)
    return entry.schedule, entry.balanced
