"""Content-addressed on-disk schedule store: the persistent cache tier.

GUST's deployment story (Table 4 vs. Serpens) assumes the edge-coloring
schedule outlives a single process: a fleet of workers serves SpMV traffic
against a shared artifact store and never pays the coloring cost twice for
one sparsity pattern.  RACE (Alappat et al.) treats coloring the same way —
a reusable preprocessing artifact, not a per-run expense.

This module is that store.  Artifacts are addressed by content, not by
name: the key is a stable fingerprint of everything the stored schedule
depends on —

* the sparsity pattern (shape, nnz, and the hashed canonical COO index
  arrays, via :func:`repro.core.cache.pattern_digest`),
* the scheduling configuration (length ``l``, coloring algorithm,
  load-balance flag), and
* the code/format version (:data:`SCHEDULER_CODE_VERSION` plus the
  serializer's format version), so artifacts from incompatible library
  revisions can never be confused for fresh ones.

Two processes that schedule the same pattern derive the same key and write
the same artifact; :func:`repro.core.serialize.save_schedule`'s atomic
write-then-rename makes the race harmless (last writer wins, every reader
sees a complete file).  A corrupt or truncated artifact — failed checksum,
bad format, wrong version — is quarantined into the store's
``.quarantine/`` subdirectory and reported as a miss, so the caller falls
through to recomputation and the damaged bytes stay available for
forensics (a writer bug should be debuggable, not destroyed); corruption
never propagates.  ``clear()`` empties the quarantine along with the live
artifacts.

The store holds a bounded byte budget.  After each write, artifacts are
evicted oldest-modification-first until the directory fits the budget
(an approximate LRU: loads refresh the file's mtime).  Budget accounting
runs off a lightweight size manifest (``.manifest.json``) so the common
under-budget insert is O(1) instead of re-statting the whole directory;
the full stat walk remains the authority and runs whenever the manifest
is stale, unreadable, reports the store over budget, or periodically as
insurance against concurrent writers (see :meth:`_account_write`).

Layered under :class:`~repro.core.cache.ScheduleCache` (pass ``store=``),
lookups go memory -> disk -> compute with write-back on miss; see
:class:`~repro.core.pipeline.GustPipeline`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import faults as _faults
from repro.analysis.runtime import validation_enabled
from repro.core.load_balance import BalancedMatrix
from repro.core.schedule import Schedule
from repro.obs import trace as _trace
from repro.core.serialize import (
    _FORMAT_VERSION,
    StoredSchedule,
    load_schedule_entry,
    save_schedule,
)
from repro.errors import HardwareConfigError, ScheduleError
from repro.sparse.coo import CooMatrix

#: Bump when scheduling *semantics* change (coloring order, balancer
#: behavior, schedule layout): persisted artifacts keyed under the old
#: version then simply miss instead of replaying stale schedules.
SCHEDULER_CODE_VERSION = 1

#: Default size budget for a store directory (1 GiB).
DEFAULT_MAX_BYTES = 1 << 30

#: Artifact filename suffix.
_SUFFIX = ".sched"

#: Subdirectory receiving corrupt artifacts (kept for forensics).
_QUARANTINE_DIR = ".quarantine"

#: Most corrupt artifacts retained for forensics; a recurring writer bug
#: must not grow the quarantine without bound, so the oldest files are
#: pruned past this count.
_QUARANTINE_KEEP = 8

#: Size-manifest filename (lives beside the artifacts, never matches the
#: artifact suffix so it is invisible to the artifact walk).
_MANIFEST_NAME = ".manifest.json"

#: Manifest schema version; bump on incompatible layout changes so old
#: manifests read as stale and trigger a rebuild walk.
_MANIFEST_VERSION = 1

#: Every Nth write re-syncs the manifest from a full stat walk.  Another
#: process's writes can be missing from this process's manifest copy
#: (last-writer-wins update race), which at worst delays eviction; the
#: periodic walk bounds that drift without paying the walk per insert.
_MANIFEST_RESYNC_WRITES = 64


def default_store_dir() -> Path:
    """The conventional store location, ``~/.cache/gust``.

    ``GUST_CACHE_DIR`` overrides outright; otherwise ``XDG_CACHE_HOME`` (or
    ``~/.cache``) is used as the base, matching the usual Linux cache
    conventions.
    """
    override = os.environ.get("GUST_CACHE_DIR")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME")
    if base:
        return Path(base) / "gust"
    return Path.home() / ".cache" / "gust"


def store_key_from_digest(digest: bytes, nnz: int) -> str:
    """Content address for a pattern digest under the current code version."""
    h = hashlib.blake2b(digest_size=20)
    h.update(b"gust-schedule-artifact")
    h.update(
        np.array(
            [SCHEDULER_CODE_VERSION, _FORMAT_VERSION, nnz], dtype=np.int64
        ).tobytes()
    )
    h.update(digest)
    return h.hexdigest()


@dataclass(frozen=True)
class DiskStoreStats:
    """Counters for one :class:`DiskScheduleStore` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    write_errors: int = 0
    corrupt_dropped: int = 0
    evictions: int = 0
    #: Read/write ``OSError``s absorbed and degraded to a miss or failed
    #: write — the store keeps serving (by recomputing) while its disk is
    #: sick, and this counter is how operators notice the sickness.
    io_errors: int = 0
    #: Full directory stat walks performed for budget accounting; with the
    #: size manifest healthy this stays near writes / 64 instead of 1:1.
    stat_walks: int = 0


class DiskScheduleStore:
    """Bounded directory of content-addressed schedule artifacts.

    Args:
        directory: artifact directory; created on first use.  Defaults to
            :func:`default_store_dir`.
        max_bytes: total artifact byte budget; oldest artifacts are evicted
            after each write until the directory fits.
        faults: explicit :class:`~repro.faults.FaultPlan` for the
            ``store-read`` / ``store-write`` / ``store-corrupt`` injection
            sites; ``None`` uses the ambient plan (``GUST_FAULTS``).

    The store is safe to share between processes: writes are atomic
    renames, reads only ever see complete files, and corrupt files are
    quarantined on first contact.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
        faults: _faults.FaultPlan | None = None,
    ):
        if max_bytes <= 0:
            raise HardwareConfigError(
                f"store byte budget must be positive, got {max_bytes}"
            )
        self.directory = (
            Path(directory) if directory is not None else default_store_dir()
        )
        self.max_bytes = max_bytes
        self._faults = faults
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._write_errors = 0
        self._corrupt_dropped = 0
        self._evictions = 0
        self._io_errors = 0
        self._stat_walks = 0

    # -- keys and paths -----------------------------------------------------

    def key_for(
        self,
        matrix: CooMatrix,
        length: int,
        algorithm: str,
        load_balance: bool,
    ) -> str:
        """Content address of ``matrix``'s schedule under one configuration."""
        from repro.core.cache import pattern_digest

        digest = pattern_digest(matrix, length, algorithm, load_balance)
        return store_key_from_digest(digest, matrix.nnz)

    def path_for(self, key: str) -> Path:
        """Artifact path for a key (flat layout, one file per pattern)."""
        return self.directory / f"{key}{_SUFFIX}"

    # -- introspection ------------------------------------------------------

    @property
    def stats(self) -> DiskStoreStats:
        return DiskStoreStats(
            hits=self._hits,
            misses=self._misses,
            writes=self._writes,
            write_errors=self._write_errors,
            corrupt_dropped=self._corrupt_dropped,
            evictions=self._evictions,
            io_errors=self._io_errors,
            stat_walks=self._stat_walks,
        )

    def _artifacts(self) -> list[Path]:
        if not self.directory.is_dir():
            return []
        return [
            p
            for p in self.directory.iterdir()
            if p.suffix == _SUFFIX and p.is_file()
        ]

    def artifact_count(self) -> int:
        """Number of artifacts currently on disk."""
        return len(self._artifacts())

    def total_bytes(self) -> int:
        """Bytes currently occupied by artifacts."""
        total = 0
        for path in self._artifacts():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    # -- load / store / clear ----------------------------------------------

    def load(self, key: str) -> StoredSchedule | None:
        """Fetch an artifact by key; ``None`` on miss or quarantined file.

        Loads normally skip the O(nnz log nnz) logical re-validation: the
        CRC-32 checksum already proves the bytes are exactly what
        :func:`~repro.core.serialize.save_schedule` wrote, and warm-start
        latency is this tier's reason to exist.  Integrity (bit rot,
        truncation, version skew) is still fully enforced, and setting
        ``GUST_VALIDATE=1`` turns the full schedule/plan invariant checks
        back on at this trust boundary (CI runs a tier-1 leg that way).
        """
        path = self.path_for(key)
        try:
            _faults.raise_if(
                "store-read",
                lambda: OSError("injected store-read fault"),
                self._faults,
            )
            with _trace.span("store.read", cat="store"):
                entry = load_schedule_entry(
                    path, validate=validation_enabled()
                )
        except FileNotFoundError:
            self._misses += 1
            return None
        except ScheduleError:
            # Corrupt, truncated, or version-mismatched: move it aside so
            # the slot can be rebuilt, and report a miss — the caller
            # recomputes.  The bytes land in ``.quarantine/`` rather than
            # being destroyed, preserving the evidence a writer bug would
            # need.  Never let a bad artifact escape.
            self._corrupt_dropped += 1
            self._misses += 1
            self._quarantine(path)
            return None
        except OSError:
            # Transient I/O trouble (e.g. a flaky network mount) is a
            # miss, not corruption — leave the shared artifact alone.
            self._misses += 1
            self._io_errors += 1
            return None
        self._hits += 1
        # Approximate-LRU bookkeeping for the byte-budget eviction.
        try:
            os.utime(path)
        except OSError:
            pass
        return entry

    def store(
        self,
        key: str,
        schedule: Schedule,
        balanced: BalancedMatrix,
        stalls: int = 0,
        data_order: np.ndarray | None = None,
    ) -> bool:
        """Persist one schedule under ``key``; returns False on I/O failure.

        ``data_order`` is forwarded to
        :func:`~repro.core.serialize.save_schedule` so a cache tier that
        holds the balancer's value order persists it for free.  Write
        failures (disk full, permissions) are absorbed and counted — a
        serving system must keep answering queries when its cache
        directory is sick — but the artifact is then simply absent.

        The post-write budget eviction never sacrifices the artifact this
        call just wrote while older ones remain (newest-in is the one the
        caller is most likely to read back); only when the artifact alone
        exceeds the whole budget is it dropped — and then the return value
        says so: True means the artifact is on disk when this returns.
        """
        try:
            _faults.raise_if(
                "store-write",
                lambda: OSError("injected store-write fault"),
                self._faults,
            )
            with _trace.span("store.write", cat="store"):
                save_schedule(
                    self.path_for(key),
                    schedule,
                    balanced,
                    stalls=stalls,
                    data_order=data_order,
                )
        except OSError:
            self._write_errors += 1
            self._io_errors += 1
            return False
        self._writes += 1
        if _faults.should_fire("store-corrupt", self._faults):
            # Simulated bit rot: damage the artifact *after* a successful
            # write so the next load exercises the genuine checksum ->
            # quarantine -> recompute path, not a shortcut around it.
            self._flip_bytes(self.path_for(key))
        return self._account_write(self.path_for(key))

    @staticmethod
    def _flip_bytes(path: Path) -> None:
        """XOR a byte mid-file (the ``store-corrupt`` fault injector)."""
        try:
            with open(path, "r+b") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                if size == 0:
                    return
                handle.seek(size // 2)
                byte = handle.read(1)
                handle.seek(size // 2)
                handle.write(bytes([byte[0] ^ 0xFF]))
        except OSError:
            pass

    def contains(self, key: str) -> bool:
        return self.path_for(key).is_file()

    @property
    def quarantine_dir(self) -> Path:
        """Directory corrupt artifacts are moved into on first contact."""
        return self.directory / _QUARANTINE_DIR

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt artifact into the quarantine subdirectory.

        The move is a same-filesystem rename (atomic, no copy); if even
        that fails — e.g. a read-only store — fall back to deleting so a
        poisoned slot cannot wedge the store, and absorb errors entirely:
        quarantine is bookkeeping, not correctness.  The quarantine is
        bounded: past ``_QUARANTINE_KEEP`` files, the oldest are pruned,
        so a recurring writer bug keeps its freshest evidence without
        eating the disk.
        """
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
            return
        try:
            entries = []
            for kept in self.quarantine_dir.iterdir():
                if kept.is_file():
                    entries.append((kept.stat().st_mtime, kept))
            entries.sort()  # oldest first
            for _, stale in entries[: max(0, len(entries) - _QUARANTINE_KEEP)]:
                stale.unlink()
        except OSError:
            pass

    def quarantined_count(self) -> int:
        """Number of corrupt artifacts currently held in quarantine."""
        quarantine = self.quarantine_dir
        if not quarantine.is_dir():
            return 0
        return sum(1 for p in quarantine.iterdir() if p.is_file())

    def clear(self) -> int:
        """Delete every artifact, stray temporary, and quarantined file;
        returns the count removed."""
        removed = 0
        if not self.directory.is_dir():
            return removed
        for path in self.directory.iterdir():
            if not path.is_file():
                continue
            if path.suffix == _SUFFIX or path.suffix == ".tmp":
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        # The manifest describes artifacts that no longer exist; drop it
        # (not counted — it is bookkeeping, not an artifact).
        try:
            self.manifest_path.unlink()
        except OSError:
            pass
        quarantine = self.quarantine_dir
        if quarantine.is_dir():
            for path in quarantine.iterdir():
                if not path.is_file():
                    continue
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        return removed

    # -- budget accounting ---------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        """Location of the size manifest used for O(1) budget checks."""
        return self.directory / _MANIFEST_NAME

    def _read_manifest(self) -> dict[str, int] | None:
        """Artifact-name -> byte-size map, or ``None`` when stale/absent.

        Any defect — missing file, unreadable JSON, version skew, malformed
        entries — reads as "stale": the caller falls back to the
        authoritative stat walk and rebuilds.
        """
        try:
            raw = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(raw, dict) or raw.get("version") != _MANIFEST_VERSION:
            return None
        sizes = raw.get("sizes")
        if not isinstance(sizes, dict):
            return None
        out: dict[str, int] = {}
        for name, size in sizes.items():
            if not isinstance(name, str) or not isinstance(size, int):
                return None
            out[name] = size
        return out

    def _write_manifest(self, sizes: dict[str, int]) -> None:
        """Atomically persist the size map; failures are absorbed (the
        manifest is an optimization — the stat walk remains correct)."""
        payload = json.dumps(
            {"version": _MANIFEST_VERSION, "sizes": sizes}, separators=(",", ":")
        )
        tmp = self.manifest_path.with_suffix(".json.tmp")
        try:
            tmp.write_text(payload, encoding="utf-8")
            os.replace(tmp, self.manifest_path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass

    def _walk_sizes(self) -> dict[str, int]:
        """Authoritative artifact-size map from a full directory stat."""
        self._stat_walks += 1
        sizes: dict[str, int] = {}
        for path in self._artifacts():
            try:
                sizes[path.name] = path.stat().st_size
            except OSError:
                continue
        return sizes

    def _account_write(self, written: Path) -> None:
        """Post-write budget enforcement through the size manifest.

        The common case — store under budget, manifest healthy — costs one
        stat (the just-written artifact) plus a small JSON rewrite instead
        of re-statting every artifact.  The full walk runs when the
        manifest is stale/unreadable, every ``_MANIFEST_RESYNC_WRITES``-th
        write (bounding drift from concurrent writers whose inserts this
        process's manifest copy may have lost), or whenever the manifest
        total says the budget is exceeded — eviction decisions always come
        from fresh stat data, never from the manifest alone.

        Returns True while ``written`` is still on disk afterwards.
        """
        sizes = None
        if self._writes % _MANIFEST_RESYNC_WRITES != 0:
            sizes = self._read_manifest()
        if sizes is not None:
            try:
                sizes[written.name] = written.stat().st_size
            except OSError:
                sizes = None
        if sizes is None:
            sizes = self._walk_sizes()
        if sum(sizes.values()) <= self.max_bytes:
            self._write_manifest(sizes)
            return True
        return self._evict_to_budget(protect=written)

    def _evict_to_budget(self, protect: Path | None = None) -> bool:
        """Evict oldest-mtime artifacts until the directory fits the budget.

        Always works from a fresh stat walk (sizes *and* mtimes), then
        rewrites the manifest to match the surviving set.  ``protect``
        (the artifact whose write triggered this pass) is spared while any
        other artifact can be evicted instead — mtime says it is the
        newest *use*, and evicting the one artifact the caller just paid
        to persist would silently turn the write into a no-op.  Only when
        the protected artifact alone still exceeds the budget is it
        dropped too; the return value is False exactly in that case.
        """
        self._stat_walks += 1
        entries = []
        for path in self._artifacts():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _, size, _ in entries)
        survivors = {path.name: size for _, size, path in entries}
        entries.sort()  # oldest first
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            if protect is not None and path == protect:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            survivors.pop(path.name, None)
            self._evictions += 1
        survived = True
        if total > self.max_bytes and protect is not None:
            # Nothing else left to evict: the protected artifact alone
            # busts the budget.  Honor the budget and report honestly.
            try:
                protect.unlink()
                self._evictions += 1
            except OSError:
                pass
            else:
                size = survivors.pop(protect.name, None)
                if size is not None:
                    total -= size
                survived = False
        self._write_manifest(survivors)
        return survived
