"""File-backed, versioned storage for compressed workload profiles.

The §2 use cases (monitoring, auditing, drift detection) presume a
*long-lived* summary: compress once, then query and maintain it for
weeks.  :class:`SummaryStore` gives LogR artifacts that home — named
profiles (one per workload tenant: tpch, sdss, bank, ...), each a
sequence of immutable versions, indexed by a manifest.

On disk::

    <root>/
        manifest.json                 # profile -> checkpoints, pane segments
        profiles/<name>/v000001.json  # a checkpoint: one self-contained version
        profiles/<name>/j000001.log   # ingest journal on top of checkpoint 1
        segments/<name>/s000000.json  # one time pane per segment (0-based)

Versions are dense per profile.  Each one is either a *checkpoint* or a
*journal record*.  A checkpoint is a version file listed in the
manifest.  It carries the *full* :class:`repro.core.compress.
CompressedLog` payload (mixture + labels + provenance + vocabulary)
and, optionally, the encoded training state (distinct rows +
multiplicities) that incremental ingestion and threshold calibration
need.  Its manifest entry also keeps the ingestor's float running sums,
so a reloaded ingestor continues bit for bit.  The raw SQL text is
never stored.

A journal record is one ``/ingest``: :meth:`SummaryStore.append` adds
it to the journal of the profile's latest checkpoint with one write and
one fsync, and touches neither the manifest nor a version file.  It
holds the merge's :class:`repro.service.ingest.BatchDelta` (the
codebook features it added, in insertion order, and its ``(index row,
count)`` pairs, in merge order) and that version's
:class:`ProfileVersion` summary.  Each record is framed as
``[u32 LE payload length][u32 LE CRC-32 of the payload][payload]``,
the payload a compact JSON object.  A reader keeps the prefix up to
the last whole record (length, checksum and consecutive version all
check out); the next append cuts the file back to that prefix first.
Loading a journaled version reads the checkpoint below it and replays
the records through :meth:`IncrementalIngestor.replay
<repro.service.ingest.IncrementalIngestor.replay>`, which reproduces
the state its writer held bit for bit.

Checkpoint policy: :meth:`SummaryStore.save` writes one — the caller
decides when (a recompression, ``logr compress`` / ``logr ingest``,
server shutdown).  :meth:`SummaryStore.append` writes nothing and
returns ``None`` when the journal already holds
:data:`CHECKPOINT_RECORDS` records, or when the version the record
was computed from is no longer the profile's latest (another writer
saved in between); the caller then saves a checkpoint instead.
``save(..., version=v)`` checkpoints an existing journaled version in
place (shutdown), so the manifest's last entry names the live version.

Segments are the windowed layer's pane log: an append-only sequence of
compressed pane mixtures per profile (see :mod:`repro.service.windows`),
indexed by the same manifest.  Unlike versions — snapshots of one
evolving profile — segments are disjoint time slices meant to be
*composed* (merged, decayed, subtracted) on demand.

Checkpoint and segment files are deflated: compact JSON in one gzip
member (level 6, mtime 0, no file name), so their bytes depend only on
the payload and ``zcat profiles/<name>/v000004.json`` prints it.  A
reader inflates a file that starts with the gzip magic and parses any
other as plain JSON, so stores written before deflation load as they
are.  Deflate shrinks the bulk of a checkpoint — the training state's
per-row feature index lists, the codebook strings and the marginals'
17-digit floats — about sevenfold.  The manifest stays plain JSON and
journal records stay uncompressed (one append per ``/ingest``).

Writes are atomic: version files and the manifest are written to a
temp file in the target directory and ``os.replace``-d into place, so
a crash mid-save can leave a stray temp file but never a torn profile.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import re
import struct
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

import numpy as np

from ..core.compress import CompressedLog
from ..core.log import QueryLog
from ..core.mixture import _default_feature_codec, _default_feature_decoder
from ..obs import metrics as _metrics
from ..obs.trace import span as _span
from .ingest import BatchDelta, IncrementalIngestor

__all__ = [
    "CHECKPOINT_RECORDS",
    "ProfileVersion",
    "PaneSegment",
    "StoredVersion",
    "SummaryStore",
    "StoreError",
]

#: Journal records a checkpoint may carry; the next ingest checkpoints.
CHECKPOINT_RECORDS = 64

# Telemetry only (see repro.obs): store I/O traffic across every
# SummaryStore in the process, by artifact kind.
_STORE_READS = _metrics.counter(
    "logr_store_reads_total",
    "Store artifact reads, by kind (profile/segment).",
    labelnames=("kind",),
)
_STORE_WRITES = _metrics.counter(
    "logr_store_writes_total",
    "Store writes, by kind (profile checkpoint/journal record/segment_rewrite).",
    labelnames=("kind",),
)
_STORE_SEGMENT_APPENDS = _metrics.counter(
    "logr_store_segment_appends_total",
    "Pane segments appended to the store's append-only log.",
)

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

_MANIFEST_FORMAT = "logr-store-v1"
_PROFILE_FORMAT = "logr-profile-v1"
_SEGMENT_FORMAT = "logr-pane-v1"

#: Journal record header: payload length, CRC-32 of the payload.
_FRAME = struct.Struct("<II")

#: The first bytes of a gzip member: a deflated version or segment file.
_GZIP_MAGIC = b"\x1f\x8b"


class StoreError(KeyError):
    """Unknown profile/version or a malformed store layout."""


def valid_profile_name(name: str) -> bool:
    """Whether the store could hold a profile called *name*."""
    return bool(_NAME_RE.match(name))


@dataclass(frozen=True)
class ProfileVersion:
    """Index entry for one immutable profile version."""

    name: str
    version: int
    created_at: float  # unix seconds
    error_bits: float
    verbosity: int
    total_queries: int
    n_components: int
    has_state: bool
    note: str = ""

    def to_payload(self) -> dict:
        """JSON-ready manifest entry."""
        return {
            "version": self.version,
            "created_at": self.created_at,
            "error_bits": self.error_bits,
            "verbosity": self.verbosity,
            "total_queries": self.total_queries,
            "n_components": self.n_components,
            "has_state": self.has_state,
            "note": self.note,
        }

    @classmethod
    def from_payload(cls, name: str, payload: dict) -> "ProfileVersion":
        """Rebuild an entry from its manifest payload."""
        return cls(
            name=name,
            version=int(payload["version"]),
            created_at=float(payload["created_at"]),
            error_bits=float(payload["error_bits"]),
            verbosity=int(payload["verbosity"]),
            total_queries=int(payload["total_queries"]),
            n_components=int(payload["n_components"]),
            has_state=bool(payload.get("has_state", False)),
            note=str(payload.get("note", "")),
        )


@dataclass(frozen=True)
class PaneSegment:
    """Index entry for one pane segment of a windowed profile.

    Everything the drift timeline needs lives here, in the manifest —
    per-pane Error, Verbosity and JS-drift are answerable without
    opening segment files, let alone raw statements.
    """

    name: str
    index: int  # pane number, 0-based, append-only
    created_at: float  # unix seconds, when the pane was sealed
    n_statements: int  # raw statements routed to the pane
    n_encoded: int  # statements that parsed and merged
    total: int  # encoded log entries in the pane mixture
    error_bits: float | None  # Generalized Error; None for empty panes
    verbosity: int
    n_components: int
    divergence_bits: float | None  # JS-drift vs the previous pane
    recompressed: bool = False  # cold-pane consolidation has run
    note: str = ""

    def to_payload(self) -> dict:
        """JSON-ready manifest entry."""
        return {
            "index": self.index,
            "created_at": self.created_at,
            "n_statements": self.n_statements,
            "n_encoded": self.n_encoded,
            "total": self.total,
            "error_bits": self.error_bits,
            "verbosity": self.verbosity,
            "n_components": self.n_components,
            "divergence_bits": self.divergence_bits,
            "recompressed": self.recompressed,
            "note": self.note,
        }

    @classmethod
    def from_payload(cls, name: str, payload: dict) -> "PaneSegment":
        """Rebuild an entry from its manifest payload."""
        error = payload.get("error_bits")
        divergence = payload.get("divergence_bits")
        return cls(
            name=name,
            index=int(payload["index"]),
            created_at=float(payload["created_at"]),
            n_statements=int(payload["n_statements"]),
            n_encoded=int(payload["n_encoded"]),
            total=int(payload["total"]),
            error_bits=None if error is None else float(error),
            verbosity=int(payload["verbosity"]),
            n_components=int(payload["n_components"]),
            divergence_bits=None if divergence is None else float(divergence),
            recompressed=bool(payload.get("recompressed", False)),
            note=str(payload.get("note", "")),
        )


@dataclass
class StoredVersion:
    """One loaded profile version: a checkpoint plus the records above it.

    :meth:`SummaryStore.load_version` returns it.  ``deltas`` are the
    journal records between the checkpoint and ``version`` (empty when
    ``version`` is a checkpoint); :meth:`ingestor` replays them.
    """

    version: int
    compressed: CompressedLog  # the checkpoint's artifact
    log: QueryLog | None  # the checkpoint's encoded training state
    running_sums: dict | None  # the checkpoint's ingestor running sums
    deltas: list[BatchDelta]

    def ingestor(self, **kwargs) -> IncrementalIngestor:
        """An ingestor holding ``version`` as its writer held it.

        Builds the ingestor over the checkpoint (``ValueError`` when it
        cannot be ingested into, as :class:`IncrementalIngestor`
        raises) and replays the records.  It takes ownership of
        ``compressed``, so call this once.  *kwargs* go to the
        ingestor (staleness threshold, seed, jobs).
        """
        ingestor = IncrementalIngestor(
            self.compressed, self.log, running_sums=self.running_sums, **kwargs
        )
        for delta in self.deltas:
            ingestor.replay(delta)
        return ingestor


@dataclass
class _Journal:
    """What one store instance last read of one journal file."""

    size: int  # file size when read
    end: int  # offset just past the last whole record
    entries: list[ProfileVersion]


class SummaryStore:
    """Versioned, multi-tenant persistence for compressed profiles.

    Args:
        root: store directory (created if missing).

    Thread safety: a single store instance serializes its writes with
    an internal lock; reads go straight to immutable version files.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._profiles_dir = self.root / "profiles"
        self._segments_dir = self.root / "segments"
        self._manifest_path = self.root / "manifest.json"
        self._lock = threading.Lock()
        self._profiles_dir.mkdir(parents=True, exist_ok=True)
        self._manifest: dict = {}  # guarded-by: _lock
        self._manifest_bytes: bytes | None = None  # guarded-by: _lock
        self._journals: dict[Path, _Journal] = {}  # guarded-by: _lock
        with self._lock:
            self._refresh_manifest()  # a corrupt manifest fails here

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    def _refresh_manifest(self) -> dict:  # holds: _lock
        """The manifest as it is on disk now.

        Another process may share the directory (``logr ingest`` while
        ``logr serve`` is running); trusting only the copy cached at
        construction would let the two silently overwrite each other's
        versions.  Concurrent *writers* are additionally serialized by
        the advisory file lock in :meth:`_writing`.  The file is read
        every time but parsed only when its bytes changed, so checking
        the latest version costs a journal append no JSON parse.
        """
        try:
            data = self._manifest_path.read_bytes()
        except FileNotFoundError:
            data = None
        except OSError as exc:
            raise StoreError(
                f"store manifest {self._manifest_path} is unreadable: {exc}"
            ) from exc
        if data is not None and data == self._manifest_bytes:
            return self._manifest
        if data is None:
            payload = {"format": _MANIFEST_FORMAT, "profiles": {}, "segments": {}}
        else:
            payload = _parse_manifest(data, self._manifest_path)
        self._manifest, self._manifest_bytes = payload, data
        return payload

    @contextlib.contextmanager
    def _file_lock(self):
        """Advisory cross-process write lock on the store directory.

        Closes the refresh-then-write race between two processes saving
        the same profile (both picking the same next version number).
        No-op where ``fcntl`` is unavailable.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        handle = open(self.root / ".store.lock", "a+")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()

    @contextlib.contextmanager
    def _writing(self):
        """Both write locks, yielding the current manifest.

        A write that fails after changing the cached manifest drops the
        cache, so the next read parses the file again.
        """
        with self._lock, self._file_lock():
            try:
                yield self._refresh_manifest()
            except BaseException:
                self._manifest_bytes = None
                raise

    def _write_manifest(self) -> None:  # holds: _lock
        data = json.dumps(self._manifest, indent=1).encode("utf-8")
        _atomic_write(self._manifest_path, data)
        self._manifest_bytes = data

    # ------------------------------------------------------------------
    # listing
    # ------------------------------------------------------------------
    def profiles(self) -> list[str]:
        """Stored profile names, sorted."""
        with self._lock:
            return sorted(self._refresh_manifest()["profiles"])

    def has_profile(self, name: str) -> bool:
        """Whether *name* has at least one stored version."""
        with self._lock:
            return name in self._refresh_manifest()["profiles"]

    def versions(self, name: str) -> list[ProfileVersion]:
        """All versions of *name*, checkpoints and journal records, oldest first."""
        with self._lock:
            merged = {}
            for payload in self._checkpoints(name):
                checkpoint = ProfileVersion.from_payload(name, payload)
                merged[checkpoint.version] = checkpoint
                for entry in self._journal(name, checkpoint.version).entries:
                    merged.setdefault(entry.version, entry)
        return [merged[version] for version in sorted(merged)]

    def latest(self, name: str) -> ProfileVersion:
        """The current (highest) version of *name*."""
        with self._lock:
            return self._latest(name)

    def _checkpoints(self, name: str) -> list[dict]:  # holds: _lock
        """The manifest entries of *name*'s checkpoints, oldest first."""
        entry = self._refresh_manifest()["profiles"].get(name)
        if entry is None:
            raise StoreError(f"unknown profile {name!r}")
        return entry["versions"]

    def _latest(self, name: str) -> ProfileVersion:  # holds: _lock
        """The last record of the last checkpoint's journal, else that checkpoint.

        Records only ever extend the newest checkpoint: an append whose
        parent is not the latest version is refused.
        """
        checkpoint = ProfileVersion.from_payload(name, self._checkpoints(name)[-1])
        entries = self._journal(name, checkpoint.version).entries
        return entries[-1] if entries else checkpoint

    def _journal(self, name: str, base: int) -> _Journal:  # holds: _lock
        """The whole records of checkpoint *base*'s journal.

        Re-read only when the file changed since this instance last
        read it: records are only ever appended, so a file that had no
        torn tail and kept its size is unchanged.
        """
        path = self._journal_path(name, base)
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            size = 0
        cached = self._journals.get(path)
        if cached is not None and cached.size == size == cached.end:
            return cached
        end, payloads = _read_journal(path, base)
        journal = _Journal(
            size=size,
            end=end,
            entries=[ProfileVersion.from_payload(name, p) for p in payloads],
        )
        self._journals[path] = journal
        return journal

    # ------------------------------------------------------------------
    # save / append / load
    # ------------------------------------------------------------------
    def save(
        self,
        name: str,
        compressed: CompressedLog,
        log: QueryLog | None = None,
        note: str = "",
        *,
        running_sums: dict | None = None,
        version: int | None = None,
    ) -> ProfileVersion:
        """Persist *compressed* as a checkpoint of profile *name*.

        When *log* (the encoded training log, aligned with
        ``compressed.labels``) is given it is stored alongside the
        artifact so the profile supports incremental ingestion and
        threshold calibration after a restart; *running_sums* (an
        :meth:`IncrementalIngestor.running_sums
        <repro.service.ingest.IncrementalIngestor.running_sums>`, kept
        in the checkpoint's manifest entry) let a reloaded ingestor
        continue bit for bit.

        By default the checkpoint is the next version.  With *version*
        it checkpoints that journaled version in place, keeping its
        summary entry; it must still be the latest version
        (``StoreError`` otherwise), and one that already is a
        checkpoint is left as it is.
        """
        if not valid_profile_name(name):
            raise ValueError(
                f"profile name {name!r} must match {_NAME_RE.pattern}"
            )
        if log is not None and log.n_distinct != len(compressed.labels):
            raise ValueError(
                "state log must have one distinct row per artifact label"
            )
        vocabulary = compressed.mixture.vocabulary
        if vocabulary is not None:
            widths = {
                c.encoding.n_features for c in compressed.mixture.components
            }
            if widths - {len(vocabulary)}:
                raise ValueError(
                    "artifact codebook outgrew its encodings (was this "
                    "CompressedLog handed to an IncrementalIngestor? the "
                    "ingestor owns it — save ingestor.compressed instead)"
                )
        with _span("store.checkpoint", profile=name):
            payload: dict = {
                "format": _PROFILE_FORMAT,
                "artifact": compressed.to_payload(),
                "state": None if log is None else _log_state_payload(log),
            }
            with self._writing() as manifest:
                entry = manifest["profiles"].setdefault(name, {"versions": []})
                latest = self._latest(name) if entry["versions"] else None
                if version is None:
                    record = _summary(
                        name,
                        1 + (latest.version if latest else 0),
                        compressed,
                        has_state=log is not None,
                        note=note,
                    )
                elif latest is None or latest.version != version:
                    raise StoreError(
                        f"profile {name!r} is not at version {version}"
                    )
                elif int(entry["versions"][-1]["version"]) == version:
                    return latest
                else:
                    record = latest
                payload["version"] = record.version
                directory = self._profiles_dir / name
                directory.mkdir(parents=True, exist_ok=True)
                _atomic_write(
                    self._version_path(name, record.version), _deflate(payload)
                )
                listed = record.to_payload()
                if running_sums is not None:
                    listed["running_sums"] = running_sums
                entry["versions"].append(listed)
                self._write_manifest()
        _STORE_WRITES.inc(kind="profile")
        return record

    def append(
        self,
        name: str,
        parent: int,
        compressed: CompressedLog,
        delta: BatchDelta,
        note: str = "",
    ) -> ProfileVersion | None:
        """Journal one ingest as version ``parent + 1`` of *name*.

        *delta* is the merge that took the profile from version
        *parent* to *compressed*.  One write and one fsync; no version
        file and no manifest.  Returns ``None`` and writes nothing when
        *parent* is not the latest version (another writer saved since)
        or the journal already holds :data:`CHECKPOINT_RECORDS` records:
        then the caller must :meth:`save` a checkpoint instead.
        """
        with _span("store.append", profile=name):
            with self._writing():
                base = int(self._checkpoints(name)[-1]["version"])
                journal = self._journal(name, base)
                if (
                    base + len(journal.entries) != parent
                    or len(journal.entries) >= CHECKPOINT_RECORDS
                ):
                    return None
                record = _summary(name, parent + 1, compressed, True, note)
                body = json.dumps(
                    {
                        **record.to_payload(),
                        "features": [
                            _default_feature_codec(f) for f in delta.features
                        ],
                        "rows": [[list(row), count] for row, count in delta.rows],
                    },
                    separators=(",", ":"),
                ).encode("utf-8")
                frame = _FRAME.pack(len(body), zlib.crc32(body)) + body
                path = self._journal_path(name, base)
                _append(path, frame, keep=journal.end, new=journal.size == 0)
                journal.end += len(frame)
                journal.size = journal.end
                journal.entries.append(record)
        _STORE_WRITES.inc(kind="journal")
        return record

    def load(self, name: str, version: int | None = None) -> CompressedLog:
        """Load the artifact of *name* (latest version by default)."""
        compressed, _ = self.load_state(name, version)
        return compressed

    def load_state(
        self, name: str, version: int | None = None
    ) -> tuple[CompressedLog, QueryLog | None]:
        """Load an artifact plus its encoded training state, if stored.

        A journaled version is replayed on top of its checkpoint.  A
        checkpoint whose artifact or state the decoders reject (a NaN
        marginal, an index past the codebook) raises ``StoreError``,
        like a file that is not JSON.
        """
        with self._lock:
            base, payloads = self._locate(name, version)
        if payloads:
            ingestor = self.load_version(name, version).ingestor(
                staleness_threshold=float("inf")
            )
            return ingestor.compressed, ingestor.log
        path = self._version_path(name, int(base["version"]))
        payload = _read_store_file(path, _PROFILE_FORMAT, "LogR profile")
        _STORE_READS.inc(kind="profile")
        state = payload.get("state")
        try:
            compressed = CompressedLog.from_payload(payload["artifact"])
            vocabulary = compressed.mixture.vocabulary
            log = None
            if state is not None and vocabulary is not None:
                log = _log_from_state(state, vocabulary)
        except (LookupError, TypeError, ValueError) as exc:
            raise StoreError(f"LogR profile file {path} is corrupted: {exc}") from exc
        if state is not None and vocabulary is None:
            raise StoreError(f"profile {name!r} stores state but no vocabulary")
        return compressed, log

    def load_version(self, name: str, version: int | None = None) -> StoredVersion:
        """*version* (latest by default) as its checkpoint plus the
        journal records from it up to *version*."""
        with self._lock:
            base, payloads = self._locate(name, version)
        compressed, log = self.load_state(name, int(base["version"]))
        return StoredVersion(
            version=int(base["version"]) + len(payloads),
            compressed=compressed,
            log=log,
            running_sums=base.get("running_sums"),
            deltas=[_delta_from_payload(payload) for payload in payloads],
        )

    def _locate(
        self, name: str, version: int | None
    ) -> tuple[dict, list[dict]]:  # holds: _lock
        """The manifest entry of the checkpoint at or below *version*
        (latest by default), and the journal records from it up to
        *version*."""
        if version is None:
            version = self._latest(name).version
        for checkpoint in reversed(self._checkpoints(name)):
            base = int(checkpoint["version"])
            if base <= version:
                break
        else:
            raise StoreError(f"profile {name!r} has no version {version}")
        if version - base > len(self._journal(name, base).entries):
            raise StoreError(f"profile {name!r} has no version {version}")
        payloads: list[dict] = []
        if version > base:
            _, payloads = _read_journal(self._journal_path(name, base), base)
        return checkpoint, payloads[: version - base]

    def _version_path(self, name: str, version: int) -> Path:
        return self._profiles_dir / name / f"v{version:06d}.json"

    def _journal_path(self, name: str, base: int) -> Path:
        return self._profiles_dir / name / f"j{base:06d}.log"

    # ------------------------------------------------------------------
    # pane segments (the windowed layer's append-only log)
    # ------------------------------------------------------------------
    def segments(self, name: str) -> list["PaneSegment"]:
        """All pane segments of *name*, oldest first (empty when none)."""
        with self._lock:
            entries = self._refresh_manifest()["segments"].get(name, [])
        return [PaneSegment.from_payload(name, entry) for entry in entries]

    def append_segment(
        self,
        name: str,
        mixture_payload: dict | None,
        *,
        n_statements: int,
        n_encoded: int,
        total: int,
        error_bits: float | None,
        verbosity: int,
        n_components: int,
        divergence_bits: float | None,
        note: str = "",
    ) -> "PaneSegment":
        """Seal one pane: persist its mixture as the next segment of *name*.

        ``mixture_payload`` is a :meth:`repro.core.mixture.
        PatternMixtureEncoding.to_payload` dict, or ``None`` for a pane
        that saw no parseable statements (the timeline still records
        it).  Append-only: segments are never renumbered; sealed panes
        change only through :meth:`rewrite_segment` (cold-pane
        recompression, which preserves the pane's identity and
        accounting).
        """
        if not valid_profile_name(name):
            raise ValueError(
                f"profile name {name!r} must match {_NAME_RE.pattern}"
            )
        with self._writing() as manifest:
            entries = manifest["segments"].setdefault(name, [])
            index = 1 + max(
                (int(entry["index"]) for entry in entries), default=-1
            )
            record = PaneSegment(
                name=name,
                index=index,
                created_at=time.time(),
                n_statements=n_statements,
                n_encoded=n_encoded,
                total=total,
                error_bits=error_bits,
                verbosity=verbosity,
                n_components=n_components,
                divergence_bits=divergence_bits,
                note=note,
            )
            payload = {
                "format": _SEGMENT_FORMAT,
                "index": index,
                "mixture": mixture_payload,
                "meta": record.to_payload(),
            }
            directory = self._segments_dir / name
            directory.mkdir(parents=True, exist_ok=True)
            _atomic_write(self._segment_path(name, index), _deflate(payload))
            entries.append(record.to_payload())
            self._write_manifest()
        _STORE_SEGMENT_APPENDS.inc()
        return record

    def read_segment(self, name: str, index: int) -> dict:
        """The raw segment file payload (``mixture`` + ``meta``) of one pane.

        Reads the immutable segment file directly — no manifest round
        trip on the hot path (composing an N-pane window reads N
        segments); the manifest is consulted only to distinguish "no
        such pane" from real corruption when the direct read fails.
        """
        path = self._segment_path(name, index)
        try:
            payload = _read_store_file(
                path, _SEGMENT_FORMAT, "LogR pane segment"
            )
            _STORE_READS.inc(kind="segment")
            return payload
        except StoreError:
            known = {segment.index for segment in self.segments(name)}
            if index not in known:
                raise StoreError(
                    f"profile {name!r} has no pane segment {index}"
                ) from None
            raise

    def rewrite_segment(
        self,
        name: str,
        index: int,
        mixture_payload: dict,
        *,
        error_bits: float,
        verbosity: int,
        n_components: int,
        note: str | None = None,
    ) -> "PaneSegment":
        """Replace a sealed pane's mixture in place (cold recompression).

        Pane identity and ingest accounting (``index``, ``created_at``,
        statement counts, divergence) are preserved; only the summary
        content and its measures change, and ``recompressed`` is set.
        """
        with self._writing() as manifest:
            entries = manifest["segments"].get(name, [])
            position = next(
                (
                    i
                    for i, entry in enumerate(entries)
                    if int(entry["index"]) == index
                ),
                None,
            )
            if position is None:
                raise StoreError(f"profile {name!r} has no pane segment {index}")
            old = PaneSegment.from_payload(name, entries[position])
            record = PaneSegment(
                name=name,
                index=old.index,
                created_at=old.created_at,
                n_statements=old.n_statements,
                n_encoded=old.n_encoded,
                total=old.total,
                error_bits=error_bits,
                verbosity=verbosity,
                n_components=n_components,
                divergence_bits=old.divergence_bits,
                recompressed=True,
                note=old.note if note is None else note,
            )
            payload = {
                "format": _SEGMENT_FORMAT,
                "index": index,
                "mixture": mixture_payload,
                "meta": record.to_payload(),
            }
            _atomic_write(self._segment_path(name, index), _deflate(payload))
            entries[position] = record.to_payload()
            self._write_manifest()
        _STORE_WRITES.inc(kind="segment_rewrite")
        return record

    def _segment_path(self, name: str, index: int) -> Path:
        return self._segments_dir / name / f"s{index:06d}.json"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SummaryStore(root={str(self.root)!r}, profiles={len(self.profiles())})"


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _read_store_file(path: Path, expected_format: str, kind: str) -> dict:
    """Read a store-owned JSON file, folding corruption into StoreError.

    A file that starts with the gzip magic is inflated first; any other
    is plain JSON (written before checkpoints were deflated).  A segment
    or version file that is missing, truncated, or not valid JSON (a
    torn copy, a bad disk, an out-of-band edit) must surface as a
    detectable store fault — not a raw ``JSONDecodeError`` or
    ``zlib.error`` deep in a request handler.
    """
    try:
        data = path.read_bytes()
        if data.startswith(_GZIP_MAGIC):
            data = _inflate(data)
        payload = json.loads(data.decode("utf-8"))
    except FileNotFoundError as exc:
        raise StoreError(f"{kind} file {path} is missing") from exc
    except (OSError, ValueError, zlib.error) as exc:
        raise StoreError(f"{kind} file {path} is corrupted: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != expected_format:
        raise StoreError(f"{path} is not a {kind} file")
    return payload


def _deflate(payload: dict) -> bytes:
    """*payload* as compact JSON in one gzip member.

    zlib writes the gzip header with mtime 0 and no file name, so the
    bytes depend only on the payload (the same bytes as
    ``gzip.compress(data, 6, mtime=0)``).
    """
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return zlib.compress(data, 6, wbits=31)


def _inflate(data: bytes) -> bytes:
    """The contents of exactly one whole gzip member.

    zlib checks the member's CRC-32 and length; a cut-short member or
    bytes after it raise ``zlib.error``.
    """
    inflater = zlib.decompressobj(wbits=31)
    contents = inflater.decompress(data)
    if not inflater.eof or inflater.unused_data:
        raise zlib.error("truncated gzip member or trailing bytes")
    return contents


def _summary(
    name: str, version: int, compressed: CompressedLog, has_state: bool, note: str
) -> ProfileVersion:
    """The index entry of *compressed* stored as *version*, created now."""
    return ProfileVersion(
        name=name,
        version=version,
        created_at=time.time(),
        error_bits=compressed.error,
        verbosity=compressed.total_verbosity,
        total_queries=compressed.mixture.total,
        n_components=compressed.mixture.n_components,
        has_state=has_state,
        note=note,
    )


def _parse_manifest(data: bytes, path: Path) -> dict:
    try:
        payload = json.loads(data)
    except ValueError as exc:
        raise StoreError(f"store manifest {path} is unreadable: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != _MANIFEST_FORMAT:
        raise StoreError(f"{path} is not a LogR store manifest")
    # Stores written before the windowed layer have no segments key.
    payload.setdefault("segments", {})
    return payload


def _read_journal(path: Path, base: int) -> tuple[int, list[dict]]:
    """The whole records of a journal: ``(end of the last one, payloads)``.

    Stops at the first record that is cut short, fails its checksum,
    is not a JSON object, or does not carry the next version after
    checkpoint *base* — a torn tail from a crash mid-append.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return 0, []
    payloads: list[dict] = []
    end = 0
    while end + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, end)
        body = data[end + _FRAME.size:end + _FRAME.size + length]
        if len(body) != length or zlib.crc32(body) != crc:
            break
        try:
            payload = json.loads(body)
        except ValueError:
            break
        if (
            not isinstance(payload, dict)
            or payload.get("version") != base + len(payloads) + 1
        ):
            break
        payloads.append(payload)
        end += _FRAME.size + length
    return end, payloads


def _append(path: Path, frame: bytes, keep: int, new: bool) -> None:
    """Append *frame* to *path* after cutting the file back to *keep* bytes.

    One write and one fsync; a newly created file also fsyncs its
    directory, so the entry survives a crash.  When any of them fails,
    the file is cut back to *keep* bytes before the error propagates:
    the caller reports the ingest as failed, so its record must not be
    read back as a version.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        if os.fstat(fd).st_size > keep:
            os.ftruncate(fd, keep)  # a torn tail: records go after the prefix
        try:
            _write_all(fd, frame)
            os.fsync(fd)
            if new:
                _fsync_directory(path.parent)
        except BaseException:
            with contextlib.suppress(OSError):
                os.ftruncate(fd, keep)
            raise
    finally:
        os.close(fd)


def _delta_from_payload(payload: dict) -> BatchDelta:
    return BatchDelta(
        features=tuple(_default_feature_decoder(f) for f in payload["features"]),
        rows=tuple((tuple(row), int(count)) for row, count in payload["rows"]),
    )


def _atomic_write(path: Path, data: bytes) -> None:
    """Write *data* to *path* via a same-directory temp file + rename.

    Crash-durable, not just crash-atomic: the temp file is fsynced
    *before* the rename (otherwise a crash soon after ``os.replace`` can
    surface a zero-length or partial file behind a successful rename —
    the data blocks were never forced to disk), and the directory is
    fsynced after it so the new directory entry itself survives.  A
    failure at any step removes the temp file; one at the directory
    fsync leaves the new file, complete, in place.
    """
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        try:
            _write_all(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp_name, path)
        _fsync_directory(path.parent)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _fsync_directory(path: Path) -> None:
    """Force the entries of directory *path* to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _log_state_payload(log: QueryLog) -> dict:
    """Encoded log as sparse JSON: feature indices + counts per row."""
    n = log.n_features
    # Flat positions, ascending: numpy's fast path is a 1-D boolean
    # nonzero (on the 2-D uint8 matrix it is ~9x slower).
    (flat,) = np.nonzero(log.matrix.reshape(-1) != 0)
    ends = np.searchsorted(flat, n * np.arange(1, log.n_distinct + 1)).tolist()
    indices = (flat % n).tolist()  # no positions at all when n == 0
    return {
        "n_features": n,
        "rows": [indices[start:end] for start, end in zip([0] + ends, ends)],
        "counts": log.counts.tolist(),
    }


def _log_from_state(state: dict, vocabulary) -> QueryLog:
    """Rebuild the encoded training log from its sparse payload.

    The matrix is widened to the current vocabulary size (the stored
    mixture's codebook may have grown past the state's width through
    ingestion — absent features are zero).
    """
    n = max(int(state["n_features"]), len(vocabulary))
    rows = state["rows"]
    lengths = [len(indices) for indices in rows]
    matrix = np.zeros((len(rows), n), dtype=np.uint8)
    matrix[
        np.repeat(np.arange(len(rows)), lengths),
        np.fromiter(itertools.chain.from_iterable(rows), np.intp, sum(lengths)),
    ] = 1
    return QueryLog(
        vocabulary, matrix, np.asarray(state["counts"], dtype=np.int64)
    )
