"""File-backed, versioned storage for compressed workload profiles.

The §2 use cases (monitoring, auditing, drift detection) presume a
*long-lived* summary: compress once, then query and maintain it for
weeks.  :class:`SummaryStore` gives LogR artifacts that home — named
profiles (one per workload tenant: tpch, sdss, bank, ...), each a
sequence of immutable versions, indexed by a manifest.

On disk::

    <root>/
        manifest.json                 # profile -> versions index
        profiles/<name>/v000001.json  # one self-contained file per version
        segments/<name>/s000000.json  # one time pane per segment (0-based)

Each version file carries the *full* :class:`repro.core.compress.
CompressedLog` payload (mixture + labels + provenance + vocabulary)
and, optionally, the encoded training state (distinct rows +
multiplicities) that incremental ingestion and threshold calibration
need.  The raw SQL text is never stored.

Segments are the windowed layer's pane log: an append-only sequence of
compressed pane mixtures per profile (see :mod:`repro.service.windows`),
indexed by the same manifest.  Unlike versions — snapshots of one
evolving profile — segments are disjoint time slices meant to be
*composed* (merged, decayed, subtracted) on demand.

Writes are atomic: version files and the manifest are written to a
temp file in the target directory and ``os.replace``-d into place, so
a crash mid-save can leave a stray temp file but never a torn profile.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

import numpy as np

from ..core.compress import CompressedLog
from ..core.log import QueryLog
from ..obs import metrics as _metrics

__all__ = ["ProfileVersion", "PaneSegment", "SummaryStore", "StoreError"]

# Telemetry only (see repro.obs): store I/O traffic across every
# SummaryStore in the process, by artifact kind.
_STORE_READS = _metrics.counter(
    "logr_store_reads_total",
    "Store artifact reads, by kind (profile/segment).",
    labelnames=("kind",),
)
_STORE_WRITES = _metrics.counter(
    "logr_store_writes_total",
    "Store artifact writes, by kind (profile/segment_rewrite).",
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


class StoreError(KeyError):
    """Unknown profile/version or a malformed store layout."""


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
        self._manifest = self._read_manifest()  # guarded-by: _lock

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    def _refresh_manifest(self) -> dict:  # holds: _lock
        """Re-read the manifest from disk.

        Another process may share the directory (``logr ingest`` while
        ``logr serve`` is running); trusting only the copy cached at
        construction would let the two silently overwrite each other's
        versions.  Concurrent *writers* are additionally serialized by
        the advisory file lock in :meth:`save`.
        """
        self._manifest = self._read_manifest()
        return self._manifest

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

    def _read_manifest(self) -> dict:
        if not self._manifest_path.exists():
            return {"format": _MANIFEST_FORMAT, "profiles": {}, "segments": {}}
        try:
            payload = json.loads(self._manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(
                f"store manifest {self._manifest_path} is unreadable: {exc}"
            ) from exc
        if not isinstance(payload, dict) or payload.get("format") != _MANIFEST_FORMAT:
            raise StoreError(f"{self._manifest_path} is not a LogR store manifest")
        # Stores written before the windowed layer have no segments key.
        payload.setdefault("segments", {})
        return payload

    def _write_manifest(self) -> None:  # holds: _lock
        _atomic_write(self._manifest_path, json.dumps(self._manifest, indent=1))

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
        """All versions of *name*, oldest first."""
        with self._lock:
            entry = self._refresh_manifest()["profiles"].get(name)
        if entry is None:
            raise StoreError(f"unknown profile {name!r}")
        return [ProfileVersion.from_payload(name, v) for v in entry["versions"]]

    def latest(self, name: str) -> ProfileVersion:
        """The current (highest) version of *name*."""
        return self.versions(name)[-1]

    # ------------------------------------------------------------------
    # save / load
    # ------------------------------------------------------------------
    def save(
        self,
        name: str,
        compressed: CompressedLog,
        log: QueryLog | None = None,
        note: str = "",
    ) -> ProfileVersion:
        """Persist *compressed* as the next version of profile *name*.

        When *log* (the encoded training log, aligned with
        ``compressed.labels``) is given it is stored alongside the
        artifact so the profile supports incremental ingestion and
        threshold calibration after a restart.
        """
        if not _NAME_RE.match(name):
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
        payload: dict = {
            "format": _PROFILE_FORMAT,
            "artifact": compressed.to_payload(),
            "state": None if log is None else _log_state_payload(log),
        }
        with self._lock, self._file_lock():
            entry = self._refresh_manifest()["profiles"].setdefault(
                name, {"versions": []}
            )
            version = 1 + max(
                (int(v["version"]) for v in entry["versions"]), default=0
            )
            payload["version"] = version
            directory = self._profiles_dir / name
            directory.mkdir(parents=True, exist_ok=True)
            _atomic_write(self._version_path(name, version), json.dumps(payload))
            record = ProfileVersion(
                name=name,
                version=version,
                created_at=time.time(),
                error_bits=compressed.error,
                verbosity=compressed.total_verbosity,
                total_queries=compressed.mixture.total,
                n_components=compressed.mixture.n_components,
                has_state=log is not None,
                note=note,
            )
            entry["versions"].append(record.to_payload())
            self._write_manifest()
        _STORE_WRITES.inc(kind="profile")
        return record

    def load(self, name: str, version: int | None = None) -> CompressedLog:
        """Load the artifact of *name* (latest version by default)."""
        compressed, _ = self.load_state(name, version)
        return compressed

    def load_state(
        self, name: str, version: int | None = None
    ) -> tuple[CompressedLog, QueryLog | None]:
        """Load an artifact plus its encoded training state, if stored."""
        payload = self._read_version(name, version)
        compressed = CompressedLog.from_payload(payload["artifact"])
        state = payload.get("state")
        log = None
        if state is not None:
            if compressed.mixture.vocabulary is None:
                raise StoreError(
                    f"profile {name!r} stores state but no vocabulary"
                )
            log = _log_from_state(state, compressed.mixture.vocabulary)
        return compressed, log

    def _read_version(self, name: str, version: int | None) -> dict:
        if version is None:
            version = self.latest(name).version
        else:
            known = {v.version for v in self.versions(name)}
            if version not in known:
                raise StoreError(f"profile {name!r} has no version {version}")
        path = self._version_path(name, version)
        payload = _read_store_file(path, _PROFILE_FORMAT, "LogR profile")
        _STORE_READS.inc(kind="profile")
        return payload

    def _version_path(self, name: str, version: int) -> Path:
        return self._profiles_dir / name / f"v{version:06d}.json"

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
        if not _NAME_RE.match(name):
            raise ValueError(
                f"profile name {name!r} must match {_NAME_RE.pattern}"
            )
        with self._lock, self._file_lock():
            entries = self._refresh_manifest()["segments"].setdefault(name, [])
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
            _atomic_write(self._segment_path(name, index), json.dumps(payload))
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
        with self._lock, self._file_lock():
            entries = self._refresh_manifest()["segments"].get(name, [])
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
            _atomic_write(self._segment_path(name, index), json.dumps(payload))
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

    A segment or version file that is missing, truncated, or not valid
    JSON (a torn copy, a bad disk, an out-of-band edit) must surface as
    a detectable store fault — not a raw ``JSONDecodeError`` deep in a
    request handler.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise StoreError(f"{kind} file {path} is missing") from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreError(f"{kind} file {path} is corrupted: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != expected_format:
        raise StoreError(f"{path} is not a {kind} file")
    return payload


def _atomic_write(path: Path, text: str) -> None:
    """Write *text* to *path* via a same-directory temp file + rename.

    Crash-durable, not just crash-atomic: the temp file is flushed and
    fsynced *before* the rename (otherwise a crash soon after
    ``os.replace`` can surface a zero-length or partial file behind a
    successful rename — the data blocks were never forced to disk),
    and the directory is fsynced after it so the new directory entry
    itself survives.
    """
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _log_state_payload(log: QueryLog) -> dict:
    """Encoded log as sparse JSON: feature indices + counts per row."""
    return {
        "n_features": log.n_features,
        "rows": [
            [int(i) for i in np.flatnonzero(row)] for row in log.matrix
        ],
        "counts": [int(c) for c in log.counts],
    }


def _log_from_state(state: dict, vocabulary) -> QueryLog:
    """Rebuild the encoded training log from its sparse payload.

    The matrix is widened to the current vocabulary size (the stored
    mixture's codebook may have grown past the state's width through
    ingestion — absent features are zero).
    """
    n = max(int(state["n_features"]), len(vocabulary))
    rows = state["rows"]
    matrix = np.zeros((len(rows), n), dtype=np.uint8)
    for r, indices in enumerate(rows):
        matrix[r, indices] = 1
    return QueryLog(
        vocabulary, matrix, np.asarray(state["counts"], dtype=np.int64)
    )
