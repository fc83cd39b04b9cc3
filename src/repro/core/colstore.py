"""Out-of-core columnar storage for encoded query logs (``logr-collog-v1``).

Every in-RAM path materializes the whole encoded log as one dense uint8
matrix before deduplication, which caps the reproduction at logs that
fit in memory.  This module is the disk tier that removes the cap: an
encoded log becomes a *directory* of fixed-size row chunks, each chunk
holding the packed uint64 words the kernels consume plus sidecars with
the exact feature indices and multiplicities, behind a length-prefixed
JSON header.

Layout of one columnar log directory::

    header.bin            [8-byte LE length][JSON header]
    vocabulary.pkl        pickled Vocabulary (the shared codebook)
    chunk-000000.words    uint64 C-order (rows, n_words) packed rows
    chunk-000000.counts   int64 (rows,) multiplicities
    chunk-000000.offsets  int64 (rows + 1,) row offsets into findex
    chunk-000000.findex   int64 flat sorted feature indices
    ...

Rows across chunks are globally distinct and globally sorted by their
sorted index tuple — exactly the row order
:meth:`repro.core.log.LogBuilder.build` produces — so materializing any
contiguous row range (:meth:`ColumnarLog.slice_log`) yields the same
:class:`~repro.core.log.QueryLog` as ``build().subset(range)``,
bit for bit.

Writing is streaming: :class:`ColumnarLogWriter` seals a chunk every
``chunk_rows`` rows, and the spill-run helpers (:func:`spill_run` /
:func:`iter_run` / :func:`merge_runs`) let ``LogBuilder`` flush sorted
partial bags to disk and k-way merge them at finalize, so peak RSS is
bounded by the chunk/spill budget, never by log size.

Telemetry only (see :mod:`repro.obs`): the encode counters and the
spill histogram observe the streaming encoder; they never influence
row order, chunk boundaries, or any serialized content.
"""

from __future__ import annotations

import heapq
import json
import pickle
import shutil
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .._clock import Stopwatch
from ..obs import metrics as _metrics
from ..obs.trace import span as _span
from . import kernels
from .log import QueryLog
from .vocabulary import Vocabulary

__all__ = [
    "FORMAT",
    "DEFAULT_CHUNK_ROWS",
    "ColumnarLog",
    "ColumnarLogWriter",
    "spill_run",
    "iter_run",
    "merge_runs",
    "remove_runs",
]

#: On-disk format marker checked on open.
FORMAT = "logr-collog-v1"

#: Default row budget per sealed chunk (and per spill run).
DEFAULT_CHUNK_ROWS = 65536

_HEADER_NAME = "header.bin"
_VOCAB_NAME = "vocabulary.pkl"

_ENCODE_CHUNKS = _metrics.counter(
    "logr_encode_chunks_total",
    "Row groups written by the streaming encoder, by stage "
    "(run = spilled sorted run, chunk = sealed canonical chunk).",
    labelnames=("stage",),
)
_ENCODE_BYTES = _metrics.counter(
    "logr_encode_bytes_written_total",
    "Bytes written to columnar log files by the streaming encoder.",
)
_SPILL_SECONDS = _metrics.histogram(
    "logr_encode_spill_seconds",
    "Wall seconds per LogBuilder spill (one sorted run written).",
)

#: One distinct row in transit: (sorted feature-index tuple, multiplicity).
Row = tuple[tuple[int, ...], int]


# ----------------------------------------------------------------------
# header framing: [8-byte LE length][JSON]
# ----------------------------------------------------------------------
def _write_header(path: Path, header: dict[str, object]) -> int:
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    with path.open("wb") as handle:
        handle.write(len(payload).to_bytes(8, "little"))
        handle.write(payload)
    return 8 + len(payload)


def _read_header(path: Path) -> dict[str, object]:
    with path.open("rb") as handle:
        raw = handle.read(8)
        if len(raw) != 8:
            raise ValueError(f"truncated columnar log header at {path}")
        length = int.from_bytes(raw, "little")
        payload = handle.read(length)
    if len(payload) != length:
        raise ValueError(f"truncated columnar log header at {path}")
    header = json.loads(payload.decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError(f"malformed columnar log header at {path}")
    return header


def _tofile(array: np.ndarray, path: Path) -> int:
    """Write *array* raw to *path*; returns (and meters) bytes written."""
    array.tofile(path)
    _ENCODE_BYTES.inc(array.nbytes)
    return int(array.nbytes)


def _row_arrays(
    rows: Sequence[tuple[int, ...]], counts: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(counts, offsets, findex) arrays for one sealed row group."""
    n_rows = len(rows)
    counts_arr = np.fromiter(counts, dtype=np.int64, count=n_rows)
    lengths = np.fromiter((len(r) for r in rows), dtype=np.int64, count=n_rows)
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    findex = np.fromiter(
        (i for row in rows for i in row), dtype=np.int64, count=int(offsets[-1])
    )
    return counts_arr, offsets, findex


# ----------------------------------------------------------------------
# spill runs: sorted partial bags LogBuilder flushes between seals
# ----------------------------------------------------------------------
def spill_run(directory: str | Path, items: Sequence[Row], index: int) -> Path:
    """Write one sorted run of (row, count) items; returns the run stem.

    *items* must already be sorted by row key (the builder sorts its
    in-memory bag before spilling) and duplicate-free within the run;
    :func:`merge_runs` handles duplicates *across* runs.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = directory / f"run-{index:06d}"
    watch = Stopwatch()
    with _span("encode.spill", rows=len(items), run=index):
        counts, offsets, findex = _row_arrays(
            [row for row, _ in items], [count for _, count in items]
        )
        _tofile(counts, stem.with_suffix(".counts"))
        _tofile(offsets, stem.with_suffix(".offsets"))
        _tofile(findex, stem.with_suffix(".findex"))
    _ENCODE_CHUNKS.inc(stage="run")
    _SPILL_SECONDS.observe(watch.elapsed())
    return stem


def _maybe_memmap(path: Path) -> np.ndarray:
    """Read-only int64 memmap of *path* (empty array for empty files)."""
    if path.stat().st_size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.memmap(path, dtype=np.int64, mode="r")


def iter_run(stem: Path, block_rows: int = 4096) -> Iterator[Row]:
    """Stream one spilled run back as (row, count) items, in run order.

    Reads through read-only memmaps in *block_rows* blocks, so the k-way
    merge over many runs holds only O(runs × block) rows on the heap —
    never a whole run, let alone the whole log.
    """
    counts = _maybe_memmap(stem.with_suffix(".counts"))
    offsets = _maybe_memmap(stem.with_suffix(".offsets"))
    findex = _maybe_memmap(stem.with_suffix(".findex"))
    n = counts.shape[0]
    for a in range(0, n, block_rows):
        b = min(a + block_rows, n)
        block_counts: list[int] = counts[a:b].tolist()
        bounds: list[int] = offsets[a : b + 1].tolist()
        base = bounds[0]
        flat: list[int] = np.asarray(findex[base : bounds[-1]]).tolist()
        for i in range(b - a):
            yield tuple(flat[bounds[i] - base : bounds[i + 1] - base]), block_counts[i]


def merge_runs(runs: Sequence[Iterable[Row]]) -> Iterator[Row]:
    """K-way merge of sorted runs, summing counts of duplicate rows.

    Reproduces exactly the global row order of
    :meth:`~repro.core.log.LogBuilder.build` (sorted by sorted index
    tuple): ``heapq.merge`` preserves the sort, and equal adjacent keys
    collapse into one row whose multiplicity is the integer sum of the
    duplicates — the same accumulation the in-memory dict performs.
    """
    merged = heapq.merge(*runs, key=itemgetter(0))
    current_key: tuple[int, ...] | None = None
    current_count = 0
    for key, count in merged:
        if key == current_key:
            current_count += count
        else:
            if current_key is not None:
                yield current_key, current_count
            current_key = key
            current_count = count
    if current_key is not None:
        yield current_key, current_count


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------
class ColumnarLogWriter:
    """Streaming writer for one ``logr-collog-v1`` directory.

    Feed globally sorted, globally distinct (row, count) items via
    :meth:`append`; a chunk is sealed to disk every *chunk_rows* rows,
    so the writer holds at most one chunk's rows in memory.  The
    vocabulary must be final before construction (chunks are packed at
    its width).
    """

    def __init__(
        self,
        path: str | Path,
        vocabulary: Vocabulary,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> None:
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.vocabulary = vocabulary
        self.chunk_rows = chunk_rows
        self._rows: list[tuple[int, ...]] = []
        self._counts: list[int] = []
        self._chunk_sizes: list[int] = []
        self._total = 0
        self._closed = False
        with self.path.joinpath(_VOCAB_NAME).open("wb") as handle:
            payload = pickle.dumps(vocabulary, protocol=pickle.HIGHEST_PROTOCOL)
            handle.write(payload)
            _ENCODE_BYTES.inc(len(payload))

    def append(self, row: tuple[int, ...], count: int) -> None:
        """Add one distinct row; seals a chunk when the budget fills."""
        if self._closed:
            raise ValueError("writer is closed")
        if count <= 0:
            raise ValueError("multiplicities must be positive")
        self._rows.append(row)
        self._counts.append(int(count))
        self._total += int(count)
        if len(self._rows) >= self.chunk_rows:
            self._seal()

    def extend(self, items: Iterable[Row]) -> None:
        """Append a stream of (row, count) items."""
        for row, count in items:
            self.append(row, count)

    def _seal(self) -> None:
        index = len(self._chunk_sizes)
        stem = self.path / f"chunk-{index:06d}"
        n_features = len(self.vocabulary)
        words = kernels.pack_patterns(self._rows, n_features)
        counts, offsets, findex = _row_arrays(self._rows, self._counts)
        _tofile(words, stem.with_suffix(".words"))
        _tofile(counts, stem.with_suffix(".counts"))
        _tofile(offsets, stem.with_suffix(".offsets"))
        _tofile(findex, stem.with_suffix(".findex"))
        _ENCODE_CHUNKS.inc(stage="chunk")
        self._chunk_sizes.append(len(self._rows))
        self._rows = []
        self._counts = []

    def close(self) -> "ColumnarLog":
        """Seal the final partial chunk, write the header, and open."""
        if self._closed:
            raise ValueError("writer is closed")
        if self._rows:
            self._seal()
        if not self._chunk_sizes:
            raise ValueError("cannot build an empty log")
        header: dict[str, object] = {
            "format": FORMAT,
            "n_features": len(self.vocabulary),
            "n_words": kernels.n_words(len(self.vocabulary)),
            "n_distinct": int(sum(self._chunk_sizes)),
            "total": self._total,
            "chunk_rows": self.chunk_rows,
            "chunks": list(self._chunk_sizes),
        }
        _ENCODE_BYTES.inc(_write_header(self.path / _HEADER_NAME, header))
        self._closed = True
        return ColumnarLog(self.path)


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------
class ColumnarLog:
    """Read-only handle on one ``logr-collog-v1`` directory.

    Chunk words are exposed as read-only memmaps (the OS pages them in
    on demand); dense row ranges are materialized per request from the
    index sidecars — the same zero/scatter fill ``LogBuilder.build``
    uses, so reconstruction is exact by construction.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        header = _read_header(self.path / _HEADER_NAME)
        if header.get("format") != FORMAT:
            raise ValueError(
                f"{self.path} is not a {FORMAT} columnar log "
                f"(format={header.get('format')!r})"
            )
        self.n_features = int(header["n_features"])  # type: ignore[arg-type]
        self.n_distinct = int(header["n_distinct"])  # type: ignore[arg-type]
        self.total = int(header["total"])  # type: ignore[arg-type]
        self.chunk_rows = int(header["chunk_rows"])  # type: ignore[arg-type]
        chunks = header["chunks"]
        if not isinstance(chunks, list):
            raise ValueError(f"malformed chunk table in {self.path}")
        self.chunk_sizes = np.asarray(chunks, dtype=np.int64)
        #: Global row index where each chunk starts (length n_chunks + 1).
        self.row_starts = np.zeros(len(chunks) + 1, dtype=np.int64)
        np.cumsum(self.chunk_sizes, out=self.row_starts[1:])
        if int(self.row_starts[-1]) != self.n_distinct:
            raise ValueError(f"chunk table does not sum to n_distinct in {self.path}")
        self._vocabulary: Vocabulary | None = None

    # -- basic properties ------------------------------------------------
    @property
    def n_chunks(self) -> int:
        return len(self.chunk_sizes)

    @property
    def vocabulary(self) -> Vocabulary:
        """The shared codebook (unpickled lazily, once)."""
        if self._vocabulary is None:
            with self.path.joinpath(_VOCAB_NAME).open("rb") as handle:
                vocabulary = pickle.load(handle)
            if not isinstance(vocabulary, Vocabulary):
                raise ValueError(f"malformed vocabulary in {self.path}")
            self._vocabulary = vocabulary
        return self._vocabulary

    def __len__(self) -> int:
        return self.total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarLog(path={str(self.path)!r}, n_distinct={self.n_distinct}, "
            f"n_features={self.n_features}, n_chunks={self.n_chunks})"
        )

    # -- chunk access ----------------------------------------------------
    def _stem(self, chunk: int) -> Path:
        if not 0 <= chunk < self.n_chunks:
            raise IndexError(f"chunk {chunk} out of range for {self.n_chunks} chunks")
        return self.path / f"chunk-{chunk:06d}"

    def chunk_words(self, chunk: int) -> np.ndarray:
        """Packed uint64 rows of one chunk, as a read-only memmap."""
        rows = int(self.chunk_sizes[chunk])
        words = kernels.n_words(self.n_features)
        return np.memmap(
            self._stem(chunk).with_suffix(".words"),
            dtype=np.uint64,
            mode="r",
            shape=(rows, words),
        )

    def chunk_counts(self, chunk: int) -> np.ndarray:
        """Multiplicities of one chunk's rows."""
        return np.fromfile(self._stem(chunk).with_suffix(".counts"), dtype=np.int64)

    def counts(self) -> np.ndarray:
        """All multiplicities, concatenated in global row order."""
        if self.n_chunks == 0:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([self.chunk_counts(i) for i in range(self.n_chunks)])

    def chunk_matrix(self, chunk: int) -> np.ndarray:
        """Dense uint8 matrix of one chunk (exact scatter from sidecars)."""
        lo = int(self.row_starts[chunk])
        hi = int(self.row_starts[chunk + 1])
        return self._dense(lo, hi)

    def _dense(self, lo: int, hi: int) -> np.ndarray:
        """Dense uint8 rows for the global row range [lo, hi)."""
        if not 0 <= lo <= hi <= self.n_distinct:
            raise ValueError(f"row range [{lo}, {hi}) out of bounds")
        out = np.zeros((hi - lo, self.n_features), dtype=np.uint8)
        first = int(np.searchsorted(self.row_starts, lo, side="right")) - 1
        for chunk in range(max(first, 0), self.n_chunks):
            start = int(self.row_starts[chunk])
            if start >= hi:
                break
            stem = self._stem(chunk)
            a = max(lo - start, 0)
            b = min(hi - start, int(self.chunk_sizes[chunk]))
            offsets = np.fromfile(stem.with_suffix(".offsets"), dtype=np.int64)
            findex = np.memmap(stem.with_suffix(".findex"), dtype=np.int64, mode="r") \
                if offsets[-1] else np.zeros(0, dtype=np.int64)
            lengths = np.diff(offsets[a : b + 1])
            cols = np.asarray(findex[int(offsets[a]) : int(offsets[b])])
            rows = np.repeat(np.arange(a, b) + (start - lo), lengths)
            out[rows, cols] = 1
        return out

    # -- QueryLog materialization ---------------------------------------
    def slice_log(self, lo: int, hi: int) -> QueryLog:
        """``QueryLog`` over the global row range [lo, hi).

        Bit-identical to ``builder.build().subset(np.arange(lo, hi))``:
        rows are globally distinct and sorted, the vocabulary is the
        full shared codebook, and the dense scatter is exact.
        """
        if hi <= lo:
            raise ValueError("slice_log requires a non-empty row range")
        matrix = self._dense(lo, hi)
        counts = np.empty(hi - lo, dtype=np.int64)
        first = int(np.searchsorted(self.row_starts, lo, side="right")) - 1
        for chunk in range(max(first, 0), self.n_chunks):
            start = int(self.row_starts[chunk])
            if start >= hi:
                break
            a = max(lo - start, 0)
            b = min(hi - start, int(self.chunk_sizes[chunk]))
            counts[start + a - lo : start + b - lo] = self.chunk_counts(chunk)[a:b]
        return QueryLog(self.vocabulary, matrix, counts)

    def to_query_log(self) -> QueryLog:
        """Materialize the whole log in RAM (for logs that fit)."""
        return self.slice_log(0, self.n_distinct)


def remove_runs(directory: str | Path) -> None:
    """Delete a spill-run directory (idempotent)."""
    shutil.rmtree(directory, ignore_errors=True)
