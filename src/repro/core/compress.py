"""The LogR compressor: the paper's top-level contribution (§6).

``LogRCompressor`` turns a :class:`repro.core.log.QueryLog` into a
:class:`CompressedLog` by running the staged pipeline of
:mod:`repro.core.pipeline`:

1. **Partition** — cluster the log's distinct queries (weighted by
   multiplicity) with a configurable method/metric (§6.1 —
   KMeans+Euclidean is the fast default, Spectral+Hamming the best
   Error/runtime tradeoff),
2. **Fit** — one naive encoding per partition (the *naive mixture
   encoding*), fanned out across partitions, and
3. **Refine** — optionally add high-``corr_rank`` patterns per
   partition (§6.4 — off by default because the gain is small and
   refined encodings no longer admit closed-form statistics).

Every entry point takes ``jobs`` (1 runs the serial loop, more runs a
pool of worker processes) and stays bit-identical to the serial loop at
any worker count (see :mod:`repro.core.executor` for the determinism
rules).  The tunable parameter promised in §1 is ``n_clusters``:
larger K gives higher fidelity (lower Error) at higher Verbosity.
``compress_sweep`` explores that trade-off (K candidates in
parallel); ``compress_to_error`` grows K until a target Error is met
(speculative parallel doubling); ``compress_sharded`` splits a huge log
into shards, compresses them in worker processes, and merges the
mixtures — the path for logs too big for one clustering pass.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Hashable, Iterable, Sequence

import numpy as np

from .._clock import Stopwatch
from .._rng import ensure_rng
from .colstore import ColumnarLog
from .executor import Executor, executor_for, spawn_generators
from .log import QueryLog
from .mixture import PatternMixtureEncoding
from .pattern import Pattern
from .pipeline import CompressionPipeline, FitStage, PartitionStage, RefineStage

__all__ = [
    "LogRCompressor",
    "CompressedLog",
    "SweepPoint",
    "compress_sweep",
    "compress_to_error",
    "compress_sharded",
    "load_artifact",
]


@dataclass
class CompressedLog:
    """The compression artifact plus provenance metadata."""

    mixture: PatternMixtureEncoding
    labels: np.ndarray  # cluster label per distinct source row
    n_clusters: int
    method: str
    metric: str
    build_seconds: float
    refined_patterns: int = 0

    # -- measures -------------------------------------------------------
    @property
    def error(self) -> float:
        """Generalized Reproduction Error (bits)."""
        return self.mixture.error()

    @property
    def total_verbosity(self) -> int:
        """Generalized (total) Verbosity."""
        return self.mixture.total_verbosity

    # -- statistics (§6.2) ----------------------------------------------
    def estimate_count(self, pattern: Pattern | Iterable[Hashable]) -> float:
        """Estimate ``Γ_b(L)`` for a pattern or a feature collection."""
        if isinstance(pattern, Pattern):
            return self.mixture.estimate_count(pattern)
        return self.mixture.estimate_count_features(pattern)

    def estimate_marginal(self, pattern: Pattern | Iterable[Hashable]) -> float:
        """Estimate ``p(Q ⊇ b | L)``."""
        return self.estimate_count(pattern) / self.mixture.total

    def to_json(self) -> str:
        """Serialize the full artifact (no raw log content).

        Unlike the mixture-only payload this keeps the provenance the
        dataclass carries — labels, K, method/metric, build time and
        refinement count — so the artifact round-trips losslessly
        through :meth:`from_json`.
        """
        return json.dumps(self.to_payload())

    def to_payload(self) -> dict:
        """The JSON-ready dict behind :meth:`to_json` (format v2).

        v2 differs from v1 only in the labels field: the compact base64
        form (raw little-endian words of the narrowest dtype that fits,
        npy style) instead of a JSON int list — for a million distinct
        rows the list form costs megabytes of digits and commas, the
        packed form ~1.4 bytes per label.  The format string is bumped
        so v1-only readers fail loudly instead of misparsing the dict;
        :meth:`from_payload` reads both vintages (and the list form
        under either format string).

        ``backend`` is a fixed provenance field: every artifact is
        built on the packed-bitset kernels, and readers ignore the
        value (older artifacts may record ``dense`` or ``compiled``,
        which were bit-identical).
        """
        return {
            "format": "logr-compressed-v2",
            "mixture": self.mixture.to_payload(),
            "labels": _labels_to_payload(self.labels),
            "n_clusters": int(self.n_clusters),
            "method": self.method,
            "metric": self.metric,
            "build_seconds": float(self.build_seconds),
            "refined_patterns": int(self.refined_patterns),
            "backend": "packed",
        }

    @classmethod
    def from_json(cls, text: str) -> "CompressedLog":
        """Rebuild an artifact from :meth:`to_json` output.

        Also accepts a bare ``logr-mixture-v1`` payload (the pre-service
        interchange format): the mixture is wrapped with placeholder
        provenance (``method="unknown"`` and an empty label array, since
        per-row assignments were never stored in that format).
        """
        return cls.from_payload(json.loads(text))

    @classmethod
    def from_payload(cls, payload: dict) -> "CompressedLog":
        """Rebuild an artifact from a :meth:`to_payload` dict."""
        fmt = payload.get("format")
        if fmt == "logr-mixture-v1":
            mixture = PatternMixtureEncoding.from_payload(payload)
            return cls(
                mixture=mixture,
                labels=np.zeros(0, dtype=np.int64),
                n_clusters=mixture.n_components,
                method="unknown",
                metric="unknown",
                build_seconds=0.0,
            )
        if fmt not in ("logr-compressed-v1", "logr-compressed-v2"):
            raise ValueError(f"not a LogR artifact payload (format={fmt!r})")
        return cls(
            mixture=PatternMixtureEncoding.from_payload(payload["mixture"]),
            labels=_labels_from_payload(payload["labels"]),
            n_clusters=int(payload["n_clusters"]),
            method=str(payload["method"]),
            metric=str(payload["metric"]),
            build_seconds=float(payload["build_seconds"]),
            refined_patterns=int(payload.get("refined_patterns", 0)),
        )

    def size_bytes(self) -> int:
        """Serialized *summary* size in bytes (the paper's metric).

        Measures the mixture payload alone: the full artifact
        (:meth:`to_json`) additionally carries per-distinct-row labels
        and provenance, which are bookkeeping, not summary content —
        including them would scale the "compressed size" with the
        number of distinct queries and silently deflate compression
        ratios.
        """
        return len(self.mixture.to_json().encode("utf-8"))

    def compression_report(self, raw_bytes: int) -> dict[str, float]:
        """Size/fidelity summary against a raw-log byte count.

        ``raw_bytes`` is the size of the original log text (e.g.
        ``sum(len(sql) * count for sql, count in workload.entries)``).
        """
        artifact = self.size_bytes()
        return {
            "raw_bytes": float(raw_bytes),
            "artifact_bytes": float(artifact),
            "compression_ratio": raw_bytes / max(artifact, 1),
            "error_bits": self.error,
            "total_verbosity": float(self.total_verbosity),
        }


#: Narrowest-first dtypes tried when packing a label array (all
#: little-endian so payloads are byte-identical across platforms).
_LABEL_DTYPES = ("<u1", "<u2", "<u4", "<i8")


def _labels_to_payload(labels: np.ndarray) -> dict:
    """Compact base64 form of a label array (``from_payload`` inverse)."""
    labels = np.asarray(labels, dtype=np.int64)
    dtype = _LABEL_DTYPES[-1]
    if labels.size == 0 or labels.min() >= 0:
        top = int(labels.max()) if labels.size else 0
        for candidate in _LABEL_DTYPES[:-1]:
            if top <= np.iinfo(candidate).max:
                dtype = candidate
                break
    packed = labels.astype(dtype)
    return {
        "encoding": "b64",
        "dtype": dtype,
        "n": int(labels.size),
        "data": base64.b64encode(packed.tobytes()).decode("ascii"),
    }


def _labels_from_payload(payload: Any) -> np.ndarray:
    """Decode either label form: legacy int list or compact base64."""
    if isinstance(payload, dict):
        if payload.get("encoding") != "b64":
            raise ValueError(
                f"unknown labels encoding {payload.get('encoding')!r}"
            )
        dtype = payload.get("dtype")
        if dtype not in _LABEL_DTYPES:
            raise ValueError(f"unknown labels dtype {dtype!r}")
        raw = base64.b64decode(payload["data"])
        labels = np.frombuffer(raw, dtype=dtype).astype(np.int64)
        if labels.shape != (int(payload["n"]),):
            raise ValueError("labels payload length does not match its data")
        return labels
    return np.asarray(payload, dtype=np.int64)


class LogRCompressor:
    """Configurable LogR compression pipeline.

    Args:
        n_clusters: K, the fidelity/verbosity knob.
        method: ``kmeans`` | ``spectral`` | ``hierarchical``.
        metric: distance measure for spectral/hierarchical (§6.1).
        n_init: restarts for the clustering step.
        refine_patterns: per-cluster non-naive patterns to add (§6.4).
        min_support / max_pattern_size: Apriori bounds for refinement.
        jobs: worker count for the partition-parallel Fit/Refine
            stages; 1 (the default) runs the serial reference loop,
            more runs a pool of worker processes for each ``compress``
            call.  Results are bit-identical either way.
        seed: RNG seed or generator.
    """

    def __init__(
        self,
        n_clusters: int = 8,
        method: str = "kmeans",
        metric: str = "euclidean",
        n_init: int = 10,
        refine_patterns: int = 0,
        min_support: float = 0.05,
        max_pattern_size: int = 3,
        jobs: int = 1,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.n_clusters = n_clusters
        self.method = method
        self.metric = metric
        self.n_init = n_init
        self.refine_patterns = refine_patterns
        self.min_support = min_support
        self.max_pattern_size = max_pattern_size
        self.jobs = jobs
        self._rng = ensure_rng(seed)

    def pipeline(self, executor: Executor) -> CompressionPipeline:
        """The staged pipeline this compressor's parameters describe."""
        return CompressionPipeline(
            partition=PartitionStage(
                self.n_clusters, self.method, self.metric, self.n_init
            ),
            fit=FitStage(),
            refine=RefineStage(
                self.refine_patterns, self.min_support, self.max_pattern_size
            ),
            executor=executor,
        )

    def compress(self, log: QueryLog) -> CompressedLog:
        """Compress *log* into a pattern mixture encoding."""
        watch = Stopwatch()
        with executor_for(self.jobs) as executor:
            result = self.pipeline(executor).run(log, self._rng)
        elapsed = watch.elapsed()
        return CompressedLog(
            mixture=result.mixture,
            labels=result.labels,
            n_clusters=self.n_clusters,
            method=self.method,
            metric=self.metric,
            build_seconds=elapsed,
            refined_patterns=self.refine_patterns,
        )

    def partition_labels(self, log: QueryLog) -> np.ndarray:
        """Cluster the distinct rows of *log* (multiplicity-weighted)."""
        return PartitionStage(
            self.n_clusters, self.method, self.metric, self.n_init
        ).run(log, self._rng)


@dataclass
class SweepPoint:
    """One (K, Error, Verbosity, runtime) point of a compression sweep."""

    n_clusters: int
    error: float
    verbosity: int
    seconds: float


@dataclass(frozen=True)
class _CompressorSpec:
    """Picklable LogRCompressor recipe shipped to worker processes.

    ``rng`` rides along as a pre-spawned generator (NumPy generators
    pickle by state), so a worker's stream depends only on the task,
    never on the worker.
    """

    n_clusters: int
    method: str
    metric: str
    n_init: int
    rng: np.random.Generator = field(compare=False)

    def build(self) -> LogRCompressor:
        return LogRCompressor(
            n_clusters=self.n_clusters,
            method=self.method,
            metric=self.metric,
            n_init=self.n_init,
            seed=self.rng,
        )


def _compress_task(payload: tuple[_CompressorSpec, QueryLog]) -> CompressedLog:
    """One candidate compression; module-level for process executors."""
    spec, log = payload
    return spec.build().compress(log)


def _sweep_task(payload: tuple[_CompressorSpec, QueryLog]) -> SweepPoint:
    """One sweep candidate, reduced to its measurement point.

    Returning the :class:`SweepPoint` (not the artifact) keeps the
    result pickle O(1) instead of O(summary) per K.
    """
    compressed = _compress_task(payload)
    return SweepPoint(
        n_clusters=compressed.n_clusters,
        error=compressed.error,
        verbosity=compressed.total_verbosity,
        seconds=compressed.build_seconds,
    )


def compress_sweep(
    log: QueryLog,
    ks: Sequence[int],
    method: str = "kmeans",
    metric: str = "euclidean",
    n_init: int = 10,
    jobs: int = 1,
    seed: int | np.random.Generator | None = None,
) -> list[SweepPoint]:
    """Compress *log* for each K in *ks*; the Fig. 2 measurement loop.

    The K candidates are independent, so ``jobs > 1`` evaluates them
    concurrently.  Each K gets its own fresh child generator spawned
    from *seed* up front (the same per-candidate spawning
    ``compress_to_error`` documents), so the result at a given K no
    longer depends on which Ks ran before it — and is bit-identical
    whether the candidates run serially or across workers: with an
    integer seed, each point matches
    ``LogRCompressor(n_clusters=K, seed=seed)`` exactly.

    Each task carries its own pickled copy of *log* (measured ~4 ms /
    2.8 MB for a 4k-distinct workload — noise next to a clustering
    fit); for logs big enough that per-K copies matter, shard first:
    ``compress_sharded`` ships only per-shard subsets.
    """
    ks = list(ks)
    children = spawn_generators(seed, len(ks))
    tasks = [
        (
            _CompressorSpec(k, method, metric, n_init, child),
            log,
        )
        for k, child in zip(ks, children)
    ]
    with executor_for(jobs) as runner:
        return runner.map(_sweep_task, tasks)


def compress_to_error(
    log: QueryLog,
    target_error: float,
    max_clusters: int = 64,
    method: str = "kmeans",
    metric: str = "euclidean",
    n_init: int = 10,
    jobs: int = 1,
    seed: int | np.random.Generator | None = None,
) -> CompressedLog:
    """Grow K (doubling) until Generalized Error ≤ *target_error*.

    Returns the first compression on the doubling ladder meeting the
    target, or the ``max_clusters`` compression when the target is
    unreachable.

    Each ladder rung gets its own fresh generator derived from *seed*,
    so the clustering at a given K is independent of how many earlier
    iterations ran: with an integer seed it is bit-identical to calling
    ``LogRCompressor(n_clusters=K, seed=seed)`` directly.  (A shared
    generator would be consumed across iterations, making per-K results
    depend on the search trajectory.)  With ``jobs > 1`` the ladder is
    evaluated speculatively in waves of *jobs* rungs; because every
    rung is independent, the returned artifact is bit-identical to the
    serial search — speculation only spends extra work when the target
    is met mid-wave.
    """
    rungs: list[int] = []
    k = 1
    while True:
        rungs.append(min(k, max_clusters))
        if k >= max_clusters:
            break
        k *= 2
    with executor_for(jobs) as runner:
        best: CompressedLog | None = None
        for lo in range(0, len(rungs), jobs):
            chunk = rungs[lo : lo + jobs]
            tasks = [
                (
                    _CompressorSpec(rung, method, metric, n_init, _fresh_child(seed)),
                    log,
                )
                for rung in chunk
            ]
            for best in runner.map(_compress_task, tasks):
                if best.error <= target_error:
                    return best
        assert best is not None
        return best


def _fresh_child(seed: int | np.random.Generator | None) -> np.random.Generator:
    """A per-iteration generator: re-seeded for ints, spawned for generators."""
    return spawn_generators(seed, 1)[0]


@dataclass(frozen=True)
class _ColumnarShard:
    """Zero-copy shard reference shipped to worker processes.

    Pickles as (path, row range) — a few hundred bytes — and
    the worker materializes its rows straight from the memmapped
    columnar chunks (:meth:`repro.core.colstore.ColumnarLog.
    slice_log`), so sharded compression of an on-disk log never
    serializes row data and never re-materializes the full matrix in
    the parent.
    """

    path: str
    lo: int
    hi: int

    def load(self) -> QueryLog:
        return ColumnarLog(self.path).slice_log(self.lo, self.hi)


def _shard_task(
    payload: tuple[_CompressorSpec, "QueryLog | _ColumnarShard"]
) -> tuple[PatternMixtureEncoding, np.ndarray]:
    """Compress one shard; returns its mixture and normalized labels.

    Labels are normalized to ``0..k-1`` in component order (the
    sorted-unique order ``QueryLog.partition`` induces), so the merge
    step can offset them by the component count of preceding shards.
    The shard arrives either as a pickled :class:`QueryLog` subset or
    as a :class:`_ColumnarShard` reference loaded in the worker; the
    two yield identical rows, so the results are bit-identical.
    """
    spec, source = payload
    log = source.load() if isinstance(source, _ColumnarShard) else source
    compressed = _compress_task((spec, log))
    _, normalized = np.unique(
        np.asarray(compressed.labels, dtype=np.int64), return_inverse=True
    )
    return compressed.mixture, normalized.astype(np.int64)


def compress_sharded(
    log: QueryLog | ColumnarLog,
    n_shards: int,
    n_clusters: int = 8,
    method: str = "kmeans",
    metric: str = "euclidean",
    n_init: int = 10,
    consolidate_to: int | None = None,
    jobs: int = 1,
    seed: int | np.random.Generator | None = None,
) -> CompressedLog:
    """Shard-and-merge compression for logs too big for one pass.

    Splits the log's distinct rows into *n_shards* contiguous shards,
    compresses each shard independently (``n_clusters`` per shard, so
    workers cluster ``n_distinct / n_shards`` rows instead of the whole
    log), and merges the shard mixtures — vocabulary union plus
    component concatenation, both exact, giving ``n_shards ×
    n_clusters`` components.  ``consolidate_to=K`` optionally merges
    near-duplicate components back down to ``K`` (see
    :meth:`PatternMixtureEncoding.consolidated`; exact for the disjoint
    shards built here).

    Error relative to single-pass compression: each component's
    Reproduction Error is exact, so the merged artifact's Error is the
    true Generalized Error of the sharded partitioning — the only loss
    versus one ``n_shards · n_clusters``-cluster pass is that rows
    never compete with rows of other shards for a cluster.  Sharding by
    distinct rows keeps that gap small in practice (measured in
    ``benchmarks/bench_scale.py``); at equal *total* component count
    the sharded Error is bounded below by the single-pass Error only up
    to clustering-quality noise, and both bounds tighten as
    ``consolidate_to`` merges duplicated structure.

    Per-shard randomness uses the same fresh-child spawning as
    ``compress_sweep``/``compress_to_error`` (shard *i*'s stream
    depends only on *seed* and *i*), so results are bit-identical at
    any worker count.

    *log* may also be an on-disk :class:`~repro.core.colstore.
    ColumnarLog`: shards then ship as (path, row range) references and
    each worker materializes only its own rows from the memmapped
    chunks, so the full matrix never exists in any process.  Because
    ``ColumnarLog.slice_log`` reproduces ``log.subset`` exactly, the
    artifact is bit-identical to compressing the materialized log.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    watch = Stopwatch()
    chunks = [
        chunk
        for chunk in np.array_split(np.arange(log.n_distinct), n_shards)
        if len(chunk)
    ]
    children = spawn_generators(seed, len(chunks))
    consolidation_rng = _fresh_child(seed) if consolidate_to is not None else None
    tasks: list[tuple[_CompressorSpec, QueryLog | _ColumnarShard]] = [
        (
            _CompressorSpec(n_clusters, method, metric, n_init, child),
            _ColumnarShard(str(log.path), int(chunk[0]), int(chunk[-1]) + 1)
            if isinstance(log, ColumnarLog)
            else log.subset(chunk),
        )
        for chunk, child in zip(chunks, children)
    ]
    with executor_for(jobs) as runner:
        shard_results = runner.map(_shard_task, tasks)
    mixtures = [mixture for mixture, _ in shard_results]
    merged = PatternMixtureEncoding.merged(mixtures)
    offsets = np.cumsum([0] + [m.n_components for m in mixtures[:-1]])
    labels = np.concatenate(
        [shard_labels + offset for (_, shard_labels), offset in zip(shard_results, offsets)]
    ) if shard_results else np.zeros(0, dtype=np.int64)
    if consolidate_to is not None:
        merged, assignment = merged.consolidated(
            consolidate_to, n_init=n_init, seed=consolidation_rng
        )
        labels = assignment[labels]
    return CompressedLog(
        mixture=merged,
        labels=labels,
        n_clusters=merged.n_components,
        method=method,
        metric=metric,
        build_seconds=watch.elapsed(),
        refined_patterns=0,
    )


def load_artifact(path: str | Path) -> CompressedLog:
    """Load a compressed artifact from disk, whatever its vintage.

    The one place that understands every on-disk format — the full
    artifact (``logr-compressed-v2`` with base64 labels, or v1 with
    list labels) and the legacy mixture-only ``logr-mixture-v1``
    payload — so every consumer (CLI subcommands, the service layer's
    profile store) parses them the same way.
    """
    return CompressedLog.from_json(Path(path).read_text(encoding="utf-8"))
