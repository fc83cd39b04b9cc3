"""Incremental mini-batch maintenance of a compressed profile.

Steady-state ingestion must be O(batch), not O(log): re-running
``LogRCompressor`` on every arriving mini-batch would re-cluster the
whole history.  :class:`IncrementalIngestor` instead

1. parses/encodes the batch against the profile's (growing) codebook,
2. assigns each new distinct row to its nearest partition — exact
   duplicates rejoin their original partition, unseen rows go to the
   partition whose naive-encoding centroid is closest,
3. updates the per-partition naive encodings *in place* with the
   closed-form running-mean formula, and maintains each partition's
   true entropy incrementally (``H = log2 N − (Σ c·log2 c)/N``), so
   Generalized Reproduction Error stays exact after every merge,
4. tracks a *staleness score* — the Error drift (in bits) since the
   last full compression — and only when it crosses the configured
   threshold does a full :class:`repro.core.compress.LogRCompressor`
   re-clustering run.

Because the merged mixture's Error is exact (not approximated), the
staleness trigger compares like with like: the profile recompresses
exactly when incremental maintenance has measurably degraded fidelity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from .._rng import ensure_rng
from ..core.colstore import ColumnarLog
from ..core.compress import CompressedLog, LogRCompressor
from ..core.encoding import NaiveEncoding
from ..core.featurecache import DEFAULT_CACHE_SIZE, FeatureCache, VocabularyCache
from ..core.log import QueryLog
from ..core.mixture import MixtureComponent, PatternMixtureEncoding
from ..obs import metrics as _metrics
from ..obs.trace import span as _span
from ..sql import AligonExtractor, SqlError

__all__ = ["IngestReport", "IncrementalIngestor"]

# Telemetry only (see repro.obs): ingest throughput/outcome accounting,
# aggregated across every ingestor in the process.
_INGEST_BATCHES = _metrics.counter(
    "logr_ingest_batches_total",
    "Mini-batches merged by IncrementalIngestor.",
)
_INGEST_STATEMENTS = _metrics.counter(
    "logr_ingest_statements_total",
    "Statements offered to ingest, by outcome.",
    labelnames=("outcome",),
)
_INGEST_RECOMPRESSIONS = _metrics.counter(
    "logr_ingest_recompressions_total",
    "Full recompressions (staleness-triggered or explicit).",
)
_INGEST_MERGE_SECONDS = _metrics.histogram(
    "logr_ingest_merge_seconds",
    "Wall seconds per ingest mini-batch (parse + merge + any recompress).",
)


@dataclass
class IngestReport:
    """Accounting of one mini-batch merge."""

    n_statements: int  # statements offered
    n_encoded: int  # statements merged into the profile
    n_skipped: int  # statements dropped (procedures + unparseable)
    n_batch_distinct: int  # distinct feature vectors in the batch
    n_new_rows: int  # batch rows unseen in the profile
    n_new_features: int  # codebook growth
    error_bits: float  # Generalized Error after the merge
    staleness: float  # Error drift (bits) since the last compression
    recompressed: bool  # whether the staleness trigger fired
    seconds: float
    n_skipped_procedures: int = 0  # EXEC / CALL invocations
    n_skipped_unparseable: int = 0  # statements the SQL pipeline rejected

    def __str__(self) -> str:
        action = "recompressed" if self.recompressed else "merged"
        skipped = ""
        if self.n_skipped:
            skipped = (
                f" [skipped {self.n_skipped_procedures} stored-proc, "
                f"{self.n_skipped_unparseable} unparseable]"
            )
        return (
            f"{action} {self.n_encoded}/{self.n_statements} statements "
            f"({self.n_new_rows} new rows, {self.n_new_features} new features) "
            f"Error={self.error_bits:.3f} bits, staleness={self.staleness:+.3f}"
            + skipped
        )


class IncrementalIngestor:
    """Maintains a compressed profile as traffic arrives.

    The ingestor takes *ownership* of the artifact: its vocabulary is
    grown in place as unseen features arrive, so after the first ingest
    the object passed in as *compressed* may reference a codebook wider
    than its encodings.  Always read the current artifact back from
    ``self.compressed`` (components are replaced wholesale on every
    merge, never mutated, so snapshots taken from it stay coherent).

    Args:
        compressed: the live artifact (naive mixture with vocabulary).
        log: the encoded log behind the artifact, aligned with
            ``compressed.labels`` (one distinct row per label).
        staleness_threshold: Error drift in bits that triggers a full
            recompression.  ``float("inf")`` disables the trigger;
            a negative value recompresses on every batch.
        seed: RNG seed for the recompression clustering.
        jobs / executor: forwarded to the recompression
            :class:`~repro.core.compress.LogRCompressor`, so the
            staleness escape hatch runs through the staged pipeline's
            executor (partition-parallel fits) instead of pinning the
            serving thread to one core.  Results stay bit-identical to
            the serial path at any worker count.
        remove_constants / max_disjuncts: statement-parsing knobs,
            matching :func:`repro.workloads.logio.load_log`.
        parse_cache: enable the fingerprint fast path — repeated
            statement templates skip the SQL parser entirely (see
            :mod:`repro.core.featurecache`).  Results are bit-identical
            either way; the cache only changes throughput.
        parse_cache_size: bounded-LRU capacity (distinct templates).
        feature_cache: a shared :class:`~repro.core.featurecache.
            FeatureCache` to reuse (e.g. one per windowed profile,
            shared across its panes); must match the parsing knobs.
            Overrides *parse_cache*.
    """

    def __init__(
        self,
        compressed: CompressedLog,
        log: QueryLog,
        staleness_threshold: float = 0.5,
        seed: int | np.random.Generator | None = 0,
        jobs: int = 1,
        executor=None,
        remove_constants: bool = True,
        max_disjuncts: int = 64,
        parse_cache: bool = True,
        parse_cache_size: int = DEFAULT_CACHE_SIZE,
        feature_cache: FeatureCache | None = None,
    ):
        mixture = compressed.mixture
        if mixture.vocabulary is None:
            raise ValueError("profile mixture has no vocabulary attached")
        if any(
            not isinstance(c.encoding, NaiveEncoding) or c.extra is not None
            for c in mixture.components
        ):
            raise ValueError(
                "incremental ingestion requires a naive (unrefined) mixture"
            )
        if log.n_distinct != len(compressed.labels):
            raise ValueError("log must have one distinct row per artifact label")
        self.compressed = compressed
        self.staleness_threshold = float(staleness_threshold)
        self._rng = ensure_rng(seed)
        self.jobs = jobs
        self.executor = executor
        self._extractor = AligonExtractor(
            remove_constants=remove_constants, max_disjuncts=max_disjuncts
        )
        self._vocabulary = mixture.vocabulary
        if feature_cache is not None:
            extractor = feature_cache.extractor
            if (
                getattr(extractor, "remove_constants", None) != remove_constants
                or getattr(extractor, "max_disjuncts", None) != max_disjuncts
            ):
                raise ValueError(
                    "shared feature_cache was built with different parsing "
                    "knobs than this ingestor"
                )
            self._feature_cache: FeatureCache | None = feature_cache
        elif parse_cache:
            self._feature_cache = FeatureCache(
                self._extractor, max_templates=parse_cache_size
            )
        else:
            self._feature_cache = None
        self._encoder = (
            VocabularyCache(
                self._feature_cache, self._vocabulary, max_rows=parse_cache_size
            )
            if self._feature_cache is not None
            else None
        )
        self._matrix = log.matrix.copy()
        self._counts = log.counts.copy()
        # Normalize labels to 0..k-1 in component order: QueryLog.partition
        # drops empty clusters, so raw label values need not be contiguous
        # but their sorted-unique order matches the component order.
        unique, normalized = np.unique(
            np.asarray(compressed.labels, dtype=np.int64), return_inverse=True
        )
        if len(unique) != mixture.n_components:
            raise ValueError(
                f"artifact has {mixture.n_components} components but "
                f"{len(unique)} distinct labels"
            )
        self._labels = normalized.astype(np.int64)
        self._row_index = {
            _row_key(row): position for position, row in enumerate(self._matrix)
        }
        # Per-partition running sums for exact incremental entropy:
        # H_i = log2(N_i) - S_i / N_i with S_i = sum(c * log2(c)).
        k = mixture.n_components
        self._sizes = np.zeros(k, dtype=np.int64)
        self._clog = np.zeros(k, dtype=float)
        counts = self._counts.astype(float)
        contributions = counts * np.log2(counts)
        for i in range(k):
            mask = self._labels == i
            self._sizes[i] = int(self._counts[mask].sum())
            self._clog[i] = float(contributions[mask].sum())
        self.baseline_error = compressed.error

    @classmethod
    def from_log(
        cls,
        log: QueryLog,
        n_clusters: int = 4,
        method: str = "kmeans",
        metric: str = "euclidean",
        n_init: int = 10,
        seed: int | np.random.Generator | None = 0,
        jobs: int = 1,
        executor=None,
        staleness_threshold: float = float("inf"),
        **kwargs,
    ) -> "IncrementalIngestor":
        """Bootstrap an ingestor by compressing *log* from scratch.

        The windowed layer opens a fresh pane from the first parseable
        chunk of a time slice: compress it once, then maintain it
        incrementally for the rest of the pane.  ``n_clusters`` is
        clamped to the log's distinct-row count (a tiny first chunk
        cannot support more components than rows).
        """
        rng = ensure_rng(seed)
        compressor = LogRCompressor(
            n_clusters=max(1, min(n_clusters, log.n_distinct)),
            method=method,
            metric=metric,
            n_init=n_init,
            jobs=jobs,
            executor=executor,
            seed=rng.spawn(1)[0],
        )
        return cls(
            compressor.compress(log),
            log,
            staleness_threshold=staleness_threshold,
            seed=rng,
            jobs=jobs,
            executor=executor,
            **kwargs,
        )

    @classmethod
    def from_columnar(
        cls, log: ColumnarLog, **kwargs: object
    ) -> "IncrementalIngestor":
        """Bootstrap an ingestor from an on-disk columnar log.

        Bulk history is encoded out-of-core (:func:`repro.workloads.
        logio.load_log_columnar` / ``LogBuilder.build_columnar``) and
        only materialized here, once, for the initial compression —
        ``ColumnarLog.to_query_log`` is exact, so the profile is
        bit-identical to bootstrapping from the in-RAM log.
        """
        return cls.from_log(log.to_query_log(), **kwargs)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def log(self) -> QueryLog:
        """The current merged log (fresh object; arrays are copied views)."""
        return QueryLog(self._vocabulary, self._matrix, self._counts)

    @property
    def staleness(self) -> float:
        """Error drift (bits) of the live mixture since last compression."""
        return self.compressed.error - self.baseline_error

    @property
    def parse_cache_stats(self) -> dict | None:
        """JSON-ready fingerprint-cache counters (``None``: cache off)."""
        if self._encoder is None:
            return None
        return self._encoder.stats_payload()

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest_statements(self, statements: Sequence[str]) -> IngestReport:
        """Parse and merge a mini-batch of raw SQL statements.

        With the parse cache enabled (the default), statements whose
        template was seen before resolve straight to their vocabulary
        index row without touching the SQL parser; the result is
        bit-identical to the cold path.
        """
        start = time.perf_counter()
        with _span("ingest.batch", statements=len(statements)):
            batch: dict[frozenset[int], int] = {}
            n_offered = 0
            n_encoded = 0
            n_procedures = 0
            n_unparseable = 0
            encoder = self._encoder
            for statement in statements:
                n_offered += 1
                upper = statement.lstrip().upper()
                if upper.startswith("EXEC ") or upper.startswith("CALL "):
                    n_procedures += 1
                    continue
                try:
                    if encoder is not None:
                        indices = encoder.encode_indices(statement)
                    else:
                        merged = self._extractor.extract_merged(statement)
                        indices = frozenset(
                            self._vocabulary.add(f)
                            for f in sorted(merged, key=repr)
                        )
                except SqlError:
                    n_unparseable += 1
                    continue
                batch[indices] = batch.get(indices, 0) + 1
                n_encoded += 1
            return self._merge(
                batch,
                n_offered,
                n_encoded,
                start,
                n_procedures=n_procedures,
                n_unparseable=n_unparseable,
            )

    def ingest_feature_sets(
        self, feature_sets: Iterable[Iterable[Hashable]]
    ) -> IngestReport:
        """Merge pre-extracted feature sets (bypasses SQL parsing)."""
        start = time.perf_counter()
        batch: dict[frozenset[int], int] = {}
        n = 0
        for features in feature_sets:
            n += 1
            indices = frozenset(
                self._vocabulary.add(f) for f in sorted(features, key=repr)
            )
            batch[indices] = batch.get(indices, 0) + 1
        return self._merge(batch, n, n, start)

    def _merge(
        self,
        batch: dict[frozenset[int], int],
        n_offered: int,
        n_encoded: int,
        start: float,
        n_procedures: int = 0,
        n_unparseable: int = 0,
    ) -> IngestReport:
        n_old_features = self._matrix.shape[1]
        n_features = len(self._vocabulary)
        if n_features > n_old_features:
            self._matrix = np.hstack(
                [
                    self._matrix,
                    np.zeros(
                        (self._matrix.shape[0], n_features - n_old_features),
                        dtype=np.uint8,
                    ),
                ]
            )
        k = len(self.compressed.mixture.components)
        centroids = np.stack(
            [
                _padded(c.encoding.marginals, n_features)
                for c in self.compressed.mixture.components
            ]
        )
        # Per-partition feature-mass deltas for the running-mean update.
        mass = np.zeros((k, n_features))
        delta_sizes = np.zeros(k, dtype=np.int64)
        new_rows: list[np.ndarray] = []
        new_counts: list[int] = []
        new_labels: list[int] = []
        n_new_rows = 0
        for indices, count in batch.items():
            row = np.zeros(n_features, dtype=np.uint8)
            row[sorted(indices)] = 1
            key = _row_key(row)
            position = self._row_index.get(key)
            if position is not None:
                label = int(self._labels[position])
                old = int(self._counts[position])
                self._counts[position] = old + count
                self._clog[label] += _clog_term(old + count) - _clog_term(old)
            else:
                label = int(
                    np.argmin(((row.astype(float) - centroids) ** 2).sum(axis=1))
                )
                self._row_index[key] = self._matrix.shape[0] + len(new_rows)
                new_rows.append(row)
                new_counts.append(count)
                new_labels.append(label)
                self._clog[label] += _clog_term(count)
                n_new_rows += 1
            mass[label] += float(count) * row
            delta_sizes[label] += count
        if new_rows:
            self._matrix = np.vstack([self._matrix, np.stack(new_rows)])
            self._counts = np.concatenate(
                [self._counts, np.asarray(new_counts, dtype=np.int64)]
            )
            self._labels = np.concatenate(
                [self._labels, np.asarray(new_labels, dtype=np.int64)]
            )
        # Rebuild components: running-mean marginals for touched
        # partitions, zero-padding for the rest.  Fresh objects, never
        # in-place array writes — published snapshots stay coherent.
        components = []
        for i, component in enumerate(self.compressed.mixture.components):
            marginals = _padded(component.encoding.marginals, n_features)
            size = int(self._sizes[i])
            if delta_sizes[i]:
                new_size = size + int(delta_sizes[i])
                marginals = (size * marginals + mass[i]) / new_size
                self._sizes[i] = new_size
                size = new_size
            entropy = (
                np.log2(size) - self._clog[i] / size if size else 0.0
            )
            components.append(
                MixtureComponent(
                    size=size,
                    encoding=NaiveEncoding(marginals),
                    true_entropy=float(entropy),
                )
            )
        mixture = PatternMixtureEncoding(components, self._vocabulary)
        self.compressed = CompressedLog(
            mixture=mixture,
            labels=self._labels.copy(),
            n_clusters=self.compressed.n_clusters,
            method=self.compressed.method,
            metric=self.compressed.metric,
            build_seconds=self.compressed.build_seconds,
            refined_patterns=0,
        )
        # Report the staleness that triggered recompression (the live
        # value resets to 0 once the trigger fires).
        staleness = self.staleness
        recompressed = False
        if staleness > self.staleness_threshold:
            self.recompress()
            recompressed = True
        seconds = time.perf_counter() - start
        _INGEST_BATCHES.inc()
        _INGEST_MERGE_SECONDS.observe(seconds)
        if n_encoded:
            _INGEST_STATEMENTS.inc(n_encoded, outcome="encoded")
        if n_procedures:
            _INGEST_STATEMENTS.inc(n_procedures, outcome="procedure")
        if n_unparseable:
            _INGEST_STATEMENTS.inc(n_unparseable, outcome="unparseable")
        return IngestReport(
            n_statements=n_offered,
            n_encoded=n_encoded,
            n_skipped=n_offered - n_encoded,
            n_batch_distinct=len(batch),
            n_new_rows=n_new_rows,
            n_new_features=n_features - n_old_features,
            error_bits=self.compressed.error,
            staleness=staleness,
            recompressed=recompressed,
            seconds=seconds,
            n_skipped_procedures=n_procedures,
            n_skipped_unparseable=n_unparseable,
        )

    # ------------------------------------------------------------------
    # full recompression (the staleness escape hatch)
    # ------------------------------------------------------------------
    def recompress(self) -> CompressedLog:
        """Re-cluster the merged log from scratch and reset staleness."""
        method = self.compressed.method
        metric = self.compressed.metric
        compressor = LogRCompressor(
            n_clusters=self.compressed.n_clusters,
            method=method if method != "unknown" else "kmeans",
            metric=metric if metric != "unknown" else "euclidean",
            jobs=self.jobs,
            executor=self.executor,
            seed=self._rng.spawn(1)[0],
        )
        _INGEST_RECOMPRESSIONS.inc()
        with _span("ingest.recompress", staleness=self.staleness):
            self.compressed = compressor.compress(self.log)
        _, normalized = np.unique(
            np.asarray(self.compressed.labels, dtype=np.int64), return_inverse=True
        )
        self._labels = normalized.astype(np.int64)
        k = self.compressed.mixture.n_components
        self._sizes = np.zeros(k, dtype=np.int64)
        self._clog = np.zeros(k, dtype=float)
        counts = self._counts.astype(float)
        contributions = counts * np.log2(counts)
        for i in range(k):
            mask = self._labels == i
            self._sizes[i] = int(self._counts[mask].sum())
            self._clog[i] = float(contributions[mask].sum())
        self.baseline_error = self.compressed.error
        return self.compressed


def _clog_term(count: int) -> float:
    """One row's ``c · log2(c)`` contribution to a partition's entropy sum."""
    return float(count) * float(np.log2(count))


def _row_key(row: np.ndarray) -> bytes:
    """Width-independent identity of a 0/1 row (its set of indices)."""
    return np.flatnonzero(row).astype(np.int64).tobytes()


def _padded(marginals: np.ndarray, n: int) -> np.ndarray:
    """*marginals* widened to *n* features (new features: marginal 0)."""
    if marginals.shape[0] == n:
        return marginals.astype(float, copy=True)
    out = np.zeros(n)
    out[: marginals.shape[0]] = marginals
    return out
