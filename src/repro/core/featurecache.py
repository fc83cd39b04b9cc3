"""Fingerprint-keyed caches: the one path from raw statement to features.

Real query logs are overwhelmingly repeated templates (PocketData:
629,582 entries, 605 distinct feature vectors), so running the full
lex → parse → normalize → regularize → extract pipeline on every
statement is almost all wasted work.  Every ingest front end —
:func:`repro.workloads.logio.load_log`,
:class:`repro.service.ingest.IncrementalIngestor`,
:class:`repro.apps.stream.StreamingDriftMonitor`, the server's
``/ingest`` and ``/drift`` — therefore encodes statements through the
two cache layers of this module:

* :class:`FeatureCache` — a bounded LRU from statement *fingerprint*
  (:func:`repro.sql.fingerprint.fingerprint`) to the template's
  extraction result: the merged feature tuple **sorted by ``repr``**,
  its conjunctive-branch count, or the :class:`~repro.sql.errors.
  SqlError` the pipeline raised.  This layer is codebook-independent,
  so one instance can be shared across profiles, panes, and calls that
  use the same extractor configuration.

* :class:`VocabularyCache` — a per-codebook LRU from fingerprint to
  the *resolved vocabulary index row*.  The first resolution of a
  template replays ``vocabulary.add`` over the sorted feature tuple —
  byte-for-byte the ``sorted(features, key=repr)`` interning loop of
  :meth:`repro.core.log.LogBuilder.add` — so feature-ID assignment
  order, and therefore every downstream matrix, artifact, and score,
  is what running the plain extractor on every statement would give.
  Once resolved, a row is valid forever: vocabularies are append-only,
  indices never move.

Determinism contract: for a fixed statement sequence and extractor
configuration, ingestion through the cache ≡ the plain extractor run
on every statement — identical ``QueryLog``s (same vocabulary order,
same matrices, same counts) and reports.  The tests keep that plain
loop as the oracle.  Statements the lexer rejects have no fingerprint;
they are memoized by raw string instead, preserving error accounting
exactly.

Thread safety: :class:`FeatureCache` serializes its map with a lock so
it can be shared (e.g. across a server's pane ingestors).
:class:`VocabularyCache` mutates its codebook and is *not* internally
locked — callers already serialize per-profile mutation (the server's
per-handle lock), and a lock here could not make concurrent
``vocabulary.add`` order deterministic anyway.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..obs import metrics as _metrics
from ..sql.errors import SqlError
from ..sql.fingerprint import fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sql.features import AligonExtractor
    from .vocabulary import Vocabulary

__all__ = ["CacheStats", "CachedTemplate", "FeatureCache", "VocabularyCache"]

DEFAULT_CACHE_SIZE = 65_536

# Telemetry only (see repro.obs): process-wide mirrors of the per-cache
# CacheStats counters, aggregated across every cache instance so one
# /metrics scrape answers "how cold is ingest?" fleet-wide.
_CACHE_LOOKUPS = _metrics.counter(
    "logr_parse_cache_lookups_total",
    "Fingerprint-cache lookups by layer (templates/rows) and outcome.",
    labelnames=("layer", "outcome"),
)
_CACHE_EVICTIONS = _metrics.counter(
    "logr_parse_cache_evictions_total",
    "Fingerprint-cache LRU evictions by layer.",
    labelnames=("layer",),
)


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting for one cache layer."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: First-time extractions of statements with no fingerprint (the
    #: lexer rejects them); they are memoized by raw string instead,
    #: so repeats of the same garbage count as hits.
    bypasses: int = 0

    @property
    def lookups(self) -> int:
        """Total statements offered to this layer."""
        return self.hits + self.misses + self.bypasses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (0.0 when idle)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def to_payload(self) -> dict:
        """JSON-ready view (served by the analytics ``/stats`` endpoint)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "bypasses": self.bypasses,
            "hit_rate": self.hit_rate,
        }


class CachedTemplate:
    """One template's extraction outcome (success or failure).

    Attributes:
        features: the merged feature tuple sorted by ``repr`` (the
            vocabulary interning order), or ``None`` for failures.
        n_branches: conjunctive branches the statement regularized into
            (``load_log`` accounting); 0 for failures.
        error: the :class:`SqlError` extraction raised, or ``None``.
        parse_ok: failure triage — whether a plain parse succeeds (the
            statement is non-rewritable rather than unparseable).
            Computed lazily by :meth:`FeatureCache.classify_failure`;
            ``None`` until then.
    """

    __slots__ = ("features", "n_branches", "error", "parse_ok")

    def __init__(
        self,
        features: tuple | None,
        n_branches: int,
        error: SqlError | None,
    ) -> None:
        self.features = features
        self.n_branches = n_branches
        self.error = error
        self.parse_ok: bool | None = None


class FeatureCache:
    """Bounded LRU: statement fingerprint → extraction result.

    Args:
        extractor: the feature extractor to run on cache misses (any
            object with ``extract``; its ``remove_constants`` attribute
            decides whether literals are masked in fingerprints).
        max_templates: LRU capacity (distinct templates retained).
    """

    def __init__(self, extractor: "AligonExtractor", max_templates: int = DEFAULT_CACHE_SIZE) -> None:
        if max_templates < 1:
            raise ValueError("max_templates must be >= 1")
        self.extractor = extractor
        self.max_templates = max_templates
        self._mask_literals = bool(getattr(extractor, "remove_constants", True))
        self._templates: OrderedDict[str, CachedTemplate] = OrderedDict()
        # Statements the lexer rejects have no fingerprint; memoize
        # them by raw string so repeated garbage (a real log pattern —
        # the paper drops 13M unparseable statements) still pays
        # extraction and failure triage only once.
        self._rejects: OrderedDict[str, CachedTemplate] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def key(self, statement: str) -> str | None:
        """The statement's template fingerprint (``None``: uncacheable)."""
        return fingerprint(statement, mask_literals=self._mask_literals)

    def lookup(
        self, statement: str, key: str | None = None, have_key: bool = False
    ) -> tuple[CachedTemplate, bool]:
        """``(template, was_cached)`` for *statement*.

        Pass ``key``/``have_key=True`` when the fingerprint was already
        computed (the :class:`VocabularyCache` probes its row layer
        first) so it is not recomputed.
        """
        if not have_key:
            key = self.key(statement)
        with self._lock:
            if key is None:
                entry = self._rejects.get(statement)
                if entry is not None:
                    self._rejects.move_to_end(statement)
                    self.stats.hits += 1
                    _CACHE_LOOKUPS.inc(layer="templates", outcome="hit")
                    return entry, True
            else:
                entry = self._templates.get(key)
                if entry is not None:
                    self._templates.move_to_end(key)
                    self.stats.hits += 1
                    _CACHE_LOOKUPS.inc(layer="templates", outcome="hit")
                    return entry, True
        entry = self._extract(statement)
        with self._lock:
            if key is None:
                self.stats.bypasses += 1
                _CACHE_LOOKUPS.inc(layer="templates", outcome="bypass")
                self._rejects[statement] = entry
                while len(self._rejects) > self.max_templates:
                    self._rejects.popitem(last=False)
                    self.stats.evictions += 1
                    _CACHE_EVICTIONS.inc(layer="templates")
            else:
                self.stats.misses += 1
                _CACHE_LOOKUPS.inc(layer="templates", outcome="miss")
                self._templates[key] = entry
                while len(self._templates) > self.max_templates:
                    self._templates.popitem(last=False)
                    self.stats.evictions += 1
                    _CACHE_EVICTIONS.inc(layer="templates")
        return entry, False

    def extract_merged(self, statement: str) -> frozenset:
        """The statement's merged feature set (raises the cached
        :class:`SqlError` for failing templates) — a drop-in for
        :meth:`repro.sql.features.AligonExtractor.extract_merged`."""
        entry, _ = self.lookup(statement)
        if entry.error is not None:
            raise entry.error
        return frozenset(entry.features)

    def classify_failure(self, entry: CachedTemplate, statement: str) -> bool:
        """True when a failing statement still *parses* (it is
        non-rewritable, not unparseable) — memoized on the entry, since
        parseability is a property of the template, not the literals."""
        if entry.parse_ok is None:
            from ..sql.parser import parse

            try:
                parse(statement)
            except SqlError:
                entry.parse_ok = False
            else:
                entry.parse_ok = True
        return entry.parse_ok

    def __len__(self) -> int:
        return len(self._templates)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _extract(self, statement: str) -> CachedTemplate:
        try:
            feature_sets = self.extractor.extract(statement)
        except SqlError as exc:
            return CachedTemplate(None, 0, exc)
        merged: set = set()
        for feature_set in feature_sets:
            merged.update(feature_set)
        return CachedTemplate(
            tuple(sorted(merged, key=repr)), len(feature_sets), None
        )


class VocabularyCache:
    """Bounded LRU: fingerprint → resolved index row for one codebook.

    The warm path of profile ingestion: a hit returns the frozen index
    set without touching the parser *or* the vocabulary.  Misses pull
    the template from the shared :class:`FeatureCache` and intern its
    features in the exact ``sorted(…, key=repr)`` order of
    :meth:`repro.core.log.LogBuilder.add`.
    """

    def __init__(
        self,
        features: FeatureCache,
        vocabulary: "Vocabulary",
        max_rows: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        if max_rows < 1:
            raise ValueError("max_rows must be >= 1")
        self.features = features
        self.vocabulary = vocabulary
        self.max_rows = max_rows
        self._rows: OrderedDict[str, frozenset[int]] = OrderedDict()
        self.stats = CacheStats()

    def encode_indices(self, statement: str) -> frozenset[int]:
        """The statement's vocabulary index row (raises the template's
        cached :class:`SqlError` for failing statements)."""
        key = self.features.key(statement)
        if key is not None:
            row = self._rows.get(key)
            if row is not None:
                self._rows.move_to_end(key)
                self.stats.hits += 1
                _CACHE_LOOKUPS.inc(layer="rows", outcome="hit")
                return row
        entry, _ = self.features.lookup(statement, key=key, have_key=True)
        if entry.error is not None:
            if key is None:
                self.stats.bypasses += 1
                _CACHE_LOOKUPS.inc(layer="rows", outcome="bypass")
            else:
                self.stats.misses += 1
                _CACHE_LOOKUPS.inc(layer="rows", outcome="miss")
            raise entry.error
        indices = frozenset(self.vocabulary.add(f) for f in entry.features)
        if key is None:
            self.stats.bypasses += 1
            _CACHE_LOOKUPS.inc(layer="rows", outcome="bypass")
        else:
            self.stats.misses += 1
            _CACHE_LOOKUPS.inc(layer="rows", outcome="miss")
            self._rows[key] = indices
            while len(self._rows) > self.max_rows:
                self._rows.popitem(last=False)
                self.stats.evictions += 1
                _CACHE_EVICTIONS.inc(layer="rows")
        return indices

    def __len__(self) -> int:
        return len(self._rows)

    def stats_payload(self) -> dict:
        """Both layers' counters, JSON-ready (``/stats``)."""
        return {
            "rows": self.stats.to_payload(),
            "templates": self.features.stats.to_payload(),
            "cached_rows": len(self._rows),
            "cached_templates": len(self.features),
        }
