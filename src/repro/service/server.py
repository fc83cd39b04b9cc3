"""A concurrent JSON scoring service over a profile store.

The serving front end for the §2 operational use cases: long-lived
compressed profiles (one per workload tenant) answering scoring, drift
and statistics queries while traffic keeps arriving.  Pure stdlib, two
transports over one endpoint core:

* :class:`AnalyticsService` — the transport-independent core: profile
  cache, endpoint handlers (JSON dict in, JSON-ready dict out), and
  the per-instance metrics registry;
* :class:`AnalyticsServer` (this module) — the original
  :class:`http.server.ThreadingHTTPServer` transport, thread per
  connection;
* :class:`repro.service.aserver.AsyncAnalyticsServer` — the asyncio
  front end with request micro-batching and backpressure, selected
  via ``logr serve --server-backend=async``.

Because both transports dispatch into the same handlers, their JSON
response bodies are byte-identical for identical requests.

Endpoints::

    GET  /profiles              profile index (latest version metadata)
    GET  /profiles/<name>       one profile, with its version history
    GET  /stats                 server counters (requests, cache, uptime)
    GET  /metrics               Prometheus text exposition (repro.obs)
    POST /score    {"profile", "statements": [...]}
    POST /ingest   {"profile", "statements": [...], "persist": bool}
    POST /drift    {"profile", "statements": [...], "window_size", "threshold"}
    POST /window   {"profile", "last"|"panes", "half_life",
                    "consolidate_to", "statements": [...]}
    POST /timeline {"profile", "last"}

``/window`` composes a profile's sealed time panes (see
:class:`repro.service.windows.WindowedProfile`) into one summary —
sliding last-N, exponentially decayed, optionally consolidated — and
scores an optional statement batch against it: range-scoped analytics
straight from maintained summaries.  ``/timeline`` returns the per-pane
Error/JS-drift series from the manifest; neither endpoint reads raw
statements.  When the server is constructed with ``pane_statements``,
``/ingest`` additionally routes each batch into the profile's windowed
panes (splitting at pane boundaries), growing the timeline as traffic
arrives.

Concurrency model — hot profiles live in an LRU cache as
:class:`_Profile` handles.  Each handle separates the *live* state (an
:class:`repro.service.ingest.IncrementalIngestor`, mutated only under
the handle's lock) from the *published* scoring snapshot (a
:class:`repro.apps.monitor.WorkloadMonitor` built over read-only
marginal arrays and a frozen codebook).  ``/score`` reads the snapshot
reference once — an atomic pointer load — and never touches live
state, so readers take no lock, see no torn updates, and return
bit-identical scores whether or not an ingest is running; ``/ingest``
builds the successor snapshot and swaps the reference in one
assignment.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from .._clock import Stopwatch
from ..apps.monitor import WorkloadMonitor
from ..apps.stream import StreamingDriftMonitor
from ..core.compress import CompressedLog
from ..core.diff import feature_drift
from ..core.log import QueryLog
from ..core.mixture import MixtureComponent, PatternMixtureEncoding
from ..core.vocabulary import Vocabulary
from ..obs import metrics as _metrics
from ..obs.textfmt import CONTENT_TYPE as _METRICS_CONTENT_TYPE
from ..obs.textfmt import render_text
from .ingest import IncrementalIngestor
from .store import StoreError, SummaryStore
from .windows import WindowedProfile

__all__ = ["AnalyticsService", "AnalyticsServer", "serve"]

#: Default drift window, matching ``StreamingDriftMonitor``.
DEFAULT_WINDOW_SIZE = 500


def _snapshot_mixture(mixture: PatternMixtureEncoding) -> PatternMixtureEncoding:
    """A frozen copy: cloned codebook and component list.

    Published scorers must not share mutable structure with the live
    ingest state — the live vocabulary keeps growing and components
    keep being replaced, and a scorer that chased those references
    could mix marginals from two different profile versions mid-batch.
    Encodings are shared: their marginals are read-only.
    """
    vocabulary = Vocabulary(mixture.vocabulary) if mixture.vocabulary else None
    components = [
        MixtureComponent(
            size=component.size,
            encoding=component.encoding,
            true_entropy=component.true_entropy,
        )
        for component in mixture.components
    ]
    return PatternMixtureEncoding(components, vocabulary)


class _Profile:
    """One hot profile: live ingest state plus a published snapshot."""

    def __init__(
        self,
        name: str,
        version: int,
        compressed: CompressedLog,
        log: QueryLog | None,
        threshold_quantile: float,
        staleness_threshold: float,
        seed: int,
        jobs: int = 1,
    ):
        self.name = name
        self.version = version
        self.lock = threading.Lock()  # serializes ingest/drift mutation
        self.threshold_quantile = threshold_quantile
        self.ingestor: IncrementalIngestor | None = None
        if log is not None:
            try:
                self.ingestor = IncrementalIngestor(
                    compressed,
                    log,
                    staleness_threshold=staleness_threshold,
                    seed=seed,
                    jobs=jobs,
                )
            except ValueError:
                # e.g. a refined mixture: it cannot be incrementally
                # maintained, but scoring and drift must still work.
                self.ingestor = None
        self.state_log = log
        self.monitor = self._build_monitor(compressed, log)
        self.dirty = False  # merged-but-unpersisted ingest state; guarded-by: lock
        self._drift: StreamingDriftMonitor | None = None  # guarded-by: lock
        self._drift_window = 0  # guarded-by: lock
        self._drift_threshold: float | None = None  # guarded-by: lock

    def _build_monitor(
        self, compressed: CompressedLog, log: QueryLog | None
    ) -> WorkloadMonitor:
        mixture = _snapshot_mixture(compressed.mixture)
        if log is None:
            # No training state: likelihoods only, nothing ever flagged.
            return WorkloadMonitor(mixture, threshold=float("-inf"))
        return WorkloadMonitor(
            mixture, log, threshold_quantile=self.threshold_quantile
        )

    def publish(self, version: int) -> None:  # holds: lock
        """Swap in a fresh snapshot of the live state (caller holds lock)."""
        assert self.ingestor is not None
        self.state_log = self.ingestor.log
        monitor = self._build_monitor(self.ingestor.compressed, self.state_log)
        self.version = version
        self.monitor = monitor  # atomic reference swap: readers see old or new
        self._drift = None  # baseline moved; recalibrate lazily

    def drift_monitor(  # holds: lock
        self, window_size: int, threshold: float | None, seed: int
    ) -> StreamingDriftMonitor:
        """The profile's windowed drift monitor (caller holds lock)."""
        if (
            self._drift is None
            or self._drift_window != window_size
            or self._drift_threshold != threshold
        ):
            baseline = self.monitor.mixture
            baseline_log = self.state_log
            if threshold is None and baseline_log is None:
                raise ValueError(
                    "profile has no stored training state; pass an explicit "
                    "drift threshold"
                )
            self._drift = StreamingDriftMonitor(
                baseline,
                window_size=window_size,
                threshold=threshold,
                baseline_log=baseline_log,
                seed=seed,
            )
            self._drift_window = window_size
            self._drift_threshold = threshold
        return self._drift


class AnalyticsService:
    """Transport-independent endpoint core over a :class:`SummaryStore`.

    Owns the hot-profile cache, the windowed-pane handles, the
    per-instance metrics registry, and every endpoint handler.  The
    handlers speak JSON-ready dicts and raise for errors; a transport
    (threaded :class:`AnalyticsServer` or the asyncio front end in
    :mod:`repro.service.aserver`) maps them onto HTTP.  All handler
    methods are thread-safe — the threaded transport calls them from
    handler threads, the asyncio transport from executor threads.

    Args:
        store: the profile store to serve (shared, thread-safe).
        cache_profiles: hot-profile LRU capacity.
        threshold_quantile: anomaly calibration for scoring snapshots.
        staleness_threshold: Error drift (bits) before an ingest
            triggers full recompression.
        seed: RNG seed for recompression and drift calibration.
        jobs: worker count for staleness-triggered recompression and
            pane compression.  Above 1 they run in a fresh pool of
            worker processes per run, started with ``spawn`` because
            the handler threads are alive (see
            :class:`~repro.core.executor.ProcessExecutor`); results are
            bit-identical to the serial path.
        pane_statements: when set, every ``/ingest`` batch is also
            routed into the profile's windowed panes (tumbling panes of
            this many statements, split at boundaries); ``/window`` and
            ``/timeline`` serve sealed panes whether or not this is set.
        pane_clusters: components fitted per pane.
    """

    def __init__(
        self,
        store: SummaryStore,
        cache_profiles: int = 8,
        threshold_quantile: float = 0.001,
        staleness_threshold: float = 0.5,
        seed: int = 0,
        jobs: int = 1,
        pane_statements: int | None = None,
        pane_clusters: int = 4,
    ):
        self.store = store
        self.cache_profiles = cache_profiles
        self.threshold_quantile = threshold_quantile
        self.staleness_threshold = staleness_threshold
        self.seed = seed
        self.jobs = jobs
        self.pane_statements = pane_statements
        self.pane_clusters = pane_clusters
        self._cache: OrderedDict[str, _Profile] = OrderedDict()  # guarded-by: _cache_lock
        self._cache_lock = threading.Lock()
        self._load_locks: dict[str, threading.Lock] = {}  # guarded-by: _cache_lock
        self._windows: dict[str, tuple[WindowedProfile, threading.Lock]] = {}  # guarded-by: _windows_lock
        self._windows_lock = threading.Lock()
        # Per-instance registry (repro.obs): request accounting must be
        # scoped to this server — tests run several servers per process
        # — while library metrics stay on the process-default registry.
        # /metrics renders the merge; /stats rebuilds its legacy
        # counters dict from the same families.
        self.registry = _metrics.MetricsRegistry()
        self._requests = self.registry.counter(
            "logr_http_requests_total",
            "HTTP requests served, by endpoint.",
            labelnames=("endpoint",),
        )
        self._queries_scored = self.registry.counter(
            "logr_http_queries_scored_total",
            "Statements scored across /score and /window.",
        )
        self._latency = self.registry.histogram(
            "logr_http_request_seconds",
            "Request handling wall seconds, by endpoint.",
            labelnames=("endpoint",),
        )
        self._uptime = self.registry.gauge(
            "logr_http_uptime_seconds",
            "Seconds since server construction (set at scrape time).",
        )
        self._started = time.time()

    # ------------------------------------------------------------------
    # profile cache
    # ------------------------------------------------------------------
    def _profile(self, name: str) -> _Profile:
        with self._cache_lock:
            handle = self._cache.get(name)
            if handle is not None:
                self._cache.move_to_end(name)
                return handle
            load_lock = self._load_locks.setdefault(name, threading.Lock())
        # Cold load outside the global lock: reading a large profile and
        # calibrating its monitor can take a while, and requests for
        # already-hot profiles must not stall behind it.
        with load_lock:
            with self._cache_lock:
                handle = self._cache.get(name)
                if handle is not None:
                    self._cache.move_to_end(name)
                    return handle
            latest = self.store.latest(name)  # raises StoreError when unknown
            compressed, log = self.store.load_state(name, latest.version)
            handle = _Profile(
                name=name,
                version=latest.version,
                compressed=compressed,
                log=log,
                threshold_quantile=self.threshold_quantile,
                staleness_threshold=self.staleness_threshold,
                seed=self.seed,
                jobs=self.jobs,
            )
            with self._cache_lock:
                self._cache[name] = handle
                evict = self._pick_evictions()
        for victim in evict:
            self._retire(victim)
        return handle

    def _pick_evictions(self) -> list[_Profile]:  # holds: _cache_lock
        """Over-capacity LRU victims (caller holds the cache lock).

        A handle whose per-profile lock is currently held (an ingest in
        flight) is skipped this round rather than yanked mid-mutation.
        """
        victims: list[_Profile] = []
        if len(self._cache) <= self.cache_profiles:
            return victims
        for name in list(self._cache):
            if len(self._cache) - len(victims) <= self.cache_profiles:
                break
            handle = self._cache[name]
            if handle.lock.locked():
                continue
            victims.append(handle)
            del self._cache[name]
        return victims

    def _retire(self, handle: _Profile) -> None:
        """Persist a victim's unpersisted ingest state before dropping it."""
        with handle.lock:
            if handle.dirty and handle.ingestor is not None:
                self.store.save(
                    handle.name,
                    handle.ingestor.compressed,
                    handle.ingestor.log,
                    note="persisted on cache eviction",
                )
                handle.dirty = False

    def _windowed(self, name: str) -> tuple[WindowedProfile, threading.Lock]:
        """The windowed-pane handle (and its mutation lock) for *name*.

        Handles are tiny (open-pane state only; sealed panes live in
        the store), so they are cached forever rather than LRU-evicted —
        evicting one would silently drop its open pane.  The per-name
        lock serializes pane ingestion; composition reads go straight
        to the store's immutable segments.
        """
        with self._windows_lock:
            entry = self._windows.get(name)
            if entry is None:
                # Existence check before caching: the handle cache has
                # no eviction, so arbitrary client-supplied names must
                # not grow it (a windowed-only tenant may have segments
                # without a stored profile, hence the two probes).
                if not (
                    self.store.has_profile(name) or self.store.segments(name)
                ):
                    raise StoreError(f"unknown profile {name!r}")
                handle = WindowedProfile(
                    self.store,
                    name,
                    pane_statements=self.pane_statements or 1_000,
                    n_clusters=self.pane_clusters,
                    seed=self.seed,
                    jobs=self.jobs,
                )
                entry = (handle, threading.Lock())
                self._windows[name] = entry
        return entry

    def _count(self, endpoint: str, queries: int = 0) -> None:
        self._requests.inc(endpoint=endpoint)
        if queries:
            self._queries_scored.inc(queries)

    def observe_request(self, endpoint: str, seconds: float) -> None:
        """Record one request's handling latency (telemetry only)."""
        self._latency.observe(seconds, endpoint=endpoint)

    # ------------------------------------------------------------------
    # endpoint implementations (return JSON-ready dicts; raise for errors)
    # ------------------------------------------------------------------
    def handle_profiles(self) -> dict:
        """GET /profiles"""
        self._count("profiles")
        entries = []
        for name in self.store.profiles():
            latest = self.store.latest(name)
            entries.append(
                {
                    "name": name,
                    "version": latest.version,
                    "error_bits": latest.error_bits,
                    "verbosity": latest.verbosity,
                    "total_queries": latest.total_queries,
                    "n_components": latest.n_components,
                    "has_state": latest.has_state,
                }
            )
        return {"profiles": entries}

    def handle_profile_detail(self, name: str) -> dict:
        """GET /profiles/<name>"""
        self._count("profile_detail")
        versions = self.store.versions(name)
        return {
            "name": name,
            "current_version": versions[-1].version,
            "versions": [v.to_payload() for v in versions],
        }

    def handle_stats(self) -> dict:
        """GET /stats"""
        # Rebuilt from the registry families; same shape as the old
        # hand-maintained dict (only endpoints actually hit appear, and
        # queries_scored only once something was scored).
        totals = self._requests.items()  # {(endpoint,): value}
        counters = {key[0]: int(value) for key, value in totals.items()}
        queries_scored = self._queries_scored.value()
        if queries_scored:
            counters["queries_scored"] = int(queries_scored)
        with self._cache_lock:
            cached = list(self._cache)
            handles = list(self._cache.values())
        # Per-profile fingerprint-cache counters: how much of /ingest's
        # statement traffic is resolving without touching the parser.
        parse_cache: dict[str, dict] = {}
        for handle in handles:
            if handle.ingestor is not None:
                parse_cache[handle.name] = handle.ingestor.parse_cache_stats
        with self._windows_lock:
            windows = [(name, entry[0]) for name, entry in self._windows.items()]
        for name, windowed in windows:
            parse_cache.setdefault(name, {})["panes"] = windowed.parse_cache_stats
        return {
            "uptime_seconds": time.time() - self._started,
            "requests": counters,
            "hot_profiles": cached,
            "cache_capacity": self.cache_profiles,
            "profiles": self.store.profiles(),
            "parse_cache": parse_cache,
        }

    def render_metrics(self) -> str:
        """GET /metrics — Prometheus text over the merged registries.

        Merges this server's request metrics with the process-default
        registry's library metrics (pipeline, executor, ingest, caches,
        store, panes); family names never collide by construction.
        """
        self._count("metrics")
        self._uptime.set(time.time() - self._started)
        snapshots = self.registry.snapshot() + _metrics.DEFAULT_REGISTRY.snapshot()
        return render_text(snapshots)

    def _score_payload(self, name: str, version: int, threshold, scores) -> dict:
        """One /score response body — shared by both serving transports
        so batched and unbatched responses are byte-identical."""
        return {
            "profile": name,
            "version": version,
            "threshold": _json_float(threshold),
            "scores": [
                {
                    "log2_likelihood": _json_float(s.log2_likelihood),
                    "anomalous": s.anomalous,
                    "reason": s.reason,
                }
                for s in scores
            ],
        }

    def handle_score(self, body: dict) -> dict:
        """POST /score — batched likelihood scoring."""
        (name,) = _require(body, "profile")
        statements = _require_statements(body)
        handle = self._profile(name)
        monitor = handle.monitor  # atomic snapshot read: no lock
        version, threshold = handle.version, monitor.threshold
        scores = monitor.score_batch(statements)
        self._count("score", queries=len(statements))
        return self._score_payload(name, version, threshold, scores)

    def score_coalesced(self, name: str, batches: list[list[str]]) -> list[dict]:
        """Score several /score request batches in ONE vectorized sweep.

        The asyncio front end's micro-batcher: concurrent requests for
        the same profile are concatenated and scored by a single
        :meth:`WorkloadMonitor.score_batch` call against one snapshot,
        then fanned back out per request.  ``score_batch`` computes
        every statement's likelihood row-independently (distinct
        feature sets share one matrix row, scored once), so each
        request's response is bit-identical to what
        :meth:`handle_score` would have returned for it alone against
        the same snapshot.
        """
        handle = self._profile(name)
        flat = [statement for batch in batches for statement in batch]
        monitor = handle.monitor  # one snapshot for the whole flush
        version, threshold = handle.version, monitor.threshold
        scores = monitor.score_batch(flat)
        responses: list[dict] = []
        offset = 0
        for batch in batches:
            chunk = scores[offset:offset + len(batch)]
            offset += len(batch)
            self._count("score", queries=len(batch))
            responses.append(
                self._score_payload(name, version, threshold, chunk)
            )
        return responses

    def _ingest_locked(
        self, name: str, handle: "_Profile", statements: list, persist: bool
    ):  # holds: lock
        """One ingest merge + persist + republish.  Caller holds handle.lock."""
        report = handle.ingestor.ingest_statements(statements)
        version = handle.version
        if persist:
            record = self.store.save(
                name,
                handle.ingestor.compressed,
                handle.ingestor.log,
                note=f"ingest {report.n_encoded} statements",
            )
            version = record.version
            handle.dirty = False
        else:
            handle.dirty = True  # persisted later, on cache eviction
        handle.publish(version)
        return report, version

    def handle_ingest(self, body: dict) -> dict:
        """POST /ingest — merge a mini-batch, persist, republish."""
        (name,) = _require(body, "profile")
        statements = _require_statements(body)
        persist = bool(body.get("persist", True))
        while True:
            handle = self._profile(name)
            if handle.ingestor is None:
                raise ValueError(
                    f"profile {name!r} cannot be incrementally ingested "
                    "(stored without training state, or a refined mixture)"
                )
            handle.lock.acquire()
            # The LRU may have evicted this handle between lookup and
            # lock: ingesting into an orphaned handle would silently
            # drop the batch.  Eviction skips locked handles, so once
            # we hold the lock AND are still the cached handle, we
            # cannot be evicted until we release it.
            with self._cache_lock:
                current = self._cache.get(name) is handle
            if current:
                break
            handle.lock.release()
        try:
            report, version = self._ingest_locked(
                name, handle, statements, persist
            )
        finally:
            handle.lock.release()
        panes_sealed: list[int] = []
        if self.pane_statements is not None:
            # The pane layer re-parses the batch (its panes keep their
            # own codebooks); acceptable on this opt-in path, but a
            # shared extraction handoff would halve ingest parse cost.
            windowed, window_lock = self._windowed(name)
            with window_lock:
                panes_sealed = [
                    record.index for record in windowed.ingest(statements)
                ]
        self._count("ingest")
        return {
            "profile": name,
            "version": version,
            "persisted": persist,
            "panes_sealed": panes_sealed,
            "report": {
                "n_statements": report.n_statements,
                "n_encoded": report.n_encoded,
                "n_skipped": report.n_skipped,
                "n_skipped_procedures": report.n_skipped_procedures,
                "n_skipped_unparseable": report.n_skipped_unparseable,
                "n_batch_distinct": report.n_batch_distinct,
                "n_new_rows": report.n_new_rows,
                "n_new_features": report.n_new_features,
                "error_bits": _json_float(report.error_bits),
                "staleness": _json_float(report.staleness),
                "recompressed": report.recompressed,
                "seconds": report.seconds,
            },
        }

    def handle_drift(self, body: dict) -> dict:
        """POST /drift — batch divergence plus windowed stream reports."""
        (name,) = _require(body, "profile")
        statements = _require_statements(body)
        window_size = int(body.get("window_size", DEFAULT_WINDOW_SIZE))
        threshold = body.get("threshold")
        threshold = None if threshold is None else float(threshold)
        handle = self._profile(name)
        with handle.lock:
            monitor = handle.drift_monitor(window_size, threshold, self.seed)
            windows = monitor.observe_many(statements)
        # Outside the lock: this reads only the monitor's immutable
        # baseline and its thread-safe template cache.
        divergence, batch, n_encoded = monitor.batch_divergence(statements)
        self._count("drift")
        top = []
        if batch is not None:
            top = [
                {
                    "feature": str(d.feature),
                    "baseline_marginal": d.baseline_marginal,
                    "current_marginal": d.current_marginal,
                    "divergence_bits": d.divergence_bits,
                    "direction": d.direction,
                }
                for d in feature_drift(
                    monitor.baseline, batch, top_k=int(body.get("top", 10))
                )
            ]
        return {
            "profile": name,
            "version": handle.version,
            "batch_divergence_bits": _json_float(divergence),
            "batch_drifted": (
                divergence > monitor.threshold if np.isfinite(divergence) else True
            ),
            "threshold": _json_float(monitor.threshold),
            "n_encoded": n_encoded,
            "top_features": top,
            "windows": [
                {
                    "window_index": w.window_index,
                    "n_statements": w.n_statements,
                    "n_encoded": w.n_encoded,
                    "divergence_bits": _json_float(w.divergence_bits),
                    "drifted": w.drifted,
                }
                for w in windows
            ],
        }


    def handle_window(self, body: dict) -> dict:
        """POST /window — compose sealed panes; optionally score a batch.

        Range-scoped workload analytics from maintained summaries: pick
        panes (``last`` N, an explicit ``panes`` list, or everything),
        optionally decay by ``half_life`` and consolidate to
        ``consolidate_to`` components, and answer with the composite's
        measures — plus per-statement log-likelihoods under *that
        window's* workload when ``statements`` are given.
        """
        (name,) = _require(body, "profile")
        statements = _require_statements(body) if "statements" in body else None
        windowed, _ = self._windowed(name)
        last = body.get("last")
        panes = body.get("panes")
        half_life = body.get("half_life")
        consolidate_to = body.get("consolidate_to")
        # One selection drives both the composite and the reported pane
        # list, so the response can never describe panes the composite
        # does not actually contain.
        records = windowed.selected_panes(
            last=None if last is None else int(last), panes=panes
        )
        composite = windowed.compose(
            records,
            half_life=None if half_life is None else float(half_life),
            consolidate_to=None if consolidate_to is None else int(consolidate_to),
        )
        used = [record.index for record in records if record.total > 0]
        response = {
            "profile": name,
            "panes": used,
            "half_life": half_life,
            "total": _json_float(composite.total),
            "n_components": composite.n_components,
            "error_bits": _json_float(composite.error()),
            "verbosity": composite.total_verbosity,
        }
        if statements is not None:
            monitor = WorkloadMonitor(composite, threshold=float("-inf"))
            response["scores"] = [
                {
                    "log2_likelihood": _json_float(score.log2_likelihood),
                    "reason": score.reason,
                }
                for score in monitor.score_batch(statements)
            ]
            self._count("window", queries=len(statements))
        else:
            self._count("window")
        return response

    def handle_timeline(self, body: dict) -> dict:
        """POST /timeline — the per-pane drift/Error series.

        Pure manifest metadata: the queryable upgrade of the scalar
        drift alarm.  No segment file or raw statement is read.
        """
        (name,) = _require(body, "profile")
        windowed, _ = self._windowed(name)
        last = body.get("last")
        records = windowed.timeline(last=None if last is None else int(last))
        if not records:
            raise StoreError(f"profile {name!r} has no sealed panes")
        self._count("timeline")
        return {
            "profile": name,
            "open_statements": windowed.open_statements,
            "panes": [
                {
                    "index": record.index,
                    "created_at": record.created_at,
                    "n_statements": record.n_statements,
                    "n_encoded": record.n_encoded,
                    "total": record.total,
                    "error_bits": (
                        None
                        if record.error_bits is None
                        else _json_float(record.error_bits)
                    ),
                    "verbosity": record.verbosity,
                    "n_components": record.n_components,
                    "divergence_bits": (
                        None
                        if record.divergence_bits is None
                        else _json_float(record.divergence_bits)
                    ),
                    "recompressed": record.recompressed,
                }
                for record in records
            ],
        }


class AnalyticsServer(AnalyticsService):
    """Thread-per-request HTTP transport over :class:`AnalyticsService`.

    The original serving front end: stdlib
    :class:`~http.server.ThreadingHTTPServer`, one daemon thread per
    connection.  Retained as the fallback backend next to the asyncio
    front end (:mod:`repro.service.aserver`); both speak the same JSON
    protocol through the same handlers.

    Args:
        store: the profile store to serve (shared, thread-safe).
        host / port: bind address; port 0 picks a free port.
        **kwargs: forwarded to :class:`AnalyticsService`.
    """

    def __init__(
        self,
        store: SummaryStore,
        host: str = "127.0.0.1",
        port: int = 0,
        **kwargs,
    ):
        super().__init__(store, **kwargs)
        self._httpd = _Httpd((host, port), _make_handler(self))
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the server is bound to."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        """Base URL for a client."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> tuple[str, int]:
        """Serve in a daemon thread; returns the bound address."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI entry point)."""
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop serving and release the socket."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "AnalyticsServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
class _Httpd(ThreadingHTTPServer):
    daemon_threads = True
    # The stdlib default backlog of 5 RSTs connect bursts from a few
    # dozen closed-loop clients (each request is a fresh connection);
    # match the asyncio transport's default of 100.
    request_queue_size = 128


def _require(body: dict, *keys: str):
    values = []
    for key in keys:
        if key not in body:
            raise ValueError(f"request body is missing {key!r}")
        values.append(body[key])
    return values


def _require_statements(body: dict) -> list[str]:
    """The body's ``statements``: present, and a JSON list of strings."""
    (statements,) = _require(body, "statements")
    if not isinstance(statements, list) or not all(
        isinstance(statement, str) for statement in statements
    ):
        raise ValueError("'statements' must be a list of strings")
    return statements


#: Request bodies above this many bytes are refused unread (413) by
#: both transports.
MAX_BODY_BYTES = 8 << 20


class _Refused(Exception):
    """A request both transports refuse without reading its body.

    Answered with :attr:`status` and a closed connection: the stream
    position after the request head is unknown, so keep-alive ends.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _body_length(lengths: list[str], transfer_encoding: bool) -> int:
    """The body length a request's framing headers declare.

    *lengths* holds every ``Content-Length`` value sent.  Raises
    :class:`_Refused` with 400 for framing a keep-alive stream cannot
    recover from — any ``Transfer-Encoding`` (its body would be read as
    the next request), repeated ``Content-Length`` headers, or a value
    that is not a plain non-negative decimal — and with 413 for a body
    over :data:`MAX_BODY_BYTES`.
    """
    bad = "bad request framing: "
    if transfer_encoding:
        raise _Refused(400, bad + "Transfer-Encoding is not supported")
    if len(lengths) > 1:
        raise _Refused(400, bad + "duplicate Content-Length headers")
    value = lengths[0].strip() if lengths else "0"
    if not (value.isascii() and value.isdigit()):
        raise _Refused(400, bad + f"invalid Content-Length {value!r}")
    length = int(value)
    if length > MAX_BODY_BYTES:
        raise _Refused(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    return length


def _json_float(value: float) -> float | str:
    """JSON has no inf/nan literals; encode them as strings."""
    value = float(value)
    if np.isfinite(value):
        return value
    return repr(value)


def _make_handler(service: AnalyticsService):
    """A request-handler class bound to *service*."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body go out as separate segments; without
        # TCP_NODELAY, Nagle + delayed ACK stalls keep-alive clients
        # ~40 ms per request.
        disable_nagle_algorithm = True

        # -- helpers ---------------------------------------------------
        def _send(self, status: int, payload: dict, close: bool = False) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if close:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def _send_text(self, status: int, text: str, content_type: str) -> None:
            body = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _body(self) -> bytes | None:
            """The raw request body, or ``None`` once it was refused.

            Every method reads its body before routing, so no body (of
            a GET, or of a 404) is left on the keep-alive stream to be
            served as the next request.
            """
            try:
                length = _body_length(
                    self.headers.get_all("Content-Length", []),
                    "Transfer-Encoding" in self.headers,
                )
            except _Refused as refused:
                self._send(refused.status, {"error": str(refused)}, close=True)
                return None
            return self.rfile.read(length) if length else b""

        def _dispatch(self, fn, *args, endpoint: str | None = None) -> None:
            watch = Stopwatch()
            try:
                self._send(200, fn(*args))
            except StoreError as exc:
                self._send(404, {"error": str(exc)})
            except (ValueError, KeyError, TypeError) as exc:
                self._send(400, {"error": str(exc)})
            except Exception as exc:  # pragma: no cover - defensive
                self._send(500, {"error": f"{type(exc).__name__}: {exc}"})
            finally:
                # Latency covers every attempt (including error paths);
                # the per-endpoint request counter still counts only
                # successful handling, as /stats always has.
                if endpoint is not None:
                    service.observe_request(endpoint, watch.elapsed())

        def log_message(self, fmt, *args):  # noqa: N802 - stdlib name
            pass  # keep the test/CI output clean

        # -- routes ----------------------------------------------------
        def do_GET(self):  # noqa: N802 - stdlib name
            if self._body() is None:
                return
            path = self.path.rstrip("/")
            if path == "/profiles" or path == "":
                self._dispatch(service.handle_profiles, endpoint="profiles")
            elif path.startswith("/profiles/"):
                name = path[len("/profiles/"):]
                self._dispatch(
                    service.handle_profile_detail,
                    name,
                    endpoint="profile_detail",
                )
            elif path == "/stats":
                self._dispatch(service.handle_stats, endpoint="stats")
            elif path == "/metrics":
                watch = Stopwatch()
                try:
                    text = service.render_metrics()
                except Exception as exc:  # pragma: no cover - defensive
                    self._send(500, {"error": f"{type(exc).__name__}: {exc}"})
                else:
                    self._send_text(200, text, _METRICS_CONTENT_TYPE)
                finally:
                    service.observe_request("metrics", watch.elapsed())
            else:
                self._send(404, {"error": f"unknown endpoint {self.path!r}"})

        def do_POST(self):  # noqa: N802 - stdlib name
            raw = self._body()
            if raw is None:
                return
            routes = {
                "/score": service.handle_score,
                "/ingest": service.handle_ingest,
                "/drift": service.handle_drift,
                "/window": service.handle_window,
                "/timeline": service.handle_timeline,
            }
            path = self.path.rstrip("/")
            fn = routes.get(path)
            if fn is None:
                self._send(404, {"error": f"unknown endpoint {self.path!r}"})
                return
            try:
                body = json.loads(raw.decode("utf-8") or "{}")
                if not isinstance(body, dict):
                    raise ValueError("request body must be a JSON object")
            except (ValueError, json.JSONDecodeError) as exc:
                self._send(400, {"error": f"bad request body: {exc}"})
                return
            self._dispatch(fn, body, endpoint=path.lstrip("/"))

    return Handler


def serve(
    store_root: str | Path,
    host: str = "127.0.0.1",
    port: int = 8080,
    **kwargs,
) -> AnalyticsServer:
    """Build an :class:`AnalyticsServer` over *store_root* (not started)."""
    return AnalyticsServer(SummaryStore(store_root), host=host, port=port, **kwargs)
