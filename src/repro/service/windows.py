"""Time-windowed workload profiles: mergeable pane summaries.

The store's profiles answer "what does this workload look like overall";
this module answers "what did it look like *when*".  A
:class:`WindowedProfile` slices a tenant's statement stream into
**tumbling panes** of a fixed statement budget.  The open pane is
maintained exactly by an :class:`repro.service.ingest.
IncrementalIngestor` (compress the first parseable chunk, then O(batch)
merges); when the budget is spent the pane is *sealed* — its compressed
mixture is persisted as an append-only segment in the
:class:`repro.service.store.SummaryStore`, with per-pane Error,
Verbosity and JS-drift against the previous pane recorded in the
manifest.

Sealed panes are never re-read as statements; everything downstream is
summary algebra (:mod:`repro.core.mixture`):

* ``window(last=N)`` — the sliding composite of the last N panes, an
  exact :meth:`PatternMixtureEncoding.merged` (vocabulary union +
  component concatenation), optionally ``consolidated(K)``;
* ``window(half_life=H)`` — the exponentially decayed composite,
  ``merged([pane.scaled(0.5 ** (age / H))])``, where a pane's age is
  its distance in panes from the newest;
* ``timeline()`` — the per-pane drift/Error series straight from the
  manifest (no segment file, let alone raw SQL, is touched);
* ``recompress_cold(K)`` — consolidate sealed panes' components down to
  K in parallel across panes (the executor layer), trimming the
  Verbosity of cold history without changing pane identity.

Batches that straddle a pane boundary are split *at* the boundary: the
statements that fit the open pane seal it, the remainder opens the next
pane — so the first drift reading after a rollover reflects only the
new pane's traffic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._rng import ensure_rng
from ..core.diff import mixture_divergence
from ..core.executor import executor_for, spawn_generators
from ..core.featurecache import FeatureCache
from ..core.mixture import PatternMixtureEncoding
from ..obs import metrics as _metrics
from ..sql import AligonExtractor
from ..workloads.logio import load_log
from .ingest import IncrementalIngestor
from .store import PaneSegment, StoreError, SummaryStore

__all__ = ["WindowedProfile"]

# Telemetry only (see repro.obs): pane-seal events across every
# windowed profile in the process, split by whether the pane carried a
# summary or was pure garbage.
_PANES_SEALED = _metrics.counter(
    "logr_panes_sealed_total",
    "Windowed panes sealed into store segments, by content.",
    labelnames=("content",),
)


def _consolidate_pane(
    payload: tuple[PatternMixtureEncoding, int, int, np.random.Generator]
) -> PatternMixtureEncoding:
    """Consolidate one sealed pane's mixture; module-level so process
    executors can pickle it by reference (spawn-safe payload)."""
    mixture, n_clusters, n_init, rng = payload
    consolidated, _ = mixture.consolidated(n_clusters, n_init=n_init, seed=rng)
    return consolidated


class WindowedProfile:
    """Tumbling-pane maintenance and windowed composition for one tenant.

    Args:
        store: the profile store holding this tenant's pane segments.
        name: tenant/profile name (shares the store's namespace).
        pane_statements: raw statements per pane (the tumbling budget;
            unparseable statements spend budget too, mirroring
            :class:`repro.apps.stream.StreamingDriftMonitor`).
        n_clusters: components fitted per pane (clamped to the pane's
            distinct rows).
        method / metric / n_init: clustering knobs for the per-pane
            compression (§6.1).
        seed: RNG seed for pane compressions and consolidations.
        jobs: worker count for pane compressions and
            :meth:`recompress_cold`; 1 runs the serial loop, more a
            pool of worker processes.

    Pane ingestion shares one :class:`~repro.core.featurecache.
    FeatureCache` across *all* panes (templates are
    codebook-independent), so a template parsed in pane 0 never hits
    the parser again in pane 400; each pane keeps its own index-row
    cache.

    The open pane lives in memory; sealed panes live in the store.  A
    process restart loses at most the open pane's partial statements —
    sealed history, and the drift timeline over it, are durable.
    """

    def __init__(
        self,
        store: SummaryStore,
        name: str,
        pane_statements: int = 1_000,
        n_clusters: int = 4,
        method: str = "kmeans",
        metric: str = "euclidean",
        n_init: int = 10,
        seed: int | np.random.Generator | None = 0,
        jobs: int = 1,
    ):
        if pane_statements < 1:
            raise ValueError("pane_statements must be >= 1")
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        self.store = store
        self.name = name
        self.pane_statements = pane_statements
        self.n_clusters = n_clusters
        self.method = method
        self.metric = metric
        self.n_init = n_init
        self.jobs = jobs
        self._feature_cache = FeatureCache(AligonExtractor())
        self._rng = ensure_rng(seed)
        # Composition and cold recompression must be *pure reads*:
        # identical queries return identical summaries, however many
        # requests ran before and from whichever server thread.  They
        # therefore use a fixed seed derived once here, never the shared
        # (mutating, unsynchronized) generator that paces ingestion.
        self._compose_seed = int(self._rng.integers(2**31 - 1))
        # Open-pane state.
        self._ingestor: IncrementalIngestor | None = None
        self._pane_offered = 0  # raw statements routed to the open pane
        self._pane_encoded = 0  # statements merged into the open pane
        self._bootstrap: list[str] = []  # buffered until one chunk parses
        # Newest sealed non-empty pane's mixture (drift reference);
        # loaded lazily from the store after a restart.
        self._previous: PatternMixtureEncoding | None = None
        self._previous_loaded = False

    # ------------------------------------------------------------------
    # ingestion: route batches to the current pane, splitting on rollover
    # ------------------------------------------------------------------
    def ingest(self, statements: Sequence[str]) -> list[PaneSegment]:
        """Feed a statement batch; returns the panes it sealed (if any).

        The batch is split at pane boundaries: with R statements of
        budget left, the first R go to the open pane (sealing it), the
        rest roll into fresh panes — a batch larger than
        ``pane_statements`` can seal several.
        """
        statements = list(statements)
        sealed: list[PaneSegment] = []
        position = 0
        while position < len(statements):
            room = self.pane_statements - self._pane_offered
            chunk = statements[position : position + room]
            position += len(chunk)
            self._feed(chunk)
            if self._pane_offered >= self.pane_statements:
                record = self.roll(note="pane budget spent")
                assert record is not None
                sealed.append(record)
        return sealed

    def _feed(self, chunk: list[str]) -> None:
        """Merge one within-pane chunk into the open pane's summary."""
        self._pane_offered += len(chunk)
        if self._ingestor is None:
            # No summary yet: the pane opens on its first parseable
            # chunk.  Buffered statements are re-offered so nothing is
            # lost when an all-garbage prefix delays the bootstrap.
            self._bootstrap.extend(chunk)
            try:
                log, report = load_log(
                    self._bootstrap, feature_cache=self._feature_cache
                )
            except ValueError:
                return  # still nothing parseable; keep buffering
            self._ingestor = IncrementalIngestor.from_log(
                log,
                n_clusters=self.n_clusters,
                method=self.method,
                metric=self.metric,
                n_init=self.n_init,
                seed=self._rng.spawn(1)[0],
                jobs=self.jobs,
                feature_cache=self._feature_cache,
            )
            self._pane_encoded += report.usable
            self._bootstrap = []
        else:
            report = self._ingestor.ingest_statements(chunk)
            self._pane_encoded += report.n_encoded

    def roll(self, note: str = "") -> PaneSegment | None:
        """Seal the open pane (persist its segment); ``None`` when empty.

        Called automatically when the pane budget is spent; call it
        directly to close a pane early (end of day, shutdown).
        """
        if self._pane_offered == 0:
            return None
        if self._ingestor is not None:
            mixture = self._ingestor.compressed.mixture
            divergence = (
                mixture_divergence(self._previous_mixture(), mixture)
                if self._previous_mixture() is not None
                else None
            )
            record = self.store.append_segment(
                self.name,
                mixture.to_payload(),
                n_statements=self._pane_offered,
                n_encoded=self._pane_encoded,
                total=int(mixture.total),
                error_bits=mixture.error(),
                verbosity=mixture.total_verbosity,
                n_components=mixture.n_components,
                divergence_bits=divergence,
                note=note,
            )
            self._previous = mixture
            self._previous_loaded = True
            _PANES_SEALED.inc(content="summary")
        else:
            # A pane of pure garbage: the timeline records it (budget
            # was spent) but there is no summary to persist or diff.
            record = self.store.append_segment(
                self.name,
                None,
                n_statements=self._pane_offered,
                n_encoded=0,
                total=0,
                error_bits=None,
                verbosity=0,
                n_components=0,
                divergence_bits=None,
                note=note,
            )
            _PANES_SEALED.inc(content="empty")
        self._ingestor = None
        self._pane_offered = 0
        self._pane_encoded = 0
        self._bootstrap = []
        return record

    def _previous_mixture(self) -> PatternMixtureEncoding | None:
        """Newest sealed non-empty pane's mixture (store-backed)."""
        if not self._previous_loaded:
            self._previous_loaded = True
            for segment in reversed(self.store.segments(self.name)):
                if segment.total > 0:
                    payload = self.store.read_segment(self.name, segment.index)
                    self._previous = PatternMixtureEncoding.from_payload(
                        payload["mixture"]
                    )
                    break
        return self._previous

    # ------------------------------------------------------------------
    # open-pane introspection
    # ------------------------------------------------------------------
    @property
    def open_statements(self) -> int:
        """Raw statements buffered in the (unsealed) open pane."""
        return self._pane_offered

    @property
    def parse_cache_stats(self) -> dict:
        """The shared template cache's counters."""
        return {
            "templates": self._feature_cache.stats.to_payload(),
            "cached_templates": len(self._feature_cache),
        }

    # ------------------------------------------------------------------
    # composition: the windowed summary algebra, end to end
    # ------------------------------------------------------------------
    def panes(self) -> list[PaneSegment]:
        """Sealed panes, oldest first (manifest metadata only)."""
        return self.store.segments(self.name)

    def pane_mixture(self, index: int) -> PatternMixtureEncoding | None:
        """One sealed pane's mixture (``None`` for an empty pane)."""
        payload = self.store.read_segment(self.name, index)["mixture"]
        return None if payload is None else PatternMixtureEncoding.from_payload(payload)

    def selected_panes(
        self,
        last: int | None = None,
        panes: Sequence[int] | None = None,
    ) -> list[PaneSegment]:
        """Resolve a pane selection: newest *last*, explicit *panes*
        indices, or everything — validated against the sealed history."""
        if last is not None and panes is not None:
            raise ValueError("give either last or panes, not both")
        records = self.panes()
        if panes is not None:
            wanted = set(int(i) for i in panes)
            records = [r for r in records if r.index in wanted]
            if len(records) != len(wanted):
                missing = wanted - {r.index for r in records}
                raise StoreError(
                    f"profile {self.name!r} has no pane(s) {sorted(missing)}"
                )
        elif last is not None:
            if last < 1:
                raise ValueError("last must be >= 1")
            records = records[-last:]
        return records

    def compose(
        self,
        records: Sequence[PaneSegment],
        half_life: float | None = None,
        consolidate_to: int | None = None,
    ) -> PatternMixtureEncoding:
        """Compose the given sealed panes into one summary — pure
        mixture algebra over their stored mixtures.

        Raises :class:`~repro.service.store.StoreError` when *records*
        holds no non-empty pane.
        """
        if half_life is not None and not half_life > 0:
            raise ValueError("half_life must be > 0")
        loaded = [
            (record.index, self.pane_mixture(record.index))
            for record in records
            if record.total > 0
        ]
        if not loaded:
            raise StoreError(
                f"profile {self.name!r} has no sealed panes to compose"
            )
        if half_life is not None:
            newest = max(index for index, _ in loaded)
            mixtures = []
            for index, mixture in loaded:
                factor = 0.5 ** ((newest - index) / half_life)
                # A pane old enough to underflow to weight 0.0 has
                # nothing left to contribute: drop it rather than feed
                # scaled() an invalid factor.  The newest pane (age 0,
                # factor 1) always survives.
                if factor > 0.0:
                    mixtures.append(mixture.scaled(factor))
        else:
            mixtures = [mixture for _, mixture in loaded]
        composite = PatternMixtureEncoding.merged(mixtures)
        if consolidate_to is not None:
            composite, _ = composite.consolidated(
                consolidate_to,
                n_init=self.n_init,
                seed=ensure_rng(self._compose_seed),
            )
        return composite

    def window(
        self,
        last: int | None = None,
        panes: Sequence[int] | None = None,
        half_life: float | None = None,
        consolidate_to: int | None = None,
    ) -> PatternMixtureEncoding:
        """Compose sealed panes into one summary — pure mixture algebra.

        Args:
            last: use only the newest *last* panes (default: all).
            panes: explicit pane indices instead of *last*.
            half_life: exponentially decay panes by age —
                ``scaled(0.5 ** (age / half_life))`` with age counted in
                panes from the newest selected — before merging.
            consolidate_to: exactly merge near-duplicate components
                down to K after composition.

        Raises :class:`~repro.service.store.StoreError` when the
        selection holds no non-empty pane.
        """
        return self.compose(
            self.selected_panes(last=last, panes=panes),
            half_life=half_life,
            consolidate_to=consolidate_to,
        )

    def timeline(self, last: int | None = None) -> list[PaneSegment]:
        """The per-pane drift/Error series, newest-last.

        Manifest metadata only: answering "how did the workload evolve"
        costs zero segment reads and zero raw statements.
        """
        records = self.panes()
        if last is not None:
            if last < 1:
                raise ValueError("last must be >= 1")
            records = records[-last:]
        return records

    # ------------------------------------------------------------------
    # cold-pane maintenance (rides the executor layer)
    # ------------------------------------------------------------------
    def recompress_cold(self, consolidate_to: int) -> list[PaneSegment]:
        """Consolidate sealed panes' components down to *consolidate_to*.

        Pane fits are per-chunk, so a sealed pane can carry more
        components than its history deserves; consolidation merges
        near-duplicates *exactly* (:meth:`PatternMixtureEncoding.
        consolidated`), trimming Verbosity at unchanged pane identity.
        Panes are independent, so they consolidate concurrently across
        the profile's ``jobs`` workers — per-pane RNG children are
        pre-spawned in pane order, keeping results bit-identical at any
        worker count.
        Returns the rewritten segment records.
        """
        if consolidate_to < 1:
            raise ValueError("consolidate_to must be >= 1")
        candidates = [
            record
            for record in self.panes()
            if record.total > 0 and record.n_components > consolidate_to
        ]
        if not candidates:
            return []
        children = spawn_generators(
            ensure_rng(self._compose_seed), len(candidates)
        )
        tasks = [
            (self.pane_mixture(record.index), consolidate_to, self.n_init, child)
            for record, child in zip(candidates, children)
        ]
        with executor_for(self.jobs) as runner:
            consolidated = runner.map(_consolidate_pane, tasks)
        rewritten = []
        for record, mixture in zip(candidates, consolidated):
            rewritten.append(
                self.store.rewrite_segment(
                    self.name,
                    record.index,
                    mixture.to_payload(),
                    error_bits=mixture.error(),
                    verbosity=mixture.total_verbosity,
                    n_components=mixture.n_components,
                )
            )
        return rewritten

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WindowedProfile(name={self.name!r}, "
            f"pane_statements={self.pane_statements}, "
            f"sealed={len(self.panes())}, open={self._pane_offered})"
        )
