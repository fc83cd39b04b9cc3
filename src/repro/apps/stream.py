"""Streaming workload monitoring with windowed drift detection (§2, §5).

Production monitoring (§2 "Online Database Monitoring") watches a
*stream* of statements.  :class:`repro.apps.monitor.WorkloadMonitor`
scores one query at a time; this module adds the aggregate layer: the
stream is sliced into tumbling panes of ``window_size`` statements,
each pane is re-encoded against the baseline codebook, and the pane's
naive mixture is diffed against the baseline summary
(:func:`repro.core.diff.mixture_divergence`).  A sustained divergence
above the calibrated threshold signals workload drift that per-query
scoring can miss (many individually-plausible queries whose *mix* is
wrong).

The monitor keeps a *queryable drift timeline*, not just the latest
alarm: every completed pane's report (divergence, per-pane Error,
encode counts) is retained and served by :meth:`StreamingDriftMonitor.
timeline`.  Batches are split **at pane boundaries** — when a batch
straddles a rollover, the statements that fit the open pane close it
and only the remainder is accounted to the next pane, so the first
drift score after a rollover reflects exactly its own pane's traffic
(attributing the whole straddling batch to the new pane would smear
pre-boundary statements into it and skew that score).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.diff import mixture_divergence
from ..core.featurecache import FeatureCache
from ..core.log import LogBuilder, QueryLog
from ..core.mixture import PatternMixtureEncoding
from ..sql import AligonExtractor, SqlError

__all__ = ["WindowReport", "StreamingDriftMonitor"]


@dataclass
class WindowReport:
    """Divergence assessment of one completed window (pane)."""

    window_index: int
    n_statements: int
    n_encoded: int
    divergence_bits: float
    drifted: bool
    threshold: float
    #: The pane's own Reproduction Error (bits): how much structure its
    #: naive summary loses.  ``None`` for an all-garbage pane.
    error_bits: float | None = None

    def __str__(self) -> str:
        flag = "DRIFT" if self.drifted else "ok"
        return (
            f"window {self.window_index}: {self.divergence_bits:.4f} bits "
            f"({self.n_encoded}/{self.n_statements} encoded) [{flag}]"
        )


class StreamingDriftMonitor:
    """Sliding-window divergence monitor over a statement stream.

    Args:
        baseline: the typical-workload mixture (with vocabulary).
        window_size: statements per evaluation window.
        threshold: drift threshold in bits; when ``None`` it is
            calibrated as ``calibration_factor ×`` the divergence of a
            bootstrap window drawn from the baseline itself.
        baseline_log: the baseline's encoded log, needed for
            auto-calibration.
        calibration_factor: multiplier over the self-divergence noise
            floor (default 10×).
        seed: RNG seed for calibration bootstrap.

    Statements are encoded through a fingerprint cache
    (:mod:`repro.core.featurecache`): a statement whose template was
    seen before skips the SQL parser.
    """

    def __init__(
        self,
        baseline: PatternMixtureEncoding,
        window_size: int = 500,
        threshold: float | None = None,
        baseline_log: QueryLog | None = None,
        calibration_factor: float = 10.0,
        seed: int | np.random.Generator | None = None,
    ):
        if baseline.vocabulary is None:
            raise ValueError("baseline mixture has no vocabulary attached")
        if window_size < 10:
            raise ValueError("window_size must be at least 10")
        self.baseline = baseline
        self.window_size = window_size
        self._cache = FeatureCache(AligonExtractor(remove_constants=True))
        self._buffer: list[frozenset] = []
        self._pending_raw = 0
        self._window_index = 0
        self.reports: list[WindowReport] = []
        if threshold is not None:
            self.threshold = float(threshold)
        else:
            if baseline_log is None:
                raise ValueError("auto-calibration needs baseline_log")
            self.threshold = self._calibrate(
                baseline_log, calibration_factor, seed
            )

    # ------------------------------------------------------------------
    def _calibrate(
        self,
        baseline_log: QueryLog,
        factor: float,
        seed: int | np.random.Generator | None,
    ) -> float:
        """Noise floor: divergence of bootstrap windows from the baseline."""
        from .._rng import ensure_rng

        rng = ensure_rng(seed)
        probabilities = baseline_log.probabilities()
        divergences = []
        for _ in range(5):
            rows = rng.choice(
                baseline_log.n_distinct, size=self.window_size, p=probabilities
            )
            unique, counts = np.unique(rows, return_counts=True)
            window_log = QueryLog(
                baseline_log.vocabulary,
                baseline_log.matrix[unique],
                counts,
            )
            window_mixture = PatternMixtureEncoding.from_log(window_log)
            divergences.append(
                mixture_divergence(self.baseline, window_mixture)
            )
        return float(np.mean(divergences) * factor)

    # ------------------------------------------------------------------
    def observe(self, statement: str) -> WindowReport | None:
        """Feed one statement; returns a report when a window completes."""
        reports = self.observe_many([statement])
        return reports[0] if reports else None

    def observe_many(self, statements) -> list[WindowReport]:
        """Feed a batch; returns the reports of every completed window.

        The batch is split at pane boundaries: with R statements of
        window budget left, exactly the first R close the open pane and
        the remainder is accounted to the next one(s) — a batch larger
        than ``window_size`` closes several.  Feeding one big batch is
        therefore report-for-report identical to feeding the same
        statements one at a time.
        """
        statements = list(statements)
        reports = []
        position = 0
        while position < len(statements):
            room = self.window_size - self._pending_raw
            chunk = statements[position : position + room]
            position += len(chunk)
            self._pending_raw += len(chunk)
            self._buffer.extend(self._encode(chunk))
            if self._pending_raw >= self.window_size:
                reports.append(self._close_window())
        return reports

    def batch_divergence(
        self, statements
    ) -> tuple[float, PatternMixtureEncoding | None, int]:
        """``(divergence_bits, mixture, n_encoded)`` of the whole batch as
        one window, computed as a pane's report is, without touching
        pane state; templates just fed to :meth:`observe_many` come from
        the cache, not the parser."""
        encoded = self._encode(statements)
        divergence, mixture = self._summarize(encoded)
        return divergence, mixture, len(encoded)

    def _encode(self, statements) -> list[frozenset]:
        """Merged feature sets of the parseable *statements* (garbage is
        dropped); repeated templates come straight from the cache."""
        encoded = []
        for statement in statements:
            try:
                encoded.append(self._cache.extract_merged(statement))
            except SqlError:
                pass
        return encoded

    def _summarize(
        self, encoded: list[frozenset]
    ) -> tuple[float, PatternMixtureEncoding | None]:
        """Divergence from the baseline of the window *encoded* forms,
        and that window's naive mixture (``inf`` and ``None`` when the
        window is pure garbage)."""
        if not encoded:
            return float("inf"), None
        builder = LogBuilder(self.baseline.vocabulary.copy())
        for features in encoded:
            builder.add(features)
        mixture = PatternMixtureEncoding.from_log(builder.build())
        return mixture_divergence(self.baseline, mixture), mixture

    def timeline(self) -> list[WindowReport]:
        """Every completed pane's report, oldest first.

        The queryable drift series this monitor maintains — the
        in-memory analogue of the store-backed ``/timeline`` endpoint
        (:mod:`repro.service.windows` persists panes across restarts).
        """
        return list(self.reports)

    def _close_window(self) -> WindowReport:
        n_statements = self._pending_raw
        encoded = self._buffer
        self._buffer = []
        self._pending_raw = 0
        self._window_index += 1
        divergence, mixture = self._summarize(encoded)
        report = WindowReport(
            window_index=self._window_index,
            n_statements=n_statements,
            n_encoded=len(encoded),
            divergence_bits=divergence,
            drifted=divergence > self.threshold,
            threshold=self.threshold,
            error_bits=None if mixture is None else mixture.error(),
        )
        self.reports.append(report)
        return report
