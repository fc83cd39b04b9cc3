"""Online workload monitoring / anomaly detection (§2, §5).

"To support real-time monitoring it is necessary to quickly compute the
frequency of a particular class of query in the system's typical
workload."  The monitor holds a LogR mixture of the *typical* workload
and scores incoming queries by their likelihood under the mixture
(§5.2's ``ρ_S(q) = Σ w_i ρ_Si(q)``).  Queries far less likely than the
typical range — e.g. injected analyst queries in an OLTP-only service
account, the §5 intrusion-detection motivation — raise alerts.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.entropy import safe_log2
from ..core.log import QueryLog
from ..core.mixture import PatternMixtureEncoding
from ..obs.trace import span as _span
from ..sql import AligonExtractor, SqlError

__all__ = ["QueryScore", "WorkloadMonitor"]

#: Statement → feature-set memo capacity per monitor.  Query logs are
#: hugely repetitive (the paper's PocketData log has 629,582 entries
#: over 605 distinct statements), so memoizing extraction makes
#: steady-state scoring parse-free.
PARSE_MEMO_SIZE = 4096


def check_threshold_quantile(quantile: float) -> None:
    """Refuse an alert-threshold quantile outside [0, 1] (or NaN)."""
    if not 0.0 <= quantile <= 1.0:  # NaN fails both
        raise ValueError(f"threshold quantile must lie in [0, 1], got {quantile}")


def _repeated_quantile(values: np.ndarray, counts: np.ndarray, q: float) -> float:
    """``np.quantile(np.repeat(values, counts), q)``, bit for bit, without
    building the repeated array.

    NumPy's default (linear) method over the ``N = Σ counts`` repeated
    values: the virtual index ``(N - 1) · q``, its floor and the next
    index (both clamped to the last element, with gamma still measured
    from NumPy's clamped index -1), and ``_lerp``'s two branches.  The
    cumulative counts of the sorted distinct values give the value at a
    repeated index.
    """
    order = np.argsort(values, kind="stable")
    ends = np.cumsum(counts[order])
    last = int(ends[-1]) - 1
    virtual = last * np.float64(q)
    if virtual >= last:
        below = above = last
        gamma = virtual + 1.0
    else:
        below = int(np.floor(virtual))
        above = below + 1
        gamma = virtual - below
    a, b = values[order[np.searchsorted(ends, (below, above), side="right")]]
    difference = b - a
    if gamma >= 0.5:
        return float(b - difference * (1 - gamma))
    return float(a + difference * gamma)


@dataclass
class QueryScore:
    """Assessment of one incoming query."""

    sql: str
    log2_likelihood: float  # log2 ρ_S(q); -inf when unparseable
    anomalous: bool
    reason: str = ""


class WorkloadMonitor:
    """Scores queries against a compressed typical-workload profile.

    Args:
        mixture: the LogR mixture profiling normal behaviour (must
            carry a vocabulary).
        training_log: the encoded log the mixture was built from; used
            to calibrate the alert threshold.  May be ``None`` when an
            explicit *threshold* is given instead (e.g. a profile loaded
            from a store without its training state).
        threshold_quantile: the alert threshold is calibrated so this
            fraction of the *training* log scores as normal.
        threshold: explicit log2-likelihood alert threshold, bypassing
            calibration.
    """

    def __init__(
        self,
        mixture: PatternMixtureEncoding,
        training_log: QueryLog | None = None,
        threshold_quantile: float = 0.001,
        threshold: float | None = None,
    ):
        if mixture.vocabulary is None:
            raise ValueError("mixture has no vocabulary attached")
        check_threshold_quantile(threshold_quantile)
        self.mixture = mixture
        self._extractor = AligonExtractor(remove_constants=True)
        self._parse_cache: OrderedDict[str, frozenset | SqlError] = OrderedDict()
        self._parse_lock = threading.Lock()
        if threshold is not None:
            self.threshold = float(threshold)
        elif training_log is not None:
            self.threshold = self._calibrate(training_log, threshold_quantile)
        else:
            raise ValueError("need either training_log or an explicit threshold")

    def _calibrate(self, log: QueryLog, quantile: float) -> float:
        """The *quantile* of the training log's scores, one per query."""
        with _span(
            "monitor.calibrate",
            rows=log.n_distinct,
            components=self.mixture.n_components,
        ):
            scores = safe_log2(self.mixture.point_probabilities(log.matrix))
            return _repeated_quantile(scores, log.counts, quantile)

    # ------------------------------------------------------------------
    def _extract_merged(self, sql: str) -> frozenset | SqlError:
        """Merged feature set of *sql* (memoized), or its parse error."""
        with self._parse_lock:
            hit = self._parse_cache.get(sql)
            if hit is not None:
                self._parse_cache.move_to_end(sql)
                return hit
        try:
            result: frozenset | SqlError = self._extractor.extract_merged(sql)
        except SqlError as exc:
            result = exc
        with self._parse_lock:
            self._parse_cache[sql] = result
            while len(self._parse_cache) > PARSE_MEMO_SIZE:
                self._parse_cache.popitem(last=False)
        return result

    def score(self, sql: str) -> QueryScore:
        """Parse and score one SQL statement."""
        return self.score_batch([sql])[0]

    def scan(self, statements: Iterable[str]) -> list[QueryScore]:
        """Score a stream of statements; returns one entry each."""
        return self.score_batch(list(statements))

    def score_batch(self, statements: Sequence[str]) -> list[QueryScore]:
        """Score a batch with one encode pass and one mixture evaluation.

        The only scoring path (:meth:`score` and :meth:`scan` wrap it):
        all parseable statements are encoded into one ``(m, n)`` matrix
        and scored by a single
        :meth:`PatternMixtureEncoding.point_probabilities` sweep.  That
        kernel scores every row independently, so a statement's result
        does not depend on the rest of its batch.  Features outside the
        mixture's vocabulary, or interned after it was built, floor the
        likelihood to zero.
        """
        n = self.mixture.components[0].encoding.n_features
        vocabulary = self.mixture.vocabulary
        # Distinct feature sets only: repeated statements (the common
        # case in query logs) share one matrix row and one score.
        rows: dict[frozenset, int] = {}
        assignment: list[tuple[int, int]] = []  # (output position, row)
        results: list[QueryScore | None] = []
        for sql in statements:
            merged = self._extract_merged(sql)
            if isinstance(merged, SqlError):
                results.append(
                    QueryScore(sql, float("-inf"), True, f"unparseable: {merged}")
                )
                continue
            row = rows.setdefault(merged, len(rows))
            assignment.append((len(results), row))
            results.append(None)  # placeholder filled from the batch sweep
        if rows:
            matrix = np.zeros((len(rows), n), dtype=np.uint8)
            unknown = np.zeros(len(rows), dtype=bool)
            for features, row in rows.items():
                for feature in features:
                    index = vocabulary.get(feature)
                    # An index past the encoding width means the codebook
                    # grew after this mixture was built: unknown here.
                    if index is None or index >= n:
                        unknown[row] = True
                    else:
                        matrix[row, index] = 1
            probabilities = self.mixture.point_probabilities(matrix)
            probabilities[unknown] = 0.0
            scores = safe_log2(probabilities)
            for position, row in assignment:
                log2_likelihood = float(scores[row])
                anomalous = log2_likelihood < self.threshold
                reason = ""
                if anomalous:
                    reason = (
                        f"log-likelihood {log2_likelihood:.1f} below threshold "
                        f"{self.threshold:.1f}"
                    )
                results[position] = QueryScore(
                    statements[position], log2_likelihood, anomalous, reason
                )
        return results  # type: ignore[return-value]
