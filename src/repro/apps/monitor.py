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
from typing import Hashable, Iterable, Sequence

import numpy as np

from ..core.entropy import safe_log2
from ..core.log import QueryLog
from ..core.mixture import PatternMixtureEncoding
from ..sql import AligonExtractor, SqlError

__all__ = ["QueryScore", "WorkloadMonitor"]

#: Statement → feature-set memo capacity per monitor.  Query logs are
#: hugely repetitive (the paper's PocketData log has 629,582 entries
#: over 605 distinct statements), so memoizing extraction makes
#: steady-state scoring parse-free.
PARSE_MEMO_SIZE = 4096


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
        self.mixture = mixture
        self._extractor = AligonExtractor(remove_constants=True)
        self._parse_cache: OrderedDict[str, frozenset | SqlError] = OrderedDict()
        self._parse_lock = threading.Lock()
        if threshold is not None:
            self.threshold = float(threshold)
        elif training_log is not None:
            scores = self._training_scores(training_log)
            self.threshold = float(np.quantile(scores, threshold_quantile))
        else:
            raise ValueError("need either training_log or an explicit threshold")

    def _training_scores(self, log: QueryLog) -> np.ndarray:
        probabilities = self.mixture.point_probabilities(log.matrix)
        scores = safe_log2(probabilities)
        return np.repeat(scores, log.counts)

    # ------------------------------------------------------------------
    def score_features(self, features: Iterable[Hashable]) -> float:
        """log2 likelihood of a query given as a feature set.

        Features outside the training vocabulary contribute a zero
        marginal in every component, which floors the likelihood.
        """
        vector = self.mixture.vocabulary.encode(features, strict=False)
        probability = self.mixture.point_probability(vector)
        unknown = sum(
            1 for f in features if self.mixture.vocabulary.get(f) is None
        )
        if unknown:
            probability = 0.0
        return float(safe_log2(probability))

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
        merged = self._extract_merged(sql)
        if isinstance(merged, SqlError):
            return QueryScore(sql, float("-inf"), True, f"unparseable: {merged}")
        log2_likelihood = self.score_features(merged)
        anomalous = log2_likelihood < self.threshold
        reason = ""
        if anomalous:
            reason = (
                f"log-likelihood {log2_likelihood:.1f} below threshold "
                f"{self.threshold:.1f}"
            )
        return QueryScore(sql, log2_likelihood, anomalous, reason)

    def scan(self, statements: Iterable[str]) -> list[QueryScore]:
        """Score a stream of statements; returns one entry each."""
        return [self.score(sql) for sql in statements]

    def score_batch(self, statements: Sequence[str]) -> list[QueryScore]:
        """Score a batch with one encode pass and one mixture evaluation.

        The service layer's hot path: instead of ``len(statements)``
        separate mixture evaluations, all parseable statements are
        encoded into one ``(m, n)`` matrix and scored by a single
        :meth:`PatternMixtureEncoding.point_probabilities` sweep.  The
        per-query arithmetic matches :meth:`score` exactly, so results
        are bit-identical to the one-at-a-time loop.
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
