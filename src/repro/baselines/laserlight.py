"""Laserlight (El Gebaly, Agrawal, Golab, Korn, Srivastava; VLDB 2014).

Laserlight summarizes a multi-dimensional dataset ``D`` augmented with
a binary attribute ``A``: it greedily mines a set of patterns whose
coverage structure best *predicts* ``v(t)``, the binary value of each
tuple.  The paper uses it as the first state-of-the-art comparison
point (§7.2, §8); its PostgreSQL implementation is request-only, so
this is a from-scratch reimplementation of the published algorithm:

* the summary is a set of patterns, each carrying the average outcome
  of the tuples it covers; the *most specific* covering pattern
  provides the estimate ``u_E(t)`` (the empty root pattern, always
  present, provides the global average as the fallback);
* **Laserlight Error** is the total binary KL divergence
  ``Σ_t v(t)·log(v(t)/u(t)) + (1−v(t))·log((1−v(t))/(1−u(t)))``;
* the search heuristically samples candidate patterns from the lattice
  (the published default of 16 samples per step, Appendix D.1) and
  greedily adds the best error reducer.

Two knobs reproduce the paper's environment: ``max_features=100``
re-imposes the PostgreSQL 100-argument cap (§7.2.1 "Dimensionality
Restriction"), selecting the top features by entropy (Appendix D.1);
and :func:`naive_laserlight_error` evaluates the naive-encoding
reference of §8.1.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._clock import Stopwatch
from .._rng import ensure_rng
from ..core import kernels
from ..core.entropy import bernoulli_entropy
from ..core.log import QueryLog
from ..core.pattern import Pattern

__all__ = [
    "LaserlightSummary",
    "Laserlight",
    "laserlight_error",
    "naive_laserlight_error",
    "top_entropy_features",
]

_EPS = 1e-12


def _binary_kl_terms(v: np.ndarray, u: np.ndarray, weights: np.ndarray) -> float:
    """Weighted Σ v log(v/u) + (1-v) log((1-v)/(1-u)) in bits."""
    u = np.clip(u, _EPS, 1.0 - _EPS)
    out = np.zeros_like(v)
    mask = v > 0
    out[mask] += v[mask] * (np.log2(v[mask]) - np.log2(u[mask]))
    mask = v < 1
    out[mask] += (1.0 - v[mask]) * (np.log2(1.0 - v[mask]) - np.log2(1.0 - u[mask]))
    return float((weights * out).sum())


@dataclass
class LaserlightSummary:
    """A fitted Laserlight summary: ordered patterns with outcome rates."""

    patterns: list[Pattern]
    rates: list[float]  # average v(t) over each pattern's cover
    global_rate: float
    error: float  # Laserlight Error of the final summary (bits)
    history: list[float] = field(default_factory=list)  # error after each add
    fit_seconds: float = 0.0

    @property
    def verbosity(self) -> int:
        return len(self.patterns)

    def estimate(self, matrix: np.ndarray) -> np.ndarray:
        """``u_E(t)`` per row: most-specific covering pattern's rate."""
        n, n_features = matrix.shape
        masks = kernels.contains_many(
            kernels.pack_rows(matrix),
            kernels.pack_patterns([p.indices for p in self.patterns], n_features),
        )
        estimates = np.full(n, self.global_rate)
        specificity = np.zeros(n, dtype=int)
        for pattern, rate, mask in zip(self.patterns, self.rates, masks):
            better = mask & (len(pattern) >= specificity)
            estimates[better] = rate
            specificity[better] = len(pattern)
        return estimates


class Laserlight:
    """Greedy Laserlight summarizer over a weighted binary dataset.

    Args:
        n_patterns: summary size to mine.
        n_samples: candidate patterns sampled per greedy step (paper
            default 16).
        max_features: optional cap re-imposing the 100-argument limit;
            features are selected by entropy (Appendix D.1).
        max_pattern_size: largest candidate pattern (in features).
        seed: RNG seed or generator.
    """

    def __init__(
        self,
        n_patterns: int = 15,
        n_samples: int = 16,
        max_features: int | None = 100,
        max_pattern_size: int = 3,
        seed: int | np.random.Generator | None = None,
    ):
        if n_patterns < 0:
            raise ValueError("n_patterns must be non-negative")
        self.n_patterns = n_patterns
        self.n_samples = n_samples
        self.max_features = max_features
        self.max_pattern_size = max_pattern_size
        self._rng = ensure_rng(seed)

    def fit(self, log: QueryLog, outcomes: np.ndarray) -> LaserlightSummary:
        """Mine a summary of *log* predicting the per-row *outcomes*.

        *outcomes* holds ``v(t) ∈ [0, 1]`` per distinct row (fractional
        values arise when duplicate rows disagree on the class).
        """
        watch = Stopwatch()
        matrix = log.matrix
        weights = log.counts.astype(float)
        outcomes = np.asarray(outcomes, dtype=float)
        if outcomes.shape != (matrix.shape[0],):
            raise ValueError("outcomes must align with the log's distinct rows")

        feature_subset: np.ndarray | None = None
        if self.max_features is not None and log.n_features > self.max_features:
            feature_subset = top_entropy_features(log, self.max_features)
            matrix = matrix[:, feature_subset]
        cover = _Containment(matrix)

        total_weight = weights.sum()
        global_rate = float((weights * outcomes).sum() / total_weight)
        summary = LaserlightSummary([], [], global_rate, 0.0)
        local_patterns: list[Pattern] = []  # in subset coordinates
        error = _binary_kl_terms(
            outcomes, np.full(matrix.shape[0], global_rate), weights
        )
        summary.history.append(error)

        for _ in range(self.n_patterns):
            # Re-derive u_E(t) from the whole summary each step: model
            # inference cost grows with the summary, which is what makes
            # the original's runtime superlinear in the pattern count
            # (Fig. 7a) — an intentional fidelity choice, not an
            # optimization oversight.
            estimates, specificity = self._estimates_from(
                cover, local_patterns, summary.rates, global_rate
            )
            best = self._best_candidate(
                cover, weights, outcomes, estimates, specificity
            )
            if best is None:
                break
            pattern, rate, mask, new_error = best
            local_patterns.append(pattern)
            summary.patterns.append(self._globalize(pattern, feature_subset))
            summary.rates.append(rate)
            error = new_error
            summary.history.append(error)
        summary.error = error
        summary.fit_seconds = watch.elapsed()
        return summary

    @staticmethod
    def _estimates_from(
        cover: "_Containment",
        patterns: list[Pattern],
        rates: list[float],
        global_rate: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """u_E(t) and covering-pattern specificity for the full summary."""
        n = cover.matrix.shape[0]
        estimates = np.full(n, global_rate)
        specificity = np.zeros(n, dtype=int)
        for pattern, rate, mask in zip(patterns, rates, cover.masks(patterns)):
            better = mask & (len(pattern) >= specificity)
            estimates[better] = rate
            specificity[better] = len(pattern)
        return estimates, specificity

    # ------------------------------------------------------------------
    def _best_candidate(
        self,
        cover: "_Containment",
        weights: np.ndarray,
        outcomes: np.ndarray,
        estimates: np.ndarray,
        specificity: np.ndarray,
    ):
        """Sample candidates; return (pattern, rate, mask, error) or None."""
        rng = self._rng
        matrix = cover.matrix
        total_weight = weights.sum()
        best = None
        best_error = _binary_kl_terms(outcomes, estimates, weights)
        for _ in range(self.n_samples):
            row = int(rng.integers(matrix.shape[0]))
            support = np.flatnonzero(matrix[row])
            if support.size == 0:
                continue
            size = int(rng.integers(1, min(self.max_pattern_size, support.size) + 1))
            chosen = rng.choice(support, size=size, replace=False)
            pattern = Pattern(int(i) for i in chosen)
            mask = cover.mask(pattern)
            cover_weight = weights[mask].sum()
            if cover_weight <= 0 or cover_weight >= total_weight:
                continue
            rate = float((weights[mask] * outcomes[mask]).sum() / cover_weight)
            better = mask & (len(pattern) >= specificity)
            trial = estimates.copy()
            trial[better] = rate
            error = _binary_kl_terms(outcomes, trial, weights)
            if error < best_error - 1e-12:
                best_error = error
                best = (pattern, rate, mask, error)
        return best

    @staticmethod
    def _globalize(pattern: Pattern, feature_subset: np.ndarray | None) -> Pattern:
        if feature_subset is None:
            return pattern
        return Pattern(int(feature_subset[i]) for i in pattern.indices)


class _Containment:
    """Containment oracle over one (possibly column-subset) matrix.

    Packs the rows once so every subsequent pattern test is a bitwise
    AND/compare sweep.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.n_features = matrix.shape[1]
        self._packed = kernels.pack_rows(matrix)

    def mask(self, pattern: Pattern) -> np.ndarray:
        return kernels.contains(
            self._packed, kernels.pack_indices(pattern.indices, self.n_features)
        )

    def masks(self, patterns: list[Pattern]) -> np.ndarray:
        """``(k, m)`` containment masks for a whole summary at once."""
        if not patterns:
            return np.empty((0, self.matrix.shape[0]), dtype=bool)
        return kernels.contains_many(
            self._packed,
            kernels.pack_patterns([p.indices for p in patterns], self.n_features),
        )


def laserlight_error(
    log: QueryLog, outcomes: np.ndarray, summary: LaserlightSummary
) -> float:
    """Laserlight Error of *summary* on (*log*, *outcomes*), in bits."""
    estimates = summary.estimate(log.matrix)
    return _binary_kl_terms(
        np.asarray(outcomes, dtype=float), estimates, log.counts.astype(float)
    )


def naive_laserlight_error(log: QueryLog, outcomes: np.ndarray) -> float:
    """Laserlight Error of the naive encoding — the paper's exact formula.

    §8.1.1: the naive encoding predicts the global positive rate ``u``
    regardless of the tuple, so its error is
    ``−|D|·(u log u + (1−u) log(1−u)) = |D|·H(u)`` bits.  For crisp
    outcomes this equals the zero-pattern Laserlight Error; for
    fractional ``v(t)`` (merged duplicate tuples) it exceeds it by the
    irreducible per-tuple entropy ``Σ_t H(v(t))``, matching the paper's
    accounting rather than the KL form.
    """
    weights = log.counts.astype(float)
    outcomes = np.asarray(outcomes, dtype=float)
    total = weights.sum()
    u = float((weights * outcomes).sum() / total)
    if u <= 0.0 or u >= 1.0:
        return 0.0
    return float(-total * (u * np.log2(u) + (1.0 - u) * np.log2(1.0 - u)))


def top_entropy_features(log: QueryLog, k: int) -> np.ndarray:
    """Indices of the *k* features with highest marginal entropy.

    Appendix D.1: "features are ranked by entropy H(X_i)" to fit the
    100-argument PostgreSQL limit.
    """
    marginals = log.feature_marginals()
    entropies = bernoulli_entropy(marginals)
    order = np.argsort(-entropies, kind="stable")
    return np.sort(order[:k])
