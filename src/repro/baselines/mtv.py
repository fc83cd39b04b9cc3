"""MTV (Mampaey, Vreeken, Tatti; TKDD 2012).

MTV mines "the most informative itemsets": a pattern set whose maximum
entropy model best describes binary data under a Bayesian Information
Criterion.  The paper uses it as the second state-of-the-art comparator
(§7.2, §8) and reports two practical walls we reproduce deliberately:
a hard limit near **15 patterns** (inference over the maxent model
blows up — our equivalence-class machinery is exponential in the
pattern count, §4.5 of the MTV paper), and superlinear runtime in the
pattern count (Fig. 7b).

The **MTV Error** measure follows §8.1.1 of the LogR paper:

    ``|D| · H(ρ*) + ½ · |E| · log |D|``

where ``H(ρ*)`` is the entropy of the fitted maxent model (for a naive
encoding this is the sum of feature entropies) and the second term is
the BIC penalty on verbosity.  Lower is better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .._clock import Stopwatch
from .._rng import ensure_rng
from ..core.encoding import PatternEncoding
from ..core.entropy import bernoulli_entropy, safe_log2
from ..core.log import QueryLog
from ..core.maxent import fit_pattern_encoding
from ..core.mining import frequent_patterns
from ..core.pattern import Pattern

__all__ = ["MtvSummary", "MTV", "mtv_error", "naive_mtv_error", "MTV_PATTERN_LIMIT"]

#: The paper "experienced a limitation of 15 patterns in configuring"
#: MTV; we enforce the same ceiling by default.
MTV_PATTERN_LIMIT = 15


@dataclass
class MtvSummary:
    """A fitted MTV summary: itemsets, their supports, and the model."""

    encoding: PatternEncoding
    model_entropy: float  # H(ρ*) of the fitted maxent model, bits
    error: float  # MTV Error (BIC-penalized), bits
    history: list[float] = field(default_factory=list)
    fit_seconds: float = 0.0

    @property
    def patterns(self) -> list[Pattern]:
        return self.encoding.patterns()

    @property
    def verbosity(self) -> int:
        return self.encoding.verbosity


class MTV:
    """Greedy most-informative-itemset miner with BIC scoring.

    Args:
        n_patterns: itemsets to mine (capped at
            :data:`MTV_PATTERN_LIMIT` unless ``enforce_limit=False``).
        min_support: Apriori support threshold for the candidate pool
            (the LogR paper uses 0.05, Appendix D.2).
        max_pattern_size: largest candidate itemset.
        beam: candidates exactly re-scored per greedy step (the rest
            are pruned by the support×divergence heuristic).
        enforce_limit: raise beyond 15 patterns, like the original
            implementation quits.
        seed: RNG seed or generator (tie-breaking only).
    """

    def __init__(
        self,
        n_patterns: int = 10,
        min_support: float = 0.05,
        max_pattern_size: int = 3,
        beam: int = 12,
        enforce_limit: bool = True,
        seed: int | np.random.Generator | None = None,
    ):
        if enforce_limit and n_patterns > MTV_PATTERN_LIMIT:
            raise ValueError(
                f"MTV cannot mine more than {MTV_PATTERN_LIMIT} patterns "
                "(the original implementation quits with an error)"
            )
        self.n_patterns = n_patterns
        self.min_support = min_support
        self.max_pattern_size = max_pattern_size
        self.beam = beam
        self._rng = ensure_rng(seed)

    def fit(self, log: QueryLog) -> MtvSummary:
        """Mine the most informative itemsets of *log*."""
        watch = Stopwatch()
        candidates = frequent_patterns(
            log,
            min_support=self.min_support,
            max_size=self.max_pattern_size,
            min_size=2,
        )
        encoding = PatternEncoding(log.n_features)
        model = fit_pattern_encoding(encoding)
        history = [_bic_error(log, model.entropy(), 0)]
        pool = list(candidates)
        for _ in range(self.n_patterns):
            if not pool:
                break
            scored = self._heuristic_ranking(log, encoding, pool)
            best_error = history[-1]
            best_choice = None
            for _, pattern, support in scored[: self.beam]:
                trial = PatternEncoding(log.n_features, dict(encoding.items()))
                trial.add(pattern, support)
                trial_model = fit_pattern_encoding(trial)
                error = _bic_error(log, trial_model.entropy(), trial.verbosity)
                if error < best_error - 1e-12:
                    best_error = error
                    best_choice = (pattern, support)
            if best_choice is None:
                break
            pattern, support = best_choice
            encoding.add(pattern, support)
            pool = [(p, s) for p, s in pool if p != pattern]
            history.append(best_error)
        model = fit_pattern_encoding(encoding)
        entropy = model.entropy()
        summary = MtvSummary(
            encoding=encoding,
            model_entropy=entropy,
            error=_bic_error(log, entropy, encoding.verbosity),
            history=history,
        )
        summary.fit_seconds = watch.elapsed()
        return summary

    # ------------------------------------------------------------------
    def _heuristic_ranking(
        self,
        log: QueryLog,
        encoding: PatternEncoding,
        pool: list[tuple[Pattern, float]],
    ) -> list[tuple[float, Pattern, float]]:
        """Rank candidates by support × |log-divergence from the model|.

        This is MTV's pruning heuristic: an itemset whose frequency the
        current model already predicts carries no new information.
        """
        model = fit_pattern_encoding(encoding)
        scored: list[tuple[float, Pattern, float]] = []
        for pattern, support in pool:
            predicted = _model_pattern_probability(model, encoding, pattern)
            divergence = abs(float(safe_log2(support)) - float(safe_log2(predicted)))
            scored.append((support * divergence, pattern, support))
        scored.sort(key=lambda item: -item[0])
        return scored


def _model_pattern_probability(model, encoding: PatternEncoding, pattern: Pattern) -> float:
    """P(Q ⊇ b) under the class-based maxent model (cheap approximation).

    Exact computation would need the class machinery rebuilt per
    candidate; the standard MTV heuristic instead multiplies the
    containment probabilities of the encoding patterns that intersect
    ``b`` and an independent ½ per uncovered feature, which is exact
    when ``b`` is disjoint from the encoding.
    """
    covered: set[int] = set()
    probability = 1.0
    for enc_pattern, profile_prob in _pattern_class_probs(model, encoding):
        if enc_pattern.indices <= pattern.indices:
            probability *= profile_prob
            covered |= enc_pattern.indices
    free = len(pattern.indices - covered)
    probability *= 0.5**free
    return probability


def _pattern_class_probs(model, encoding: PatternEncoding):
    """(pattern, P(contains pattern)) pairs from a fitted class model."""
    profiles = model.classes.profiles
    probs = np.exp(model.class_log_probs)
    for j, pattern in enumerate(encoding.patterns()):
        if profiles.shape[0]:
            contained = float(probs[profiles[:, j] > 0].sum())
        else:
            contained = 0.0
        yield pattern, max(contained, 1e-12)


def _bic_error(log: QueryLog, model_entropy_bits: float, verbosity: int) -> float:
    """``|D|·H(ρ*) + ½·|E|·log2|D|`` (§8.1.1), in bits."""
    return log.total * model_entropy_bits + 0.5 * verbosity * math.log2(max(log.total, 2))


def mtv_error(log: QueryLog, summary: MtvSummary) -> float:
    """MTV Error of a fitted summary on *log*."""
    return _bic_error(log, summary.model_entropy, summary.verbosity)


def naive_mtv_error(log: QueryLog) -> float:
    """MTV Error of the naive encoding (§8.1.1).

    ``H(ρ*)`` of the naive encoding is the sum of feature entropies;
    its verbosity is the feature count with non-zero marginal.
    """
    marginals = log.feature_marginals()
    entropy = float(np.sum(bernoulli_entropy(marginals)))
    verbosity = int((marginals > 0).sum())
    return _bic_error(log, entropy, verbosity)
