"""Pattern-based encodings of a query log (§2.3).

A *pattern-based encoding* ``E`` is a partial map from patterns to
their marginals ``p(Q ⊇ b | L)``; its *Verbosity* ``|E|`` is the number
of mapped patterns.  Two concrete classes:

* :class:`PatternEncoding` — an explicit pattern → marginal dictionary
  (what Laserlight / MTV produce, and what Fig. 4 enumerates);
* :class:`NaiveEncoding` — the one-feature-per-pattern special case
  (§3.2) stored densely as a marginal vector, because the whole LogR
  pipeline (clustering, Error, estimation) operates on it in closed
  form.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

from .entropy import independent_entropy
from .log import QueryLog
from .pattern import Pattern

__all__ = ["PatternEncoding", "NaiveEncoding", "naive_encoding"]


class PatternEncoding:
    """An explicit partial mapping from patterns to marginals."""

    def __init__(self, n_features: int, mapping: Mapping[Pattern, float] | None = None) -> None:
        if n_features < 0:
            raise ValueError("n_features must be non-negative")
        self.n_features = n_features
        self._map: dict[Pattern, float] = {}
        if mapping:
            for pattern, marginal in mapping.items():
                self.add(pattern, marginal)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_log(cls, log: QueryLog, patterns: Iterable[Pattern]) -> "PatternEncoding":
        """Encode *log* with the given pattern set (true marginals)."""
        encoding = cls(log.n_features)
        for pattern in patterns:
            encoding.add(pattern, log.pattern_marginal(pattern))
        return encoding

    def add(self, pattern: Pattern, marginal: float) -> None:
        """Map *pattern* to *marginal* (must lie in [0, 1])."""
        if not 0.0 <= marginal <= 1.0 + 1e-12:
            raise ValueError(f"marginal {marginal} outside [0, 1]")
        if any(i >= self.n_features for i in pattern.indices):
            raise ValueError("pattern references features beyond n_features")
        self._map[pattern] = float(min(marginal, 1.0))

    # ------------------------------------------------------------------
    # mapping behaviour
    # ------------------------------------------------------------------
    def __getitem__(self, pattern: Pattern) -> float:
        return self._map[pattern]

    def get(self, pattern: Pattern, default: float | None = None) -> float | None:
        return self._map.get(pattern, default)

    def __contains__(self, pattern: Pattern) -> bool:
        return pattern in self._map

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self._map)

    def items(self) -> Iterator[tuple[Pattern, float]]:
        return iter(self._map.items())

    def patterns(self) -> list[Pattern]:
        return list(self._map)

    @property
    def verbosity(self) -> int:
        """|E|: the number of mapped patterns (§2.3.1)."""
        return len(self._map)

    def __len__(self) -> int:
        return len(self._map)

    # ------------------------------------------------------------------
    # lattice relations (§4.2)
    # ------------------------------------------------------------------
    def subset_of(self, other: "PatternEncoding") -> bool:
        """Syntactic containment: every mapped pattern appears in *other*
        with the same marginal.  ``E1 ⊇ E2`` implies ``E1 ≤Ω E2``.
        """
        for pattern, marginal in self._map.items():
            theirs = other.get(pattern)
            if theirs is None or abs(theirs - marginal) > 1e-9:
                return False
        return True

    def union(self, other: "PatternEncoding") -> "PatternEncoding":
        """Encoding mapping the patterns of both operands.

        Marginal conflicts (same pattern, different value) raise —
        encodings of the same log never conflict.
        """
        if self.n_features != other.n_features:
            raise ValueError("encodings cover different feature spaces")
        merged = PatternEncoding(self.n_features, dict(self._map))
        for pattern, marginal in other.items():
            existing = merged.get(pattern)
            if existing is not None and abs(existing - marginal) > 1e-9:
                raise ValueError(f"conflicting marginals for {pattern}")
            merged.add(pattern, marginal)
        return merged

    def difference(self, other: "PatternEncoding") -> "PatternEncoding":
        """Encoding of the patterns in ``self`` but not ``other`` (E2 \\ E1)."""
        remaining = {
            pattern: marginal
            for pattern, marginal in self._map.items()
            if pattern not in other
        }
        return PatternEncoding(self.n_features, remaining)

    def __repr__(self) -> str:
        return f"PatternEncoding(verbosity={self.verbosity}, n_features={self.n_features})"


class NaiveEncoding:
    """The naive encoding: every singleton feature pattern (§3.2).

    Stored as the dense marginal vector ``p(X_i = 1)``.  Verbosity
    counts only the features that actually occur (non-zero marginal),
    matching the paper's definition of naive encodings and the
    verbosity accounting of §5.2 / Fig. 2b.
    """

    def __init__(self, marginals: np.ndarray) -> None:
        marginals = np.asarray(marginals, dtype=float)
        if marginals.ndim != 1:
            raise ValueError("marginals must be a vector")
        if ((marginals < -1e-12) | (marginals > 1 + 1e-12)).any():
            raise ValueError("marginals must lie in [0, 1]")
        self.marginals = np.clip(marginals, 0.0, 1.0)

    @classmethod
    def from_log(cls, log: QueryLog) -> "NaiveEncoding":
        """The naive encoding of *log*: its feature-marginal vector."""
        return cls(log.feature_marginals())

    # ------------------------------------------------------------------
    @property
    def n_features(self) -> int:
        return self.marginals.shape[0]

    @property
    def support(self) -> np.ndarray:
        """Indices of features with non-zero marginal."""
        return np.flatnonzero(self.marginals > 0)

    @property
    def verbosity(self) -> int:
        """Number of non-zero-marginal singleton patterns."""
        return int((self.marginals > 0).sum())

    def feature_marginal(self, index: int) -> float:
        """``E[f_i]``: marginal of the i-th singleton pattern."""
        return float(self.marginals[index])

    # ------------------------------------------------------------------
    # closed-form maxent facts (eq. 1 and §6.2)
    # ------------------------------------------------------------------
    def maxent_entropy(self) -> float:
        """H(ρ_E) under independence: Σ h(p_i) bits."""
        return independent_entropy(self.marginals)

    def pattern_probability(self, pattern: Pattern) -> float:
        """``ρ_S(Q ⊇ b) = Π_{i∈b} p_i`` under the maxent distribution."""
        if not pattern.indices:
            return 1.0
        cols = sorted(pattern.indices)
        return float(np.prod(self.marginals[cols]))

    def point_probability(self, vector: np.ndarray) -> float:
        """``ρ_E(q) = Π p_i^{x_i} (1-p_i)^{1-x_i}`` (paper eq. 1)."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != self.marginals.shape:
            raise ValueError("vector length must match feature count")
        p = self.marginals
        terms = np.where(vector > 0, p, 1.0 - p)
        return float(np.prod(terms))

    def as_pattern_encoding(self) -> PatternEncoding:
        """Explicit singleton-pattern view (for measure machinery)."""
        encoding = PatternEncoding(self.n_features)
        for index in self.support:
            encoding.add(Pattern.singleton(int(index)), float(self.marginals[index]))
        return encoding

    def __repr__(self) -> str:
        return f"NaiveEncoding(verbosity={self.verbosity}, n_features={self.n_features})"


def naive_encoding(log: QueryLog) -> NaiveEncoding:
    """Convenience alias for :meth:`NaiveEncoding.from_log`."""
    return NaiveEncoding.from_log(log)
