"""Feature vocabulary: the bi-directional query/bit-vector codebook.

§1 of the paper: "LogR-compressed data relies on a codebook based on
structural elements ... This codebook provides a bi-directional mapping
from SQL queries to a bit-vector encoding and back again."

A :class:`Vocabulary` assigns a stable integer index to every feature
observed in a log.  Features are arbitrary hashable objects — SQL
:class:`repro.sql.Feature` pairs for query logs, ``(attribute, value)``
pairs for the Section-8 categorical datasets — so the core library is
agnostic to the feature-extraction scheme (assumption 2 of §2.1).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Vocabulary"]


class Vocabulary:
    """An append-only bijection between features and indices ``0..n-1``."""

    def __init__(self, features: Iterable[Hashable] = ()) -> None:
        self._index: dict[Hashable, int] = {}
        self._features: list[Hashable] = []
        for feature in features:
            self.add(feature)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_feature_sets(cls, feature_sets: Iterable[Iterable[Hashable]]) -> "Vocabulary":
        """Build a vocabulary from an iterable of feature sets.

        Feature order inside each set is canonicalized by sorting on
        ``repr`` so that vocabulary indices are deterministic regardless
        of set iteration order.
        """
        vocab = cls()
        for feature_set in feature_sets:
            for feature in sorted(feature_set, key=repr):
                vocab.add(feature)
        return vocab

    def copy(self) -> "Vocabulary":
        """An independent vocabulary with the same features and indices."""
        clone = Vocabulary()
        clone._index = dict(self._index)
        clone._features = list(self._features)
        return clone

    def add(self, feature: Hashable) -> int:
        """Intern *feature*, returning its index (existing or new)."""
        index = self._index.get(feature)
        if index is None:
            index = len(self._features)
            self._index[feature] = index
            self._features.append(feature)
        return index

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def index(self, feature: Hashable) -> int:
        """Index of *feature*; raises ``KeyError`` when unknown."""
        return self._index[feature]

    def get(self, feature: Hashable) -> int | None:
        """Index of *feature*, or ``None`` when unknown."""
        return self._index.get(feature)

    def feature(self, index: int) -> Hashable:
        """Feature at *index*; raises ``IndexError`` when out of range."""
        return self._features[index]

    def __contains__(self, feature: Hashable) -> bool:
        return feature in self._index

    def __len__(self) -> int:
        return len(self._features)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._features)

    # ------------------------------------------------------------------
    # encoding / decoding
    # ------------------------------------------------------------------
    def encode(self, features: Iterable[Hashable], strict: bool = True) -> np.ndarray:
        """Encode a feature set as a dense 0/1 vector.

        With ``strict=False`` unknown features are silently dropped —
        useful when encoding a held-out query against a frozen codebook.
        """
        vector = np.zeros(len(self._features), dtype=np.uint8)
        for feature in features:
            index = self._index.get(feature)
            if index is None:
                if strict:
                    raise KeyError(f"unknown feature {feature!r}")
                continue
            vector[index] = 1
        return vector

    def encode_indices(self, features: Iterable[Hashable], strict: bool = True) -> frozenset[int]:
        """Encode a feature set as a set of indices."""
        out: set[int] = set()
        for feature in features:
            index = self._index.get(feature)
            if index is None:
                if strict:
                    raise KeyError(f"unknown feature {feature!r}")
                continue
            out.add(index)
        return frozenset(out)

    def decode(self, vector: np.ndarray | Sequence[int]) -> frozenset[Hashable]:
        """Decode a 0/1 vector back into its feature set."""
        vector = np.asarray(vector)
        if vector.shape != (len(self._features),):
            raise ValueError(
                f"vector length {vector.shape} does not match vocabulary size "
                f"{len(self._features)}"
            )
        return frozenset(self._features[i] for i in np.flatnonzero(vector))

    def decode_indices(self, indices: Iterable[int]) -> frozenset[Hashable]:
        """Decode a set of feature indices back into features."""
        return frozenset(self._features[i] for i in indices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Vocabulary({len(self._features)} features)"
