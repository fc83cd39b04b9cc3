"""The query log abstraction: a bag of feature vectors.

§2.3.1 defines the information content of a log as the distribution
``p(Q | L)`` of queries drawn uniformly from the log.  Because target
statistics are order-independent (§1), :class:`QueryLog` stores the
log as a *distinct-row matrix plus multiplicities* — the same
information as the bag, at a fraction of the memory (the PocketData log
has 629,582 entries but only 605 distinct queries).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

import numpy as np

from . import kernels
from .entropy import entropy
from .pattern import Pattern
from .vocabulary import Vocabulary

if TYPE_CHECKING:  # runtime import would cycle: colstore imports QueryLog
    from .colstore import ColumnarLog

__all__ = ["QueryLog", "LogBuilder"]


class QueryLog:
    """An immutable bag of encoded queries over a shared vocabulary.

    Attributes:
        vocabulary: the feature codebook (shared across partitions).
        matrix: ``(n_distinct, n_features)`` 0/1 array of distinct rows.
        counts: multiplicity of each distinct row; ``counts.sum()`` is
            the total number of log entries ``|L|``.

    Pattern containment and support counting run on the packed uint64
    bitset kernels of :mod:`repro.core.kernels` (exact integer
    arithmetic over lazily built, cached row and column bitsets).
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        matrix: np.ndarray,
        counts: np.ndarray | Sequence[int],
    ) -> None:
        matrix = np.ascontiguousarray(np.asarray(matrix, dtype=np.uint8))
        counts = np.asarray(counts, dtype=np.int64)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        if matrix.shape[1] != len(vocabulary):
            raise ValueError(
                f"matrix width {matrix.shape[1]} does not match vocabulary size "
                f"{len(vocabulary)}"
            )
        if counts.shape != (matrix.shape[0],):
            raise ValueError("counts must have one entry per distinct row")
        if (counts <= 0).any():
            raise ValueError("multiplicities must be positive")
        self.vocabulary = vocabulary
        self.matrix = matrix
        self.counts = counts
        self._packed: np.ndarray | None = None
        self._columns: np.ndarray | None = None
        self._tally: np.ndarray | None = None

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        """Total number of log entries, ``|L|``."""
        return int(self.counts.sum())

    @property
    def n_distinct(self) -> int:
        """Number of distinct queries."""
        return self.matrix.shape[0]

    @property
    def n_features(self) -> int:
        """Vocabulary size ``n``."""
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return self.total

    @property
    def packed(self) -> np.ndarray:
        """``(n_distinct, ceil(n/64))`` uint64 bitset rows (lazy, cached)."""
        if self._packed is None:
            self._packed = kernels.pack_rows(self.matrix)
        return self._packed

    @property
    def packed_columns(self) -> np.ndarray:
        """``(n_features, ceil(m/64))`` per-feature tidsets (lazy, cached)."""
        if self._columns is None:
            self._columns = kernels.pack_columns(self.matrix)
        return self._columns

    @property
    def _byte_tally(self) -> np.ndarray:
        """Weighted-popcount table over ``counts`` (lazy, cached)."""
        if self._tally is None:
            self._tally = kernels.weighted_byte_tally(self.counts)
        return self._tally

    # ------------------------------------------------------------------
    # distributional views
    # ------------------------------------------------------------------
    def probabilities(self) -> np.ndarray:
        """``p(q | L)`` for each distinct row: counts / |L|."""
        return self.counts / self.total

    def entropy(self) -> float:
        """H(ρ*): entropy (bits) of the true query distribution."""
        return entropy(self.probabilities())

    def feature_marginals(self) -> np.ndarray:
        """``p(X_i = 1)`` for every feature — the naive-encoding map."""
        weights = self.probabilities()
        return weights @ self.matrix

    def feature_support(self) -> np.ndarray:
        """Indices of features appearing in at least one query."""
        return np.flatnonzero(self.matrix.any(axis=0))

    def pattern_mask(self, pattern: Pattern) -> np.ndarray:
        """Boolean mask of distinct rows containing *pattern*."""
        return kernels.contains(
            self.packed, kernels.pack_indices(pattern.indices, self.n_features)
        )

    def pattern_marginal(self, pattern: Pattern) -> float:
        """True marginal ``p(Q ⊇ b | L)`` of *pattern* (§2.3.1)."""
        return self.pattern_count(pattern) / self.total

    def pattern_count(self, pattern: Pattern) -> int:
        """True count ``Γ_b(L) = |{q ∈ L : b ⊆ q}|`` (§6.2)."""
        return int(self.pattern_counts([pattern])[0])

    def pattern_counts(self, patterns: Sequence[Pattern]) -> np.ndarray:
        """Batched ``Γ_b(L)`` for many patterns in one kernel sweep."""
        if not len(patterns):
            return np.zeros(0, dtype=np.int64)
        return kernels.support_counts(
            self.packed_columns, self._byte_tally, [p.indices for p in patterns]
        )

    def pattern_marginals(self, patterns: Sequence[Pattern]) -> np.ndarray:
        """Batched ``p(Q ⊇ b | L)`` for many patterns."""
        return self.pattern_counts(patterns) / self.total

    def average_features_per_query(self) -> float:
        """Mean feature-set size weighted by multiplicity (Table 1)."""
        row_sizes = self.matrix.sum(axis=1)
        return float((self.counts * row_sizes).sum() / self.total)

    # ------------------------------------------------------------------
    # partitioning
    # ------------------------------------------------------------------
    def partition(self, labels: np.ndarray | Sequence[int]) -> list["QueryLog"]:
        """Split into sub-logs by a per-distinct-row label array.

        Empty clusters are dropped; the result is ordered by label.
        All partitions share this log's vocabulary.
        """
        labels = np.asarray(labels)
        if labels.shape != (self.n_distinct,):
            raise ValueError("labels must have one entry per distinct row")
        partitions = []
        for label in np.unique(labels):
            mask = labels == label
            partitions.append(
                QueryLog(self.vocabulary, self.matrix[mask], self.counts[mask])
            )
        return partitions

    def subset(self, row_indices: np.ndarray | Sequence[int]) -> "QueryLog":
        """Sub-log containing the given distinct rows."""
        row_indices = np.asarray(row_indices, dtype=int)
        return QueryLog(
            self.vocabulary, self.matrix[row_indices], self.counts[row_indices]
        )

    def project(self, feature_indices: np.ndarray | Sequence[int]) -> "QueryLog":
        """Project onto a feature subset (used by Laserlight's 100-col cap).

        The projected log keeps one row per distinct *projected* vector,
        merging multiplicities, and gets a fresh vocabulary containing
        only the selected features.
        """
        feature_indices = np.asarray(feature_indices, dtype=int)
        reduced = self.matrix[:, feature_indices]
        new_vocab = Vocabulary(self.vocabulary.feature(i) for i in feature_indices)
        merged = _merge_duplicates(reduced, self.counts)
        return QueryLog(new_vocab, merged[0], merged[1])

    # ------------------------------------------------------------------
    # equality (used heavily by tests)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryLog):
            return NotImplemented
        if self.n_features != other.n_features:
            return False
        ours = _row_multiset(self.matrix, self.counts)
        theirs = _row_multiset(other.matrix, other.counts)
        return ours == theirs

    def __hash__(self) -> int:  # pragma: no cover - logs are dict keys rarely
        return hash(frozenset(_row_multiset(self.matrix, self.counts).items()))

    def __repr__(self) -> str:
        return (
            f"QueryLog(total={self.total}, distinct={self.n_distinct}, "
            f"features={self.n_features})"
        )


def _row_multiset(matrix: np.ndarray, counts: np.ndarray) -> dict[bytes, int]:
    out: dict[bytes, int] = {}
    for row, count in zip(matrix, counts):
        key = row.tobytes()
        out[key] = out.get(key, 0) + int(count)
    return out


def _merge_duplicates(matrix: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse duplicate rows, summing multiplicities.

    Preserves first-occurrence order and the ``(0, n)`` shape of an
    empty input (the old per-row loop returned a ``(0,)`` array that
    broke downstream ``matrix[:, cols]`` indexing).
    """
    return kernels.merge_duplicate_rows(matrix, counts)


class LogBuilder:
    """Accumulates feature sets into a :class:`QueryLog`.

    Typical use::

        builder = LogBuilder()
        for sql in statements:
            for feature_set in extractor.extract(sql):
                builder.add(feature_set)
        log = builder.build()

    With *spill_dir* set the builder runs in spill mode: whenever the
    in-memory bag reaches *spill_rows* distinct rows it is sorted and
    flushed to disk as one run (:func:`repro.core.colstore.spill_run`),
    so peak RSS is bounded by the spill budget instead of the log's
    distinct-row count.  A spilled builder finalizes with
    :meth:`build_columnar` (a k-way merge over the sorted runs); plain
    :meth:`build` works whenever nothing has spilled.
    """

    def __init__(
        self,
        vocabulary: Vocabulary | None = None,
        spill_dir: "str | Path | None" = None,
        spill_rows: int = 65536,
    ) -> None:
        if spill_rows < 1:
            raise ValueError("spill_rows must be >= 1")
        self.vocabulary = vocabulary or Vocabulary()
        self._counts: dict[frozenset[int], int] = {}
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._spill_rows = int(spill_rows)
        self._runs: list[Path] = []
        self._spilled_entries = 0

    def add(self, features: Iterable[Hashable], count: int = 1) -> None:
        """Add one query (as a feature set) *count* times."""
        if count <= 0:
            raise ValueError("count must be positive")
        indices = frozenset(self.vocabulary.add(f) for f in sorted(features, key=repr))
        self._counts[indices] = self._counts.get(indices, 0) + count
        self._maybe_spill()

    def add_encoded(self, indices: frozenset[int], count: int = 1) -> None:
        """Add a query already resolved to vocabulary index form.

        The fast path for callers that memoize the interning of
        repeated templates (e.g. :func:`repro.workloads.logio.
        load_log`): equivalent to :meth:`add` with the features at
        *indices*, minus the per-call sort and dict probes.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if indices and max(indices) >= len(self.vocabulary):
            raise ValueError("index row references features beyond the vocabulary")
        self._counts[indices] = self._counts.get(indices, 0) + count
        self._maybe_spill()

    def __len__(self) -> int:
        return sum(self._counts.values()) + self._spilled_entries

    def _maybe_spill(self) -> None:
        if self._spill_dir is not None and len(self._counts) >= self._spill_rows:
            self._spill()

    def _spill(self) -> None:
        from . import colstore

        items = [
            (tuple(sorted(key)), count) for key, count in self._counts.items()
        ]
        items.sort(key=lambda kv: kv[0])
        assert self._spill_dir is not None
        self._runs.append(colstore.spill_run(self._spill_dir, items, len(self._runs)))
        self._spilled_entries += sum(count for _, count in items)
        self._counts.clear()

    def build_columnar(
        self, path: "str | Path", chunk_rows: int | None = None
    ) -> "ColumnarLog":
        """Finalize the bag as an on-disk :class:`~repro.core.colstore.
        ColumnarLog` at *path*.

        Streams a k-way merge of the spilled runs plus the in-memory
        remainder into fixed-size chunks, reproducing exactly the
        global row order (and duplicate-count accumulation) of
        :meth:`build` — ``build_columnar(p).to_query_log()`` equals
        ``build()`` bit for bit.  Peak RSS is bounded by the chunk /
        spill budget.  Finalizing consumes the builder's accumulated
        rows (spilled runs are deleted).
        """
        from . import colstore

        if chunk_rows is None:
            chunk_rows = (
                self._spill_rows
                if self._spill_dir is not None
                else colstore.DEFAULT_CHUNK_ROWS
            )
        if not self._counts and not self._runs:
            raise ValueError("cannot build an empty log")
        tail = [(tuple(sorted(key)), count) for key, count in self._counts.items()]
        tail.sort(key=lambda kv: kv[0])
        runs: list[Iterable[tuple[tuple[int, ...], int]]] = [
            colstore.iter_run(stem) for stem in self._runs
        ]
        runs.append(tail)
        writer = colstore.ColumnarLogWriter(
            path, self.vocabulary, chunk_rows=chunk_rows
        )
        writer.extend(colstore.merge_runs(runs))
        log = writer.close()
        if self._spill_dir is not None:
            colstore.remove_runs(self._spill_dir)
        self._counts = {}
        self._runs = []
        self._spilled_entries = 0
        return log

    def build(self) -> QueryLog:
        """Materialize the accumulated bag as a :class:`QueryLog`.

        Rows keep their historical sorted order (by sorted index set);
        the matrix is filled with one vectorized index-array assignment
        instead of a per-row/per-index Python loop.
        """
        if self._runs:
            raise ValueError(
                "builder has spilled runs to disk; finalize with build_columnar()"
            )
        n = len(self.vocabulary)
        if not self._counts:
            raise ValueError("cannot build an empty log")
        items = sorted(self._counts.items(), key=lambda kv: sorted(kv[0]))
        n_rows = len(items)
        counts = np.fromiter(
            (count for _, count in items), dtype=np.int64, count=n_rows
        )
        lengths = np.fromiter(
            (len(indices) for indices, _ in items), dtype=np.int64, count=n_rows
        )
        cols = np.fromiter(
            (i for indices, _ in items for i in indices),
            dtype=np.int64,
            count=int(lengths.sum()),
        )
        matrix = np.zeros((n_rows, n), dtype=np.uint8)
        matrix[np.repeat(np.arange(n_rows), lengths), cols] = 1
        return QueryLog(self.vocabulary, matrix, counts)
