"""Packed-bitset kernels for the pattern-containment hot path.

Every expensive operation in the summarizer reduces to the same
primitive: *does query row* ``q`` *contain pattern* ``b`` (``b ⊆ q``)?
The dense implementation answers it by fancy-indexing the ``uint8``
feature matrix per pattern; at workload scale that is a scan-bound
kernel invoked millions of times (once per Apriori candidate per
level, once per marginal, once per Laserlight greedy sample).

This module packs each distinct row into ``ceil(n / 64)`` little-endian
``uint64`` words so containment becomes a handful of bitwise AND /
compare reductions::

    row ⊇ pattern   ⇔   (packed_row & packed_pattern) == packed_pattern

Feature ``i`` maps to bit ``i % 64`` of word ``i // 64`` — pure shift
arithmetic, independent of host endianness, so rows and patterns packed
by different helpers always agree.  All kernels are exact: supports are
integer multiplicity sums, so the packed results are bit-identical to
a dense ``Pattern.matches`` scan (the tier-1 equivalence tests check
every kernel against that reference).

Two packed layouts complement each other:

* **Row-major** (:func:`pack_rows`): one bitset per distinct query,
  one word column per 64 features.  Best when the caller needs the
  boolean *cover mask* of a pattern (Laserlight's rate estimates).
* **Column-major / vertical** (:func:`pack_columns`): one bitset per
  *feature* over the distinct rows — the classic Eclat "tidset"
  layout.  A pattern's cover is the AND of its features' tidsets
  (``|b| · ceil(m/64)`` word ops, independent of vocabulary width),
  and its multiplicity-weighted support falls out of a byte-level
  weighted-popcount table (:func:`weighted_byte_tally`) without ever
  expanding the mask.  This is what the Apriori miner and batched
  marginal kernels run on.

The public entry points:

* :func:`pack_rows` / :func:`pack_columns` / :func:`pack_indices` /
  :func:`pack_patterns` — build the packed representations.
* :func:`contains` / :func:`contains_many` — boolean containment masks
  for one or many patterns (row-major layout).
* :func:`support_counts` — multiplicity-weighted pattern counts
  ``Γ_b(L)``, batched over a pattern sequence (vertical layout);
  dividing by ``|L|`` gives the marginals ``p(Q ⊇ b | L)``.
* :func:`merge_duplicate_rows` — vectorized row dedup preserving
  first-occurrence order (replaces the per-row Python loop).
* :func:`atoms_containing` — membership of maxent atoms
  ``{0,1}^n_bits`` in a bitmask constraint (shared by the IPF solvers).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "WORD_BITS",
    "n_words",
    "pack_rows",
    "pack_columns",
    "pack_indices",
    "pack_patterns",
    "weighted_byte_tally",
    "contains",
    "contains_many",
    "support_counts",
    "merge_duplicate_rows",
    "atoms_containing",
]

#: Bits per packed word.
WORD_BITS = 64

#: Scratch ceiling (bytes) for batched kernels; candidate batches are
#: chunked so the broadcast ``(k, m, w)`` AND never exceeds it.
_CHUNK_BYTES = 1 << 26  # 64 MiB

_LITTLE_ENDIAN = np.dtype(np.uint64).byteorder in ("<", "=") and (
    np.array([1], dtype=np.uint64).view(np.uint8)[0] == 1
)


def n_words(n_features: int) -> int:
    """Packed words needed for *n_features* bit columns (at least 1)."""
    if n_features < 0:
        raise ValueError("n_features must be non-negative")
    return max(1, (n_features + WORD_BITS - 1) // WORD_BITS)


def pack_rows(matrix: np.ndarray) -> np.ndarray:
    """Pack a ``(m, n)`` 0/1 matrix into ``(m, n_words(n))`` uint64 words.

    Any non-zero entry is a set bit.  ``packbits`` with little bit order
    puts column ``8j + b`` at bit ``b`` of byte ``j``; reading eight such
    bytes as one little-endian word puts column ``i`` at bit ``i % 64``
    of word ``i // 64``.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    m, n = matrix.shape
    buffer = np.zeros((m, n_words(n) * 8), dtype=np.uint8)
    buffer[:, : (n + 7) // 8] = np.packbits(
        matrix.astype(bool, copy=False), axis=1, bitorder="little"
    )
    return buffer.view("<u8").astype(np.uint64, copy=False)


def pack_columns(matrix: np.ndarray) -> np.ndarray:
    """Vertical layout: ``(n, n_words(m))`` per-feature row bitsets.

    Bit ``i`` of feature ``f``'s bitset is set when distinct row ``i``
    has feature ``f`` — the Eclat tidset of ``f`` over the log.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    return pack_rows(matrix.T)


def weighted_byte_tally(counts: np.ndarray) -> np.ndarray:
    """``(n_words(m)·8, 256)`` weighted-popcount table for *counts*.

    Entry ``[p, v]`` is the multiplicity mass of the rows whose bits
    are set in byte value ``v`` at byte position ``p`` of a row
    bitset.  Summing 8 table lookups per word turns an ANDed tidset
    into an exact weighted support without unpacking the mask.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n_bits = n_words(counts.size) * WORD_BITS
    padded = np.zeros(n_bits, dtype=np.int64)
    padded[: counts.size] = counts
    by_byte = padded.reshape(n_bits // 8, 8)
    bit_of_value = (np.arange(256)[:, None] >> np.arange(8)) & 1  # (256, 8)
    return by_byte @ bit_of_value.T  # (n_bytes, 256)


def pack_indices(indices: Iterable[int], n_features: int) -> np.ndarray:
    """Pack a sparse feature-index set into ``(n_words(n),)`` uint64 words."""
    words = np.zeros(n_words(n_features), dtype=np.uint64)
    for index in indices:
        index = int(index)
        if not 0 <= index < n_features:
            raise ValueError(
                f"feature index {index} out of range for {n_features} features"
            )
        words[index >> 6] |= np.uint64(1) << np.uint64(index & 63)
    return words


def pack_patterns(patterns: Sequence[Iterable[int]], n_features: int) -> np.ndarray:
    """Pack many index sets into a ``(k, n_words(n))`` uint64 array."""
    materialized = [np.fromiter(p, dtype=np.int64) for p in patterns]
    packed = np.zeros((len(materialized), n_words(n_features)), dtype=np.uint64)
    if not materialized:
        return packed
    lengths = np.array([idx.size for idx in materialized])
    if lengths.sum() == 0:
        return packed
    flat = np.concatenate(materialized)
    if flat.size and (flat.min() < 0 or flat.max() >= n_features):
        raise ValueError(f"pattern index out of range for {n_features} features")
    rows = np.repeat(np.arange(len(materialized)), lengths)
    bits = np.uint64(1) << (flat & 63).astype(np.uint64)
    np.bitwise_or.at(packed, (rows, flat >> 6), bits)
    return packed


def contains(packed_rows: np.ndarray, packed_pattern: np.ndarray) -> np.ndarray:
    """Boolean mask of rows containing the pattern (``b ⊆ q``).

    Only the pattern's non-zero words are scanned: a 3-feature pattern
    touches at most 3 of the row words regardless of vocabulary width.
    """
    occupied = np.flatnonzero(packed_pattern)
    if occupied.size == 0:
        return np.ones(packed_rows.shape[0], dtype=bool)
    words = packed_pattern[occupied]
    return ((packed_rows[:, occupied] & words) == words).all(axis=1)


def contains_many(
    packed_rows: np.ndarray, packed_patterns: np.ndarray
) -> np.ndarray:
    """``(k, m)`` containment matrix: entry ``[j, i]`` is ``b_j ⊆ q_i``.

    Patterns are decomposed into per-slot (word index, word value)
    pairs so each slot is one gather + AND + compare over all rows at
    once; a batch of small patterns costs ``O(slots · m · k)`` uint64
    ops with no per-pattern Python overhead, instead of one fancy-index
    scan per pattern.
    """
    k = packed_patterns.shape[0]
    m = packed_rows.shape[0]
    # Word-major layout: slot gathers then copy whole contiguous rows.
    words_t = np.ascontiguousarray(packed_rows.T)
    out = np.empty((k, m), dtype=bool)
    for start, stop in _chunks(k, m):
        word_idx, word_val = _word_slots(packed_patterns[start:stop])
        mask: np.ndarray | None = None
        for t in range(word_idx.shape[1]):
            values = word_val[:, t, None]  # (chunk, 1)
            gathered = words_t[word_idx[:, t]]  # (chunk, m) row gather
            hit = (gathered & values) == values
            if mask is None:
                mask = hit
            else:
                mask &= hit
        out[start:stop] = mask
    return out


def support_counts(
    column_bitsets: np.ndarray,
    tally: np.ndarray,
    patterns: Sequence[Iterable[int]],
) -> np.ndarray:
    """Weighted support ``Γ_b(L)`` per pattern: Σ counts over covering rows.

    Operates on the vertical layout: each pattern's cover bitset is the
    AND of its features' tidsets (*column_bitsets*, from
    :func:`pack_columns`), padded with an all-ones sentinel so a batch
    of mixed sizes runs as ``max_size`` vectorized AND sweeps; the
    weighted sum then reads 8 *tally* lookups per word
    (:func:`weighted_byte_tally`) — never touching the dense matrix.
    """
    n, mw = column_bitsets.shape
    padded = False
    if isinstance(patterns, np.ndarray) and patterns.ndim == 2:
        # Rectangular fast path: a (k, s) index array needs no padding.
        k = patterns.shape[0]
        out = np.zeros(k, dtype=np.int64)
        if k == 0:
            return out
        feature_slots = patterns.astype(np.intp, copy=False)
        if patterns.size and (feature_slots.min() < 0 or feature_slots.max() >= n):
            raise ValueError(f"pattern index out of range for {n} features")
        slots = max(1, feature_slots.shape[1])
        if feature_slots.shape[1] == 0:
            feature_slots = np.full((k, 1), n, dtype=np.intp)
            padded = True
    else:
        sized = [p if hasattr(p, "__len__") else tuple(p) for p in patterns]
        k = len(sized)
        out = np.zeros(k, dtype=np.int64)
        if k == 0:
            return out
        sizes = np.fromiter((len(p) for p in sized), dtype=np.int64, count=k)
        total_indices = int(sizes.sum())
        slots = max(1, int(sizes.max(initial=0)))
        feature_slots = np.full((k, slots), n, dtype=np.intp)
        padded = total_indices < k * slots
        if total_indices:
            flat = np.fromiter(
                (i for p in sized for i in p), dtype=np.intp, count=total_indices
            )
            if flat.min() < 0 or flat.max() >= n:
                raise ValueError(f"pattern index out of range for {n} features")
            rows = np.repeat(np.arange(k), sizes)
            first = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            slot = np.arange(rows.size) - first[rows]
            feature_slots[rows, slot] = flat
    if padded:
        # Sentinel feature n: all-ones tidset (padded row bits carry
        # zero mass in the tally, so they never contribute).  Only
        # mixed-size batches pay for this copy — uniform batches (and
        # every single-pattern query) index the bitsets directly.
        sentinel = np.full((1, mw), ~np.uint64(0), dtype=np.uint64)
        extended = np.concatenate([column_bitsets, sentinel], axis=0)
    else:
        extended = column_bitsets
    # Chunk the batch so the (chunk, mw) cover and its (chunk, mw·8)
    # int64 tally gather stay within the scratch ceiling.
    byte_positions = np.arange(mw * 8)
    step = max(1, _CHUNK_BYTES // max(1, mw * 80))
    for start in range(0, k, step):
        stop = min(start + step, k)
        chunk = feature_slots[start:stop]
        cover = extended[chunk[:, 0]].copy()  # (chunk, mw)
        for t in range(1, slots):
            cover &= extended[chunk[:, t]]
        # Byte-sliced weighted popcount: one (chunk, mw·8) table gather.
        # On little-endian hosts the uint8 view of a word is already in
        # tally byte order (byte j holds bits 8j..8j+7); otherwise fall
        # back to explicit shifts.
        if _LITTLE_ENDIAN:
            byte_values = cover.view(np.uint8).reshape(stop - start, mw * 8)
        else:  # pragma: no cover - exercised only on big-endian hosts
            shifts = np.arange(8, dtype=np.uint64) * np.uint64(8)
            byte_values = (
                ((cover[:, :, None] >> shifts) & np.uint64(0xFF))
                .astype(np.uint8)
                .reshape(stop - start, mw * 8)
            )
        out[start:stop] = tally[byte_positions, byte_values].sum(
            axis=1, dtype=np.int64
        )
    return out


def _word_slots(packed_patterns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decompose a pattern batch into padded (word index, word value) slots.

    Returns ``(k, s)`` arrays where ``s`` is the largest number of
    occupied words in the batch; unused slots carry value 0, which any
    row word satisfies.
    """
    k = packed_patterns.shape[0]
    occupied = packed_patterns != 0
    per_pattern = occupied.sum(axis=1)
    slots = max(1, int(per_pattern.max(initial=0)))
    word_idx = np.zeros((k, slots), dtype=np.intp)
    word_val = np.zeros((k, slots), dtype=np.uint64)
    rows, cols = np.nonzero(occupied)
    if rows.size:
        first = np.concatenate(([0], np.cumsum(per_pattern)[:-1]))
        slot = np.arange(rows.size) - first[rows]
        word_idx[rows, slot] = cols
        word_val[rows, slot] = packed_patterns[rows, cols]
    return word_idx, word_val


def _chunks(k: int, m: int) -> Iterator[tuple[int, int]]:
    """Chunk a k-pattern batch so per-slot (m, chunk) gathers stay bounded."""
    step = max(1, _CHUNK_BYTES // max(1, m * 8))
    for start in range(0, k, step):
        yield start, min(start + step, k)


def merge_duplicate_rows(
    matrix: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse duplicate rows, summing multiplicities.

    Vectorized replacement for the per-row dict loop; keeps rows in
    first-occurrence order and preserves the ``(0, n)`` shape of an
    empty input (the dense loop collapsed it to ``(0,)``, breaking
    downstream column indexing).
    """
    matrix = np.ascontiguousarray(np.asarray(matrix, dtype=np.uint8))
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    counts = np.asarray(counts, dtype=np.int64)
    if matrix.shape[0] == 0:
        return matrix, counts[:0]
    unique, first, inverse = np.unique(
        matrix, axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    # Exact integer accumulation (bincount's float weights would round
    # above 2**53).
    merged = np.zeros(unique.shape[0], dtype=np.int64)
    np.add.at(merged, inverse, counts)
    order = np.argsort(first, kind="stable")
    return unique[order], merged[order]


def atoms_containing(n_bits: int, mask: int) -> np.ndarray:
    """Mask over the ``2^n_bits`` maxent atoms containing bitmask *mask*.

    Atom ``a`` qualifies when ``a & mask == mask`` — the same packed
    containment test as row-level kernels, specialized to one word.
    """
    if n_bits < 0:
        raise ValueError("n_bits must be non-negative")
    atoms = np.arange(1 << n_bits, dtype=np.uint64)
    mask64 = np.uint64(mask)
    return (atoms & mask64) == mask64
