"""Packed-bitset kernel tests: unit checks plus dense-reference equivalence.

The packed kernels must be *bit-identical* to a dense reference on
every operation they accelerate — marginals, supports, mined pattern
sets — so these tests are property-style sweeps over randomized logs,
including vocabularies wider than one 64-bit word.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.core import kernels
from repro.core.log import QueryLog
from repro.core.mining import frequent_patterns
from repro.core.pattern import Pattern
from repro.core.vocabulary import Vocabulary


def random_log(seed: int, n_rows: int = 80, n_features: int = 150, density: float = 0.3):
    """A randomized QueryLog with multiplicities (> 2 packed words wide)."""
    rng = np.random.default_rng(seed)
    matrix = (rng.random((n_rows, n_features)) < density).astype(np.uint8)
    unique, counts = np.unique(matrix, axis=0, return_counts=True)
    counts = counts * rng.integers(1, 7, size=counts.size)
    return QueryLog(Vocabulary(range(n_features)), unique, counts)


def random_patterns(rng, n_features: int, count: int, max_size: int = 6):
    patterns = [
        Pattern(rng.choice(n_features, size=int(rng.integers(1, max_size + 1)), replace=False))
        for _ in range(count)
    ]
    patterns.append(Pattern([]))  # empty pattern matches everything
    return patterns


class TestPacking:
    def test_pack_rows_round_trip_bits(self):
        rng = np.random.default_rng(0)
        matrix = (rng.random((17, 130)) < 0.4).astype(np.uint8)
        packed = kernels.pack_rows(matrix)
        assert packed.shape == (17, kernels.n_words(130))
        for row in range(17):
            for col in range(130):
                bit = (packed[row, col // 64] >> np.uint64(col % 64)) & np.uint64(1)
                assert bool(bit) == bool(matrix[row, col])

    @pytest.mark.parametrize(
        "shape",
        [(0, 0), (0, 70), (3, 0), (5, 7), (4, 63), (4, 64), (6, 65), (3, 130)],
    )
    @pytest.mark.parametrize("dtype", ["uint8", "bool", "float"])
    @pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
    def test_pack_rows_matches_per_bit_oracle(self, shape, dtype, layout):
        m, n = shape
        rng = np.random.default_rng(m * 1000 + n)
        matrix = rng.random(shape) < 0.4
        if dtype == "uint8":
            matrix = matrix.astype(np.uint8)
        elif dtype == "float":  # any non-zero value is a set bit
            matrix = np.where(matrix, rng.choice([1.0, 0.5, -2.0], size=shape), 0.0)
        if layout == "fortran":
            matrix = np.asfortranarray(matrix)
        elif layout == "strided":  # every other row and column of a junk base
            base = np.ones((2 * m, 2 * n), dtype=matrix.dtype)
            base[::2, ::2] = matrix
            matrix = base[::2, ::2]
        packed = kernels.pack_rows(matrix)
        assert packed.dtype == np.uint64
        assert packed.shape == (m, kernels.n_words(n))
        want = np.zeros_like(packed)
        for row in range(m):
            for col in range(n):
                if matrix[row, col] != 0:
                    want[row, col // 64] |= np.uint64(1) << np.uint64(col % 64)
        assert np.array_equal(packed, want)

    def test_pack_indices_matches_pack_rows(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            indices = rng.choice(n, size=int(rng.integers(0, min(n, 8) + 1)), replace=False)
            vector = np.zeros((1, n), dtype=np.uint8)
            vector[0, indices] = 1
            assert np.array_equal(
                kernels.pack_indices(indices, n), kernels.pack_rows(vector)[0]
            )

    def test_pack_patterns_matches_pack_indices(self):
        rng = np.random.default_rng(2)
        n = 100
        index_sets = [
            rng.choice(n, size=int(rng.integers(0, 6)), replace=False) for _ in range(40)
        ]
        batch = kernels.pack_patterns(index_sets, n)
        for j, indices in enumerate(index_sets):
            assert np.array_equal(batch[j], kernels.pack_indices(indices, n))

    def test_pack_index_out_of_range(self):
        with pytest.raises(ValueError):
            kernels.pack_indices([7], 7)
        with pytest.raises(ValueError):
            kernels.pack_patterns([[0], [9]], 9)

    def test_n_words(self):
        assert kernels.n_words(0) == 1
        assert kernels.n_words(64) == 1
        assert kernels.n_words(65) == 2
        with pytest.raises(ValueError):
            kernels.n_words(-1)


class TestContainment:
    def test_contains_matches_dense(self):
        rng = np.random.default_rng(3)
        matrix = (rng.random((60, 150)) < 0.35).astype(np.uint8)
        packed = kernels.pack_rows(matrix)
        for pattern in random_patterns(rng, 150, 50):
            expected = pattern.matches(matrix)
            got = kernels.contains(packed, kernels.pack_indices(pattern.indices, 150))
            assert np.array_equal(got, expected)

    def test_contains_many_matches_dense(self):
        rng = np.random.default_rng(4)
        matrix = (rng.random((45, 150)) < 0.35).astype(np.uint8)
        packed = kernels.pack_rows(matrix)
        patterns = random_patterns(rng, 150, 60)
        batch = kernels.pack_patterns([p.indices for p in patterns], 150)
        masks = kernels.contains_many(packed, batch)
        for j, pattern in enumerate(patterns):
            assert np.array_equal(masks[j], pattern.matches(matrix))


class TestSupportCounts:
    def test_support_counts_match_brute_force(self):
        rng = np.random.default_rng(5)
        log = random_log(5)
        columns = kernels.pack_columns(log.matrix)
        tally = kernels.weighted_byte_tally(log.counts)
        patterns = random_patterns(rng, log.n_features, 80)
        got = kernels.support_counts(columns, tally, [p.indices for p in patterns])
        for j, pattern in enumerate(patterns):
            mask = pattern.matches(log.matrix)
            assert got[j] == int(log.counts[mask].sum())

    def test_support_counts_rectangular_fast_path(self):
        rng = np.random.default_rng(6)
        log = random_log(6)
        columns = kernels.pack_columns(log.matrix)
        tally = kernels.weighted_byte_tally(log.counts)
        batch = np.stack(
            [rng.choice(log.n_features, size=3, replace=False) for _ in range(40)]
        )
        got = kernels.support_counts(columns, tally, batch)
        via_lists = kernels.support_counts(columns, tally, [tuple(r) for r in batch])
        assert np.array_equal(got, via_lists)

    def test_support_counts_chunked_matches_unchunked(self, monkeypatch):
        log = random_log(14)
        columns = kernels.pack_columns(log.matrix)
        tally = kernels.weighted_byte_tally(log.counts)
        rng = np.random.default_rng(14)
        patterns = [p.indices for p in random_patterns(rng, log.n_features, 60)]
        expected = kernels.support_counts(columns, tally, patterns)
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", 1024)  # force many chunks
        assert np.array_equal(
            kernels.support_counts(columns, tally, patterns), expected
        )

    def test_support_counts_index_out_of_range(self):
        log = random_log(7)
        columns = kernels.pack_columns(log.matrix)
        tally = kernels.weighted_byte_tally(log.counts)
        with pytest.raises(ValueError):
            kernels.support_counts(columns, tally, [(log.n_features,)])


class TestMergeDuplicateRows:
    def test_merges_and_preserves_first_occurrence_order(self):
        matrix = np.array(
            [[1, 0, 1], [0, 1, 0], [1, 0, 1], [1, 1, 1], [0, 1, 0]], dtype=np.uint8
        )
        counts = np.array([2, 3, 5, 1, 4])
        merged, merged_counts = kernels.merge_duplicate_rows(matrix, counts)
        assert merged.tolist() == [[1, 0, 1], [0, 1, 0], [1, 1, 1]]
        assert merged_counts.tolist() == [7, 7, 1]

    def test_empty_input_keeps_feature_width(self):
        merged, counts = kernels.merge_duplicate_rows(
            np.zeros((0, 9), dtype=np.uint8), np.zeros(0, dtype=np.int64)
        )
        assert merged.shape == (0, 9)
        assert counts.shape == (0,)

    def test_matches_python_reference(self):
        rng = np.random.default_rng(8)
        matrix = (rng.random((50, 6)) < 0.5).astype(np.uint8)
        counts = rng.integers(1, 9, size=50)
        merged, merged_counts = kernels.merge_duplicate_rows(matrix, counts)
        reference: dict[bytes, int] = {}
        order: list[bytes] = []
        for row, count in zip(matrix, counts):
            key = row.tobytes()
            if key not in reference:
                order.append(key)
                reference[key] = 0
            reference[key] += int(count)
        assert [r.tobytes() for r in merged] == order
        assert [int(c) for c in merged_counts] == [reference[k] for k in order]


class TestAtomsContaining:
    def test_matches_direct_bit_test(self):
        for n_bits in (0, 1, 3, 6):
            atoms = np.arange(1 << n_bits)
            for mask in (0, 1, (1 << n_bits) - 1, 0b101 & ((1 << n_bits) - 1)):
                expected = (atoms & mask) == mask
                assert np.array_equal(kernels.atoms_containing(n_bits, mask), expected)


class TestBackendEquivalence:
    """The packed kernels must agree bit-for-bit with the dense reference.

    The reference lives here, test-side: ``Pattern.matches`` row scans
    plus multiplicity-weighted sums, and brute-force itemset
    enumeration for the miner.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_marginals_and_counts(self, seed):
        log = random_log(seed)
        rng = np.random.default_rng(seed + 100)
        patterns = random_patterns(rng, log.n_features, 40)
        expected = np.array([reference_count(log, p) for p in patterns])
        for pattern, count in zip(patterns, expected):
            assert log.pattern_count(pattern) == count
            assert log.pattern_marginal(pattern) == count / log.total
        assert np.array_equal(log.pattern_counts(patterns), expected)
        assert np.array_equal(log.pattern_marginals(patterns), expected / log.total)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("min_support", [0.02, 0.1, 0.3])
    def test_mined_patterns_identical(self, seed, min_support):
        log = random_log(seed, n_rows=60, n_features=40)
        mined = frequent_patterns(log, min_support, 3)
        # same patterns, same supports, same order
        assert mined == reference_frequent_patterns(log, min_support, 3)

    def test_pattern_mask_identical(self):
        log = random_log(9)
        rng = np.random.default_rng(9)
        for pattern in random_patterns(rng, log.n_features, 25):
            assert np.array_equal(
                log.pattern_mask(pattern), pattern.matches(log.matrix)
            )

    def test_laserlight_identical_across_backends(self, monkeypatch):
        from repro.baselines import laserlight

        log = random_log(10, n_rows=50, n_features=30)
        rng = np.random.default_rng(11)
        outcomes = rng.random(log.n_distinct)
        fit_packed = laserlight.Laserlight(n_patterns=5, seed=0).fit(log, outcomes)
        monkeypatch.setattr(laserlight, "_Containment", DenseContainment)
        fit_dense = laserlight.Laserlight(n_patterns=5, seed=0).fit(log, outcomes)
        assert fit_packed.patterns == fit_dense.patterns
        assert fit_packed.rates == fit_dense.rates
        assert fit_packed.error == fit_dense.error


def reference_count(log: QueryLog, pattern: Pattern) -> int:
    """Dense reference ``Γ_b(L)``: a row scan plus a weighted sum."""
    return int(log.counts[pattern.matches(log.matrix)].sum())


def reference_frequent_patterns(log: QueryLog, min_support: float, max_size: int):
    """Every itemset up to *max_size*, enumerated and counted densely.

    Emitted level by level in lexicographic order, then stably sorted
    by (descending support, size) — the miner's documented order.
    """
    results = []
    for size in range(1, max_size + 1):
        itemsets = np.array(list(combinations(range(log.n_features), size)))
        covered = log.matrix[:, itemsets].all(axis=2)
        supports = (log.counts @ covered) / log.total
        results.extend(
            (Pattern(items), float(support))
            for items, support in zip(itemsets, supports)
            if support >= min_support
        )
    results.sort(key=lambda pair: (-pair[1], len(pair[0])))
    return results


class DenseContainment:
    """Laserlight's containment oracle as dense ``Pattern.matches`` scans."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    def mask(self, pattern: Pattern) -> np.ndarray:
        return pattern.matches(self.matrix)

    def masks(self, patterns: list[Pattern]) -> np.ndarray:
        if not patterns:
            return np.empty((0, self.matrix.shape[0]), dtype=bool)
        return np.stack([p.matches(self.matrix) for p in patterns])
