"""Tests for naive and pattern encodings."""

import pickle

import numpy as np
import pytest

from repro.core.encoding import NaiveEncoding, PatternEncoding, naive_encoding
from repro.core.kernels import pack_rows
from repro.core.pattern import Pattern


class TestNaiveEncoding:
    def test_example4_marginals(self, example4_log):
        """§5.1: the naive encoding of the toy log is (2/3, 1/3, 1, 1/3)."""
        encoding = NaiveEncoding.from_log(example4_log)
        assert encoding.marginals.tolist() == pytest.approx([2 / 3, 1 / 3, 1.0, 1 / 3])

    def test_example4_point_probability(self, example4_log):
        """§5.1 Example 4: p(query 1) = 4/27 under independence."""
        encoding = NaiveEncoding.from_log(example4_log)
        assert encoding.point_probability(np.array([1, 0, 1, 1])) == pytest.approx(4 / 27)

    def test_example4_unseen_query_probability(self, example4_log):
        """The phantom query (0,1,1,1) gets 1/27 (§5.1)."""
        encoding = NaiveEncoding.from_log(example4_log)
        assert encoding.point_probability(np.array([0, 1, 1, 1])) == pytest.approx(1 / 27)

    def test_verbosity_counts_nonzero(self):
        encoding = NaiveEncoding(np.array([0.5, 0.0, 1.0]))
        assert encoding.verbosity == 2
        assert set(encoding.support) == {0, 2}

    def test_pattern_probability_is_product(self):
        encoding = NaiveEncoding(np.array([0.5, 0.25, 1.0]))
        assert encoding.pattern_probability(Pattern([0, 1])) == pytest.approx(0.125)
        assert encoding.pattern_probability(Pattern([])) == 1.0

    def test_maxent_entropy_closed_form(self):
        encoding = NaiveEncoding(np.array([0.5, 0.5, 1.0]))
        assert encoding.maxent_entropy() == pytest.approx(2.0)

    def test_invalid_marginals(self):
        with pytest.raises(ValueError):
            NaiveEncoding(np.array([1.2]))
        with pytest.raises(ValueError):
            NaiveEncoding(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
    def test_non_finite_marginal_is_refused(self, bad):
        # NaN fails both bounds of a range check written as "outside".
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            NaiveEncoding(np.array([bad, 0.5]))

    def test_as_pattern_encoding(self):
        encoding = NaiveEncoding(np.array([0.5, 0.0, 0.25]))
        explicit = encoding.as_pattern_encoding()
        assert explicit.verbosity == 2
        assert explicit[Pattern([0])] == pytest.approx(0.5)

    def test_functional_alias(self, example4_log):
        assert naive_encoding(example4_log).verbosity == 4

    def test_point_probability_length_check(self):
        with pytest.raises(ValueError):
            NaiveEncoding(np.array([0.5])).point_probability(np.array([1, 0]))

    def test_support_products_multiplies_only_covered_rows(self):
        encoding = NaiveEncoding(np.array([0.0, 0.25, 1.0, 0.0, 0.5]))
        present = np.array(
            [[0, 1, 1, 0, 0], [1, 1, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 1, 1, 1]],
            dtype=bool,
        )
        # Rows 1 and 3 carry features 0 and 3, outside the support.
        got = encoding.support_products(present, pack_rows(present))
        assert got.tolist() == [0.25 * 1.0 * 0.5, 0.0, 0.75 * 0.0 * 0.5, 0.0]
        assert not np.signbit(got).any()

    def test_pickle_rebuilds_the_outside_support_words(self):
        encoding = NaiveEncoding(np.r_[np.zeros(70), 0.5, 0.0, 0.25])
        restored = pickle.loads(pickle.dumps(encoding))
        present = np.zeros((3, 73), dtype=bool)
        present[0, [70, 72]] = True
        present[1, [64, 70]] = True  # feature 64 lies outside the support
        packed = pack_rows(present)
        want = encoding.support_products(present, packed)
        assert restored.support_products(present, packed).tobytes() == want.tobytes()
        assert want.tolist() == [0.5 * 0.25, 0.0, 0.5 * 0.75]


class TestPatternEncoding:
    def test_from_log_true_marginals(self, example2_log):
        patterns = [Pattern([3, 5]), Pattern([0])]
        encoding = PatternEncoding.from_log(example2_log, patterns)
        assert encoding[Pattern([3, 5])] == pytest.approx(0.75)
        assert encoding[Pattern([0])] == pytest.approx(0.5)
        assert encoding.verbosity == 2

    def test_marginal_bounds_enforced(self):
        encoding = PatternEncoding(3)
        with pytest.raises(ValueError):
            encoding.add(Pattern([0]), 1.5)

    def test_feature_range_enforced(self):
        encoding = PatternEncoding(2)
        with pytest.raises(ValueError):
            encoding.add(Pattern([5]), 0.5)

    def test_mapping_interface(self):
        encoding = PatternEncoding(4, {Pattern([0]): 0.5, Pattern([1, 2]): 0.25})
        assert Pattern([0]) in encoding
        assert encoding.get(Pattern([3])) is None
        assert len(encoding) == 2
        assert set(encoding.patterns()) == {Pattern([0]), Pattern([1, 2])}

    def test_union_merges(self):
        a = PatternEncoding(3, {Pattern([0]): 0.5})
        b = PatternEncoding(3, {Pattern([1]): 0.25})
        merged = a.union(b)
        assert merged.verbosity == 2

    def test_union_conflict_raises(self):
        a = PatternEncoding(3, {Pattern([0]): 0.5})
        b = PatternEncoding(3, {Pattern([0]): 0.75})
        with pytest.raises(ValueError):
            a.union(b)

    def test_union_feature_space_mismatch(self):
        with pytest.raises(ValueError):
            PatternEncoding(2).union(PatternEncoding(3))

    def test_difference(self):
        a = PatternEncoding(3, {Pattern([0]): 0.5, Pattern([1]): 0.25})
        b = PatternEncoding(3, {Pattern([0]): 0.5})
        assert a.difference(b).patterns() == [Pattern([1])]

    def test_subset_of(self):
        small = PatternEncoding(3, {Pattern([0]): 0.5})
        large = PatternEncoding(3, {Pattern([0]): 0.5, Pattern([1]): 0.25})
        assert small.subset_of(large)
        assert not large.subset_of(small)
