"""The support-restricted likelihood kernel against the dense eq. 1 oracle.

``PatternMixtureEncoding.point_probabilities`` multiplies each component
only over its own support.  These properties pin it bit for bit
(``.view(np.uint64)`` equality) to the dense product over the whole
vocabulary: marginals of exactly 0.0 and 1.0, empty supports, all-zero
rows, rows with features outside a support, every input dtype and
memory layout, and zero-padded feature spaces.
"""

from __future__ import annotations

import pickle

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.encoding import NaiveEncoding, PatternEncoding
from repro.core.mixture import MixtureComponent, PatternMixtureEncoding
from repro.core.pattern import Pattern

_marginal = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _mixture(marginal_rows, sizes) -> PatternMixtureEncoding:
    return PatternMixtureEncoding(
        [
            MixtureComponent(
                size=size,
                encoding=NaiveEncoding(np.asarray(marginals, dtype=float)),
                true_entropy=0.0,
            )
            for marginals, size in zip(marginal_rows, sizes)
        ]
    )


@st.composite
def _cases(draw):
    """A naive mixture plus a batch of rows in a drawn dtype and layout."""
    n = draw(st.integers(0, 10))
    k = draw(st.integers(1, 4))
    marginal_rows = [
        draw(st.lists(_marginal, min_size=n, max_size=n)) for _ in range(k)
    ]
    if draw(st.booleans()):
        marginal_rows[draw(st.integers(0, k - 1))] = [0.0] * n  # empty support
    sizes = draw(st.lists(st.integers(1, 1000), min_size=k, max_size=k))
    m = draw(st.integers(0, 6))
    present = np.array(
        draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                      min_size=m, max_size=m)),
        dtype=bool,
    ).reshape(m, n)
    if m and draw(st.booleans()):
        present[draw(st.integers(0, m - 1))] = False  # an all-zero row
    dtype = draw(st.sampled_from(["bool", "uint8", "float"]))
    if dtype == "bool":
        matrix = present
    elif dtype == "uint8":
        matrix = present.astype(np.uint8)
    else:  # any value > 0 is present, any other value absent
        matrix = np.where(
            present,
            draw(st.sampled_from([1.0, 0.5, 7.0])),
            draw(st.sampled_from([0.0, -1.0])),
        )
    layout = draw(st.sampled_from(["c", "fortran", "strided"]))
    if layout == "fortran":
        matrix = np.asfortranarray(matrix)
    elif layout == "strided":  # every other row and column of a junk-filled base
        base = np.ones((2 * m, 2 * n), dtype=matrix.dtype)
        base[::2, ::2] = matrix
        matrix = base[::2, ::2]
    return _mixture(marginal_rows, sizes), matrix


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_kernel_is_bit_identical_to_dense_oracle(dense_point_probabilities, case):
    mixture, matrix = case
    got = mixture.point_probabilities(matrix)
    assert got.dtype == np.float64 and got.shape == (matrix.shape[0],)
    assert np.array_equal(_bits(got), _bits(dense_point_probabilities(mixture, matrix)))


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_one_row_batch_equals_point_probability(case):
    mixture, matrix = case
    batch = mixture.point_probabilities(matrix)
    for r in range(matrix.shape[0]):
        assert _bits(mixture.point_probability(matrix[r])) == _bits(batch[r])
        assert _bits(mixture.point_probabilities(matrix[r : r + 1])) == _bits(batch[r])
        for component in mixture.components:
            p = component.encoding.marginals
            dense = np.prod(np.where(matrix[r] > 0, p, 1 - p))
            assert _bits(component.encoding.point_probability(matrix[r])) == _bits(dense)


@settings(max_examples=200, deadline=None)
@given(_cases(), st.data())
def test_zero_padding_leaves_every_value_bit_identical(
    dense_point_probabilities, case, data
):
    """New features with marginal 0 everywhere (what an ingest that grows
    the codebook adds to the components it does not touch) and zero
    columns in the matrix are factors of exactly 1.0: no value moves, in
    the kernel or in the dense product."""
    mixture, matrix = case
    n = matrix.shape[1]
    positions = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=4))
    padded_matrix = np.insert(np.asarray(matrix), positions, 0, axis=1)
    padded = _mixture(
        [np.insert(c.encoding.marginals, positions, 0.0) for c in mixture.components],
        [c.size for c in mixture.components],
    )
    want = _bits(mixture.point_probabilities(matrix))
    assert np.array_equal(_bits(padded.point_probabilities(padded_matrix)), want)
    assert np.array_equal(
        _bits(dense_point_probabilities(padded, padded_matrix)),
        _bits(dense_point_probabilities(mixture, matrix)),
    )


class TestEdgeCases:
    def test_exact_zero_and_one_marginals(self, dense_point_probabilities):
        mixture = _mixture([[1.0, 0.0, 0.5], [0.0, 0.0, 0.0]], [3, 1])
        matrix = np.array(
            [[1, 0, 1], [1, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=np.uint8
        )
        got = mixture.point_probabilities(matrix)
        # Component 1 has an empty support: it only explains the empty row.
        assert got.tolist() == [0.75 * 0.5, 0.75 * 0.5, 0.25, 0.0, 0.0]
        assert np.array_equal(_bits(got), _bits(dense_point_probabilities(mixture, matrix)))

    def test_present_feature_outside_support_is_positive_zero(self):
        mixture = _mixture([[0.5, 0.0]], [1])
        got = mixture.point_probabilities(np.array([[1, 1]]))
        assert _bits(got) == _bits(np.array([0.0]))

    def test_zero_rows(self):
        mixture = _mixture([[0.5, 0.25]], [2])
        got = mixture.point_probabilities(np.zeros((0, 2), dtype=np.uint8))
        assert got.shape == (0,) and got.dtype == np.float64

    def test_width_and_rank_are_checked(self):
        mixture = _mixture([[0.5, 0.25]], [2])
        with pytest.raises(ValueError):
            mixture.point_probabilities(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            mixture.point_probabilities(np.zeros(2))
        with pytest.raises(ValueError):
            mixture.point_probability(np.zeros(3))

    def test_pattern_components_are_refused(self):
        mixture = PatternMixtureEncoding(
            [
                MixtureComponent(
                    size=1,
                    encoding=PatternEncoding(2, {Pattern([0]): 0.5}),
                    true_entropy=0.0,
                )
            ]
        )
        with pytest.raises(TypeError):
            mixture.point_probabilities(np.zeros((1, 2)))


class TestCachedSupport:
    def test_marginals_are_read_only(self):
        encoding = NaiveEncoding(np.array([0.5, 0.0, 1.0]))
        with pytest.raises(ValueError):
            encoding.marginals[1] = 0.5
        with pytest.raises(ValueError):
            encoding.support[0] = 1

    def test_input_array_is_not_frozen(self):
        marginals = np.array([0.5, 0.0])
        NaiveEncoding(marginals)
        marginals[1] = 0.25  # the encoding keeps its own copy
        assert marginals.flags.writeable

    def test_support_and_verbosity_read_the_cache(self):
        encoding = NaiveEncoding(np.array([0.0, 0.3, 0.0, 1.0]))
        assert encoding.support.tolist() == [1, 3]
        assert encoding.support is encoding.support
        assert encoding.verbosity == 2

    def test_pickle_round_trip_stays_read_only(self):
        encoding = NaiveEncoding(np.array([0.0, 0.3, 1.0]))
        restored = pickle.loads(pickle.dumps(encoding))
        assert np.array_equal(restored.marginals, encoding.marginals)
        assert restored.support.tolist() == [1, 2]
        assert not restored.marginals.flags.writeable
