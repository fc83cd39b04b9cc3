"""Property-based tests for the windowed summary algebra (hypothesis).

The closed algebra on compressed summaries — ``merged`` / ``scaled`` /
``subtracted`` / ``consolidated`` — is what lets the windowed layer
compose time panes without ever touching raw statements, so its
invariants are load-bearing:

* ``merged`` is associative and commutative up to component order;
* ``scaled`` preserves normalization (weights, Error, Verbosity, every
  marginal estimate) and scales only the totals;
* ``subtracted`` exactly inverts ``merged`` (the sliding-window retire);
* ``consolidated`` is *exact*: each merged group equals the naive fit
  of the union of its underlying partitions;
* shard-merge-consolidate lands within the documented clustering-noise
  bound of a direct fit, at every worker count.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.compress import LogRCompressor, compress_sharded
from repro.core.log import QueryLog
from repro.core.mixture import PatternMixtureEncoding
from repro.core.pattern import Pattern
from repro.core.vocabulary import Vocabulary


@st.composite
def query_logs(draw, max_features=7, max_rows=10, feature_offset=0):
    """Random small logs; *feature_offset* shifts the feature identities
    so two drawn logs can have partially overlapping vocabularies."""
    n_features = draw(st.integers(2, max_features))
    n_rows = draw(st.integers(1, max_rows))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=n_features, max_size=n_features),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    matrix = np.asarray(rows, dtype=np.uint8)
    unique, inverse = np.unique(matrix, axis=0, return_inverse=True)
    counts = np.bincount(inverse)
    multipliers = draw(
        st.lists(st.integers(1, 30), min_size=len(unique), max_size=len(unique))
    )
    vocab = Vocabulary(range(feature_offset, feature_offset + n_features))
    return QueryLog(vocab, unique, counts * np.asarray(multipliers))


def mixture_of(log: QueryLog, k: int = 2) -> PatternMixtureEncoding:
    labels = np.arange(log.n_distinct) % k
    return PatternMixtureEncoding.from_partitions(
        log.partition(labels), log.vocabulary
    )


def fingerprint(mixture: PatternMixtureEncoding) -> list:
    """Vocabulary-order-independent canonical form of a mixture.

    Each component becomes ``(size, true_entropy, {feature: marginal})``
    with floats rounded; the mixture is the sorted multiset of those —
    equal fingerprints mean equal summaries regardless of component
    order or feature interning order.
    """
    out = []
    for component in mixture.components:
        marginals = component.encoding.marginals
        features = {}
        for index in np.flatnonzero(marginals):
            feature = (
                mixture.vocabulary.feature(int(index))
                if mixture.vocabulary is not None
                else int(index)
            )
            # str, not repr: the JSON feature codec round-trips plain
            # (non-SQL) features through their string form.
            features[str(feature)] = round(float(marginals[index]), 9)
        out.append(
            (
                round(float(component.size), 9),
                round(float(component.true_entropy), 9),
                tuple(sorted(features.items())),
            )
        )
    return sorted(out)


# ----------------------------------------------------------------------
# merged: commutative and associative up to component order
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(query_logs(), query_logs(feature_offset=3))
def test_merged_commutative(log_a, log_b):
    a, b = mixture_of(log_a), mixture_of(log_b)
    ab = PatternMixtureEncoding.merged([a, b])
    ba = PatternMixtureEncoding.merged([b, a])
    assert fingerprint(ab) == fingerprint(ba)
    assert ab.total == ba.total
    assert ab.error() == pytest.approx(ba.error(), abs=1e-9)
    assert ab.total_verbosity == ba.total_verbosity


@settings(max_examples=40, deadline=None)
@given(query_logs(), query_logs(feature_offset=2), query_logs(feature_offset=5))
def test_merged_associative(log_a, log_b, log_c):
    a, b, c = mixture_of(log_a), mixture_of(log_b), mixture_of(log_c)
    left = PatternMixtureEncoding.merged(
        [PatternMixtureEncoding.merged([a, b]), c]
    )
    right = PatternMixtureEncoding.merged(
        [a, PatternMixtureEncoding.merged([b, c])]
    )
    flat = PatternMixtureEncoding.merged([a, b, c])
    assert fingerprint(left) == fingerprint(right) == fingerprint(flat)
    assert left.error() == pytest.approx(right.error(), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(query_logs(), query_logs(feature_offset=3))
def test_merged_preserves_weighted_measures(log_a, log_b):
    """Merged Error/Verbosity are the size-weighted combinations —
    exact, no refitting (the shard-and-merge guarantee)."""
    a, b = mixture_of(log_a), mixture_of(log_b)
    merged = PatternMixtureEncoding.merged([a, b])
    expected_error = (
        a.total * a.error() + b.total * b.error()
    ) / (a.total + b.total)
    assert merged.error() == pytest.approx(expected_error, abs=1e-9)
    assert merged.total_verbosity == a.total_verbosity + b.total_verbosity
    assert merged.total == a.total + b.total


# ----------------------------------------------------------------------
# scaled: normalization-preserving scalar action
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(query_logs(), st.floats(0.01, 4.0))
def test_scaled_preserves_normalization(log, factor):
    mixture = mixture_of(log)
    scaled = mixture.scaled(factor)
    assert np.allclose(scaled.weights, mixture.weights, atol=1e-12)
    assert float(scaled.weights.sum()) == pytest.approx(1.0, abs=1e-12)
    assert scaled.error() == pytest.approx(mixture.error(), abs=1e-9)
    assert scaled.total_verbosity == mixture.total_verbosity
    assert float(scaled.total) == pytest.approx(
        factor * mixture.total, rel=1e-12
    )
    for index in range(log.n_features):
        pattern = Pattern([index])
        assert scaled.estimate_marginal(pattern) == pytest.approx(
            mixture.estimate_marginal(pattern), abs=1e-12
        )


@settings(max_examples=40, deadline=None)
@given(query_logs(), st.floats(0.05, 2.0), st.floats(0.05, 2.0))
def test_scaled_composes_multiplicatively(log, first, second):
    mixture = mixture_of(log)
    twice = mixture.scaled(first).scaled(second)
    once = mixture.scaled(first * second)
    assert float(twice.total) == pytest.approx(float(once.total), rel=1e-9)
    assert twice.error() == pytest.approx(once.error(), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(query_logs(), st.floats(0.1, 0.9))
def test_scaled_roundtrips_through_json(log, factor):
    """Decayed (float-size) views serialize and re-load exactly."""
    mixture = mixture_of(log).scaled(factor)
    restored = PatternMixtureEncoding.from_json(mixture.to_json())
    assert fingerprint(restored) == fingerprint(mixture)


def test_scaled_rejects_nonpositive_factors(example4_log):
    mixture = PatternMixtureEncoding.from_log(example4_log)
    for factor in (0.0, -1.0):
        with pytest.raises(ValueError):
            mixture.scaled(factor)


# ----------------------------------------------------------------------
# subtracted: the exact inverse of merged
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(query_logs(), query_logs(feature_offset=3))
def test_subtracted_inverts_merged(log_a, log_b):
    a, b = mixture_of(log_a), mixture_of(log_b)
    merged = PatternMixtureEncoding.merged([a, b])
    recovered = merged.subtracted(b)
    assert fingerprint(recovered) == fingerprint(a)
    assert recovered.error() == pytest.approx(a.error(), abs=1e-9)
    assert recovered.total == a.total


@settings(max_examples=30, deadline=None)
@given(query_logs(), query_logs(feature_offset=2), st.floats(0.1, 0.9))
def test_subtracted_retires_decayed_pane(log_a, log_b, decay):
    """Retiring works inside decayed composites too: subtract the pane
    at the same weight it was merged at."""
    a, b = mixture_of(log_a), mixture_of(log_b)
    composite = PatternMixtureEncoding.merged([a.scaled(decay), b])
    recovered = composite.subtracted(b)
    assert fingerprint(recovered) == fingerprint(a.scaled(decay))


@settings(max_examples=20, deadline=None)
@given(query_logs(max_features=5), query_logs(max_features=5, feature_offset=2))
def test_subtracted_rejects_unmerged_pane(log_a, log_b):
    a, b = mixture_of(log_a), mixture_of(log_b)
    merged = PatternMixtureEncoding.merged([a, b])
    # A pane over disjoint features can never have been merged in.
    foreign = mixture_of(
        QueryLog(
            Vocabulary(range(100, 100 + log_b.n_features)),
            log_b.matrix,
            log_b.counts,
        )
    )
    with pytest.raises(ValueError):
        merged.subtracted(foreign)
    with pytest.raises(ValueError):
        # Subtracting everything would leave an empty mixture.
        PatternMixtureEncoding.merged([a, a]).subtracted(
            PatternMixtureEncoding.merged([a, a])
        )


def test_subtracted_rejects_consolidated_composite(small_pocketdata_log):
    """Consolidation merges panes irreversibly; subtraction must refuse
    rather than return an inexact summary."""
    log = small_pocketdata_log
    half = log.n_distinct // 2
    a = PatternMixtureEncoding.from_partitions(
        [log.subset(range(half))], log.vocabulary
    )
    b = PatternMixtureEncoding.from_partitions(
        [log.subset(range(half, log.n_distinct))], log.vocabulary
    )
    merged = PatternMixtureEncoding.merged([a, b])
    consolidated, _ = merged.consolidated(1, seed=0)
    with pytest.raises(ValueError):
        consolidated.subtracted(b)


# ----------------------------------------------------------------------
# consolidated: exactness of the group merge
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(query_logs(max_rows=12), st.integers(1, 3))
def test_consolidated_equals_direct_fit_of_union_partitions(log, k):
    """The documented identity: a consolidated group's component equals
    the naive fit of the union of its underlying partitions."""
    labels = np.arange(log.n_distinct) % min(4, log.n_distinct)
    mixture = PatternMixtureEncoding.from_partitions(
        log.partition(labels), log.vocabulary
    )
    consolidated, assignment = mixture.consolidated(k, seed=0)
    # Map each distinct row's partition to its consolidated group and
    # re-fit those unions directly from the raw log.
    component_of_label = {
        label: position for position, label in enumerate(np.unique(labels))
    }
    grouped = np.array(
        [assignment[component_of_label[label]] for label in labels]
    )
    direct = PatternMixtureEncoding.from_partitions(
        log.partition(grouped), log.vocabulary
    )
    assert fingerprint(consolidated) == fingerprint(direct)
    assert consolidated.error() == pytest.approx(direct.error(), abs=1e-9)


# ----------------------------------------------------------------------
# shard-merge-consolidate vs direct fit, across jobs
# ----------------------------------------------------------------------
#: Documented clustering-noise bound (bits): at equal total component
#: count, shard-merge-consolidate may beat the direct fit only because
#: K-way clustering is itself noisy — never by more than this.
CLUSTERING_NOISE_BITS = 0.75


@pytest.mark.parametrize("jobs", [1, 2])
def test_sharded_consolidated_error_within_noise_of_direct(small_pocketdata_log, jobs):
    log = small_pocketdata_log
    sharded = compress_sharded(
        log, n_shards=2, n_clusters=4, consolidate_to=4, jobs=jobs, seed=0
    )
    direct = LogRCompressor(n_clusters=4, seed=0).compress(log)
    assert sharded.error >= direct.error - CLUSTERING_NOISE_BITS, (
        f"sharded-consolidated Error {sharded.error:.3f} beats the direct "
        f"fit {direct.error:.3f} by more than the documented "
        f"{CLUSTERING_NOISE_BITS}-bit clustering-noise bound"
    )
    # Merging is exact, so the sharded Error is a true Generalized
    # Error — it can exceed the direct fit, but both stay non-negative.
    assert sharded.error >= -1e-9
    assert direct.error >= -1e-9


def test_sharded_merge_bit_identical_across_jobs(small_pocketdata_log):
    """jobs=1 and jobs=2 must produce the same artifact bit for bit."""
    log = small_pocketdata_log
    first, second = [
        compress_sharded(log, n_shards=2, n_clusters=3, jobs=jobs, seed=7)
        for jobs in (1, 2)
    ]
    assert np.array_equal(first.labels, second.labels)
    assert fingerprint(first.mixture) == fingerprint(second.mixture)
    assert first.error == second.error
