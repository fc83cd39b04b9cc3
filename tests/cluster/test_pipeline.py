"""Tests for the unified clustering dispatcher."""

import numpy as np
import pytest

from repro.cluster.distance import METRICS
from repro.cluster.pipeline import (
    METHODS,
    PAPER_STRATEGIES,
    check_strategy,
    cluster_vectors,
)


def blobs():
    rng = np.random.default_rng(0)
    a = (rng.random((20, 8)) < 0.1).astype(float)
    a[:, :2] = 1
    b = (rng.random((20, 8)) < 0.1).astype(float)
    b[:, 6:] = 1
    return np.vstack([a, b])


class TestDispatcher:
    @pytest.mark.parametrize("method,metric", PAPER_STRATEGIES)
    def test_paper_strategies_run(self, method, metric):
        X = blobs()
        labels = cluster_vectors(X, 2, method=method, metric=metric, seed=0, n_init=3)
        assert labels.shape == (40,)
        assert set(labels) <= {0, 1}

    def test_hierarchical_dispatch(self):
        labels = cluster_vectors(blobs(), 3, method="hierarchical", metric="hamming")
        assert len(np.unique(labels)) == 3

    def test_k1_short_circuits(self):
        labels = cluster_vectors(blobs(), 1, seed=0)
        assert (labels == 0).all()

    def test_kmeans_rejects_other_metrics(self):
        with pytest.raises(ValueError):
            cluster_vectors(blobs(), 2, method="kmeans", metric="hamming")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            cluster_vectors(blobs(), 2, method="dbscan")

    def test_strategy_checked_even_at_k1(self):
        for method, metric in (("kmeans", "hamming"), ("spectral", "bogus")):
            with pytest.raises(ValueError):
                cluster_vectors(blobs(), 1, method=method, metric=metric)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            cluster_vectors(np.zeros((0, 3)), 2)

    def test_weights_forwarded(self):
        X = blobs()
        weights = np.ones(40)
        weights[0] = 100.0
        labels = cluster_vectors(X, 2, sample_weight=weights, seed=0, n_init=3)
        assert labels.shape == (40,)


class TestCheckStrategy:
    def test_every_non_kmeans_pair_is_supported(self):
        for method in METHODS:
            for metric in METRICS:
                if method != "kmeans":
                    check_strategy(method, metric)
        check_strategy("kmeans", "euclidean")

    @pytest.mark.parametrize(
        "method,metric,message",
        [
            ("dbscan", "euclidean", "unknown clustering method"),
            ("spectral", "bogus", "unknown metric"),
            ("kmeans", "manhattan", "only the euclidean metric"),
        ],
    )
    def test_unsupported_pairs_name_the_problem(self, method, metric, message):
        with pytest.raises(ValueError, match=message):
            check_strategy(method, metric)
