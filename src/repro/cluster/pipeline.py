"""Unified entry point for partitioning feature-vector matrices.

`cluster_vectors` dispatches to the KMeans / spectral / hierarchical
implementations behind one signature, so that ``LogRCompressor``,
mixture consolidation and the Figure-2 benchmark sweep methods
uniformly.  The method names match the four strategies evaluated in
§6.1:

* ``("kmeans", "euclidean")`` — KMeans with l2 (the paper's fastest),
* ``("spectral", "manhattan")``,
* ``("spectral", "minkowski")`` — p = 4,
* ``("spectral", "hamming")`` — the paper's best Error/runtime tradeoff,

plus ``("hierarchical", <metric>)`` for the monotonic alternative.
`check_strategy` is the one rule for which (method, metric) pairs are
supported; `cluster_vectors` and ``LogRCompressor`` both check it up
front.
"""

from __future__ import annotations

import numpy as np

from .._rng import ensure_rng
from .distance import METRICS
from .hierarchical import AgglomerativeClustering
from .kmeans import KMeans
from .spectral import SpectralClustering

__all__ = ["cluster_vectors", "check_strategy", "METHODS", "PAPER_STRATEGIES"]

#: The clustering methods :func:`cluster_vectors` dispatches to.
METHODS = ("kmeans", "spectral", "hierarchical")

#: The four (method, metric) pairs compared in Figure 2.
PAPER_STRATEGIES = (
    ("kmeans", "euclidean"),
    ("spectral", "manhattan"),
    ("spectral", "minkowski"),
    ("spectral", "hamming"),
)


def check_strategy(method: str, metric: str) -> None:
    """Raise ``ValueError`` unless (*method*, *metric*) can cluster.

    Spectral and hierarchical clustering take any metric of
    :data:`repro.cluster.distance.METRICS`; k-means takes only
    ``euclidean``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown clustering method {method!r}")
    if metric not in METRICS:
        raise ValueError(
            f"unknown metric {metric!r} (choose from {', '.join(METRICS)})"
        )
    if method == "kmeans" and metric != "euclidean":
        raise ValueError("kmeans supports only the euclidean metric")


def cluster_vectors(
    X: np.ndarray,
    n_clusters: int,
    method: str = "kmeans",
    metric: str = "euclidean",
    sample_weight: np.ndarray | None = None,
    p: float = 4.0,
    linkage: str = "average",
    n_init: int = 10,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Partition rows of ``X`` into ``n_clusters`` groups.

    Returns an integer label array of shape ``(len(X),)``.  Labels are
    contiguous starting from zero but a cluster may be empty when the
    algorithm converges degenerately; callers that need non-empty
    partitions should compact labels.  An unsupported strategy raises
    ``ValueError`` (see :func:`check_strategy`), even when K or the row
    count makes clustering trivial.
    """
    check_strategy(method, metric)
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n == 0:
        raise ValueError("cannot cluster an empty matrix")
    k = min(n_clusters, n)
    if k <= 1:
        return np.zeros(n, dtype=int)
    rng = ensure_rng(seed)
    if method == "kmeans":
        return KMeans(k, n_init=n_init, seed=rng).fit(X, sample_weight).labels
    if method == "spectral":
        model = SpectralClustering(k, metric=metric, p=p, n_init=n_init, seed=rng)
        return model.fit(X, sample_weight).labels
    dendrogram = AgglomerativeClustering(linkage, metric, p).fit(X)
    return dendrogram.cut(k)
