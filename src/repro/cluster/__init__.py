"""Clustering substrate: distances, KMeans, spectral, hierarchical.

A self-contained replacement for the parts of scikit-learn the paper
uses (``KMeans`` and ``SpectralClustering``), plus the hierarchical
alternative §6.1 proposes for monotonic Error/Verbosity control.
"""

from .distance import (
    METRICS,
    canberra,
    chebyshev,
    euclidean,
    hamming,
    manhattan,
    minkowski,
    pairwise,
    pairwise_from_metric,
)
from .hierarchical import AgglomerativeClustering, Dendrogram, hierarchical_fit
from .kmeans import KMeans, KMeansResult, kmeans_fit
from .pipeline import METHODS, PAPER_STRATEGIES, check_strategy, cluster_vectors
from .spectral import SpectralClustering, SpectralResult, spectral_fit

__all__ = [
    "METRICS",
    "euclidean",
    "manhattan",
    "minkowski",
    "hamming",
    "chebyshev",
    "canberra",
    "pairwise",
    "pairwise_from_metric",
    "KMeans",
    "KMeansResult",
    "kmeans_fit",
    "SpectralClustering",
    "SpectralResult",
    "spectral_fit",
    "AgglomerativeClustering",
    "Dendrogram",
    "hierarchical_fit",
    "cluster_vectors",
    "check_strategy",
    "METHODS",
    "PAPER_STRATEGIES",
]
