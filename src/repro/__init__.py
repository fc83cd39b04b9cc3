"""LogR: lossy query-log compression for workload analytics.

A from-scratch reproduction of *"Query Log Compression for Workload
Analytics"* (Ting Xie, Varun Chandola, Oliver Kennedy; VLDB 2018,
arXiv:1809.00405).  The public API mirrors the paper's pipeline::

    from repro import LogRCompressor, load_log
    from repro.workloads import generate_pocketdata

    workload = generate_pocketdata(total=100_000)
    log = workload.to_query_log()                 # codebook + bit-vectors
    compressed = LogRCompressor(n_clusters=8).compress(log)
    print(compressed.error, compressed.total_verbosity)
    compressed.estimate_count([...])              # Γ_b workload statistics

Sub-packages: :mod:`repro.sql` (parser / regularizer / features),
:mod:`repro.core` (encodings, measures, maxent, compressor),
:mod:`repro.cluster` (KMeans / spectral / hierarchical),
:mod:`repro.workloads` (generators, datasets, log IO),
:mod:`repro.baselines` (Laserlight, MTV, mixtures, sampling),
:mod:`repro.apps` (index advisor, view selector, monitor),
:mod:`repro.viz` (encoding rendering).
"""

from .core import (
    CompressedLog,
    LogBuilder,
    LogRCompressor,
    NaiveEncoding,
    Pattern,
    PatternEncoding,
    PatternMixtureEncoding,
    QueryLog,
    Vocabulary,
    compress_sharded,
    compress_sweep,
    compress_to_error,
    deviation,
    load_artifact,
    reproduction_error,
)
from .workloads.logio import load_log

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "LogRCompressor",
    "CompressedLog",
    "compress_sweep",
    "compress_to_error",
    "compress_sharded",
    "QueryLog",
    "LogBuilder",
    "Vocabulary",
    "Pattern",
    "NaiveEncoding",
    "PatternEncoding",
    "PatternMixtureEncoding",
    "reproduction_error",
    "deviation",
    "load_log",
    "load_artifact",
]
