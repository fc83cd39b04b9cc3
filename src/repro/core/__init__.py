"""Core LogR library: logs, encodings, measures, and the compressor."""

from .compress import (
    CompressedLog,
    LogRCompressor,
    SweepPoint,
    compress_sharded,
    compress_sweep,
    compress_to_error,
    load_artifact,
)
from .executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    executor_for,
    spawn_generators,
)
from .pipeline import (
    CompressionPipeline,
    FitStage,
    PartitionStage,
    PipelineResult,
    RefineStage,
)
from .diff import (
    FeatureDrift,
    blended_marginals,
    divergence_timeline,
    feature_drift,
    mixture_divergence,
)
from .encoding import NaiveEncoding, PatternEncoding, naive_encoding
from .hierarchy import FrontierPoint, HierarchicalCompressor
from .entropy import (
    bernoulli_entropy,
    entropy,
    independent_entropy,
    kl_divergence,
)
from .estimate import (
    EstimationQuality,
    estimation_quality,
    marginal_deviation,
    synthesis_error,
    synthesize_patterns,
)
from . import kernels
from .colstore import ColumnarLog, ColumnarLogWriter
from .featurecache import CacheStats, CachedTemplate, FeatureCache, VocabularyCache
from .log import LogBuilder, QueryLog
from .lossless import (
    lossless_encoding,
    point_probability_from_marginals,
    reconstruct_distribution,
)
from .maxent import (
    BlockwiseMaxent,
    ClassBasedMaxent,
    IndependentMaxent,
    equivalence_classes,
    fit_extended_naive,
    fit_pattern_encoding,
    ipf_atoms,
    log2_bigint,
    maxent_entropy,
)
from .measures import (
    DeviationEstimate,
    ambiguity_precedes,
    constraint_rank,
    deviation,
    reproduction_error,
)
from .mining import frequent_patterns, pattern_support
from .mixture import MixtureComponent, PatternMixtureEncoding, fit_component
from .pattern import Pattern
from .refine import (
    RefinementResult,
    corr_rank,
    feature_correlation,
    refine_greedy,
    refined_error,
)
from .spaces import DistributionSampler, SampledDistribution
from .vocabulary import Vocabulary

__all__ = [
    "Vocabulary",
    "QueryLog",
    "LogBuilder",
    "kernels",
    "ColumnarLog",
    "ColumnarLogWriter",
    "CacheStats",
    "CachedTemplate",
    "FeatureCache",
    "VocabularyCache",
    "Pattern",
    "NaiveEncoding",
    "PatternEncoding",
    "naive_encoding",
    "PatternMixtureEncoding",
    "MixtureComponent",
    "entropy",
    "bernoulli_entropy",
    "independent_entropy",
    "kl_divergence",
    "maxent_entropy",
    "IndependentMaxent",
    "BlockwiseMaxent",
    "ClassBasedMaxent",
    "fit_extended_naive",
    "fit_pattern_encoding",
    "ipf_atoms",
    "equivalence_classes",
    "log2_bigint",
    "reproduction_error",
    "deviation",
    "DeviationEstimate",
    "constraint_rank",
    "ambiguity_precedes",
    "DistributionSampler",
    "SampledDistribution",
    "frequent_patterns",
    "pattern_support",
    "feature_correlation",
    "corr_rank",
    "refine_greedy",
    "refined_error",
    "RefinementResult",
    "synthesize_patterns",
    "synthesis_error",
    "marginal_deviation",
    "estimation_quality",
    "EstimationQuality",
    "LogRCompressor",
    "CompressedLog",
    "SweepPoint",
    "compress_sweep",
    "compress_to_error",
    "compress_sharded",
    "load_artifact",
    "fit_component",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "executor_for",
    "spawn_generators",
    "CompressionPipeline",
    "PartitionStage",
    "FitStage",
    "RefineStage",
    "PipelineResult",
    "lossless_encoding",
    "point_probability_from_marginals",
    "reconstruct_distribution",
    "HierarchicalCompressor",
    "FrontierPoint",
    "mixture_divergence",
    "divergence_timeline",
    "feature_drift",
    "FeatureDrift",
    "blended_marginals",
]
