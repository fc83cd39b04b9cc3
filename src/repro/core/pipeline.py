"""The staged LogR compression pipeline (§6, decomposed).

``LogRCompressor.compress`` used to be one monolithic loop; this module
splits it into three stages with explicit inputs and outputs so each
can be scheduled, timed, and parallelized independently:

* :class:`PartitionStage` — ``QueryLog → labels`` via the §6.1
  clustering strategies.  Serial by construction: the clustering
  threads one RNG through k-means++ restarts, and splitting that
  stream would change results.  Parallelism across *candidate
  clusterings* (K sweeps, shards) lives above this stage.
* :class:`FitStage` — ``(QueryLog, labels) → (partitions, mixture)``:
  one naive component per partition (§5.1), fanned out through the
  executor (:func:`repro.core.mixture.fit_component` per partition).
* :class:`RefineStage` — ``(partitions, mixture) → mixture`` with
  per-partition high-``corr_rank`` patterns (§6.4), also fanned out.

Stage contract: ``run`` is a pure function of its declared inputs (plus
the stage's construction-time configuration); any randomness enters as
a pre-seeded generator.  Executors only ever map pure, picklable task
payloads, so every stage is bit-identical at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._clock import Stopwatch
from ..cluster import ClusterSpec
from ..obs import metrics as _metrics
from ..obs.trace import span as _span
from .encoding import PatternEncoding
from .executor import Executor, SerialExecutor
from .log import QueryLog
from .mixture import PatternMixtureEncoding
from .refine import refine_greedy

__all__ = [
    "PartitionStage",
    "FitStage",
    "RefineStage",
    "CompressionPipeline",
    "PipelineResult",
]

# Telemetry only (see repro.obs): stage timings feed the histogram and
# the thread-local trace, never the computation.
_STAGE_SECONDS = _metrics.histogram(
    "logr_pipeline_stage_seconds",
    "Wall seconds per compression pipeline stage.",
    labelnames=("stage",),
)
_PIPELINE_RUNS = _metrics.counter(
    "logr_pipeline_runs_total",
    "Completed CompressionPipeline.run calls.",
)


@dataclass
class PipelineResult:
    """Everything the staged run produced, plus per-stage wall clock."""

    labels: np.ndarray  # cluster label per distinct row
    partitions: list[QueryLog]  # the label-induced sub-logs
    mixture: PatternMixtureEncoding  # fitted (and maybe refined) mixture
    timings: dict[str, float] = field(default_factory=dict)  # stage → seconds

    @property
    def total_seconds(self) -> float:
        return sum(self.timings.values())


class PartitionStage:
    """``QueryLog → labels``: the §6.1 clustering step.

    Consumes *rng* exactly like the pre-pipeline compressor did, so a
    compressor built with the same seed produces the same labels.
    """

    def __init__(
        self,
        n_clusters: int,
        method: str = "kmeans",
        metric: str = "euclidean",
        n_init: int = 10,
    ) -> None:
        self.n_clusters = n_clusters
        self.spec = ClusterSpec(method=method, metric=metric, n_init=n_init)

    def run(self, log: QueryLog, rng: np.random.Generator) -> np.ndarray:
        if self.n_clusters == 1 or log.n_distinct == 1:
            return np.zeros(log.n_distinct, dtype=int)
        return self.spec.labels_for(
            log.matrix.astype(float),
            self.n_clusters,
            sample_weight=log.counts.astype(float),
            seed=rng,
        )


class FitStage:
    """``(QueryLog, labels) → (partitions, mixture)``: naive fits (§5.1).

    Partition-parallel: each partition's component is an independent
    :func:`fit_component` task.
    """

    def run(
        self, log: QueryLog, labels: np.ndarray, executor: Executor
    ) -> tuple[list[QueryLog], PatternMixtureEncoding]:
        partitions = log.partition(labels)
        return partitions, PatternMixtureEncoding.from_partitions(
            partitions, log.vocabulary, executor=executor
        )


class RefineStage:
    """``(partitions, mixture) → mixture``: §6.4 pattern refinement.

    Partition-parallel like :class:`FitStage`; a no-op when
    ``refine_patterns <= 0``.  Mining + greedy re-scoring is the most
    Python-heavy stage, so it gains the most from a process executor.
    """

    def __init__(
        self,
        refine_patterns: int = 0,
        min_support: float = 0.05,
        max_pattern_size: int = 3,
    ) -> None:
        self.refine_patterns = refine_patterns
        self.min_support = min_support
        self.max_pattern_size = max_pattern_size

    def run(
        self,
        partitions: list[QueryLog],
        mixture: PatternMixtureEncoding,
        executor: Executor,
    ) -> PatternMixtureEncoding:
        if self.refine_patterns <= 0:
            return mixture
        tasks = [
            (partition, self.refine_patterns, self.min_support, self.max_pattern_size)
            for partition in partitions
        ]
        extras = executor.map(_refine_task, tasks)
        for component, extra in zip(mixture.components, extras):
            component.extra = extra
        return mixture


def _refine_task(payload: tuple[QueryLog, int, float, int]) -> PatternEncoding:
    """One partition's refinement; module-level for process executors."""
    partition, n_patterns, min_support, max_pattern_size = payload
    return refine_greedy(
        partition,
        n_patterns,
        min_support=min_support,
        max_pattern_size=max_pattern_size,
    ).extra


class CompressionPipeline:
    """Partition → Fit → Refine, against one executor.

    The assembled form of the §6 pipeline.  ``LogRCompressor`` builds
    one per ``compress`` call; standalone use composes custom stages::

        with executor_for(4) as executor:
            pipeline = CompressionPipeline(
                partition=PartitionStage(8, "spectral", "hamming"),
                fit=FitStage(),
                refine=RefineStage(4),
                executor=executor,
            )
            result = pipeline.run(log, rng=np.random.default_rng(0))
    """

    def __init__(
        self,
        partition: PartitionStage,
        fit: FitStage | None = None,
        refine: RefineStage | None = None,
        executor: Executor | None = None,
    ) -> None:
        self.partition = partition
        self.fit = fit or FitStage()
        self.refine = refine or RefineStage(0)
        self.executor = executor or SerialExecutor()

    def run(self, log: QueryLog, rng: np.random.Generator) -> PipelineResult:
        timings: dict[str, float] = {}
        watch = Stopwatch()
        with _span("pipeline.partition", n_clusters=self.partition.n_clusters):
            labels = self.partition.run(log, rng)
        timings["partition"] = watch.lap()
        _STAGE_SECONDS.observe(timings["partition"], stage="partition")

        with _span("pipeline.fit", executor=self.executor.kind):
            partitions, mixture = self.fit.run(log, labels, self.executor)
        timings["fit"] = watch.lap()
        _STAGE_SECONDS.observe(timings["fit"], stage="fit")

        with _span("pipeline.refine", executor=self.executor.kind):
            mixture = self.refine.run(partitions, mixture, self.executor)
        timings["refine"] = watch.lap()
        _STAGE_SECONDS.observe(timings["refine"], stage="refine")

        _PIPELINE_RUNS.inc()
        return PipelineResult(
            labels=labels,
            partitions=partitions,
            mixture=mixture,
            timings=timings,
        )
