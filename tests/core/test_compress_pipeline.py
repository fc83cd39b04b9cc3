"""Staged-pipeline and parallel-determinism tests.

The executor contract (repro.core.executor) promises that compress(),
compress_sweep(), compress_to_error(), and compress_sharded() are
bit-identical across jobs ∈ {1, 2, 4} and across the serial / thread /
process backends at a fixed seed.  These tests are that promise,
executed.
"""

import numpy as np
import pytest

from repro.core.compress import (
    LogRCompressor,
    compress_sharded,
    compress_sweep,
    compress_to_error,
)
from repro.core.executor import get_executor
from repro.core.mixture import PatternMixtureEncoding
from repro.core.pipeline import (
    CompressionPipeline,
    FitStage,
    PartitionStage,
    RefineStage,
)

#: The property-test grid from the issue: every backend at 1/2/4 workers.
PARALLEL_GRID = [
    ("serial", 1),
    ("thread", 2),
    ("thread", 4),
    ("process", 2),
    ("process", 4),
]


def _artifact_key(compressed):
    """Everything observable about an artifact except wall-clock time."""
    return (
        compressed.labels.tolist(),
        compressed.error,
        compressed.total_verbosity,
        compressed.n_clusters,
        [c.encoding.marginals.tolist() for c in compressed.mixture.components],
        [c.true_entropy for c in compressed.mixture.components],
    )


class TestStages:
    def test_partition_stage_matches_compressor(self, small_pocketdata_log):
        stage_labels = PartitionStage(4, "kmeans", "euclidean", n_init=3).run(
            small_pocketdata_log, np.random.default_rng(0)
        )
        compressor_labels = LogRCompressor(
            n_clusters=4, n_init=3, seed=0
        ).partition_labels(small_pocketdata_log)
        assert np.array_equal(stage_labels, compressor_labels)

    def test_partition_stage_single_cluster_shortcut(self, example4_log):
        labels = PartitionStage(1).run(example4_log, np.random.default_rng(0))
        assert np.array_equal(labels, np.zeros(example4_log.n_distinct))

    def test_fit_stage_matches_from_partitions(self, small_pocketdata_log):
        labels = np.arange(small_pocketdata_log.n_distinct) % 3
        partitions, mixture = FitStage().run(
            small_pocketdata_log, labels, get_executor("serial")
        )
        reference = PatternMixtureEncoding.from_partitions(
            small_pocketdata_log.partition(labels),
            small_pocketdata_log.vocabulary,
        )
        assert len(partitions) == 3
        assert mixture.error() == reference.error()
        assert mixture.total_verbosity == reference.total_verbosity

    def test_refine_stage_noop_without_patterns(self, example4_log):
        labels = np.zeros(example4_log.n_distinct, dtype=int)
        partitions, mixture = FitStage().run(
            example4_log, labels, get_executor("serial")
        )
        refined = RefineStage(0).run(partitions, mixture, get_executor("serial"))
        assert all(c.extra is None for c in refined.components)

    def test_pipeline_records_stage_timings(self, small_pocketdata_log):
        pipeline = CompressionPipeline(partition=PartitionStage(3, n_init=2))
        result = pipeline.run(small_pocketdata_log, np.random.default_rng(0))
        assert set(result.timings) == {"partition", "fit", "refine"}
        assert all(seconds >= 0 for seconds in result.timings.values())
        assert result.total_seconds == sum(result.timings.values())
        assert result.mixture.n_components == len(result.partitions)


class TestCompressDeterminism:
    @pytest.fixture(scope="class")
    def reference(self, small_pocketdata_log):
        return LogRCompressor(
            n_clusters=5, n_init=2, refine_patterns=2, seed=11
        ).compress(small_pocketdata_log)

    @pytest.mark.parametrize("kind,jobs", PARALLEL_GRID)
    def test_bit_identical_across_executors(
        self, small_pocketdata_log, reference, kind, jobs
    ):
        compressed = LogRCompressor(
            n_clusters=5, n_init=2, refine_patterns=2, seed=11,
            jobs=jobs, executor=kind,
        ).compress(small_pocketdata_log)
        assert _artifact_key(compressed) == _artifact_key(reference)
        # refinement extras must also agree exactly
        for ours, theirs in zip(
            compressed.mixture.components, reference.mixture.components
        ):
            ours_extra = dict(ours.extra.items()) if ours.extra else None
            theirs_extra = dict(theirs.extra.items()) if theirs.extra else None
            assert ours_extra == theirs_extra

    def test_executor_instance_reusable_across_calls(self, small_pocketdata_log):
        serial = LogRCompressor(n_clusters=3, n_init=2, seed=4).compress(
            small_pocketdata_log
        )
        with get_executor("thread", 2) as executor:
            first = LogRCompressor(
                n_clusters=3, n_init=2, seed=4, executor=executor
            ).compress(small_pocketdata_log)
            second = LogRCompressor(
                n_clusters=3, n_init=2, seed=4, executor=executor
            ).compress(small_pocketdata_log)
        assert _artifact_key(first) == _artifact_key(serial)
        assert _artifact_key(second) == _artifact_key(serial)


class TestSweepDeterminism:
    KS = [1, 2, 4]

    @pytest.fixture(scope="class")
    def reference(self, small_pocketdata_log):
        return compress_sweep(small_pocketdata_log, self.KS, n_init=2, seed=11)

    @pytest.mark.parametrize("kind,jobs", PARALLEL_GRID)
    def test_bit_identical_across_executors(
        self, small_pocketdata_log, reference, kind, jobs
    ):
        points = compress_sweep(
            small_pocketdata_log, self.KS, n_init=2, seed=11,
            jobs=jobs, executor=kind,
        )
        assert [(p.n_clusters, p.error, p.verbosity) for p in points] == [
            (p.n_clusters, p.error, p.verbosity) for p in reference
        ]


class TestCompressToErrorDeterminism:
    @pytest.mark.parametrize("kind,jobs", [("thread", 2), ("process", 4)])
    def test_speculative_search_matches_serial(
        self, small_pocketdata_log, kind, jobs
    ):
        serial = compress_to_error(
            small_pocketdata_log, 0.0, max_clusters=8, n_init=2, seed=13
        )
        parallel = compress_to_error(
            small_pocketdata_log, 0.0, max_clusters=8, n_init=2, seed=13,
            jobs=jobs, executor=kind,
        )
        assert _artifact_key(parallel) == _artifact_key(serial)

    def test_midwave_target_returns_smallest_k(self, small_pocketdata_log):
        # A trivially reachable target must return K=1 even when the
        # wave speculates past it.
        compressed = compress_to_error(
            small_pocketdata_log, 1e9, max_clusters=16, n_init=2, seed=0,
            jobs=4, executor="process",
        )
        assert compressed.n_clusters == 1


class TestShardedDeterminism:
    @pytest.fixture(scope="class")
    def reference(self, small_pocketdata_log):
        return compress_sharded(
            small_pocketdata_log, n_shards=4, n_clusters=2, n_init=2, seed=11
        )

    @pytest.mark.parametrize("kind,jobs", PARALLEL_GRID)
    def test_bit_identical_across_executors(
        self, small_pocketdata_log, reference, kind, jobs
    ):
        compressed = compress_sharded(
            small_pocketdata_log, n_shards=4, n_clusters=2, n_init=2, seed=11,
            jobs=jobs, executor=kind,
        )
        assert _artifact_key(compressed) == _artifact_key(reference)

    def test_consolidated_determinism(self, small_pocketdata_log):
        serial = compress_sharded(
            small_pocketdata_log, n_shards=4, n_clusters=2, n_init=2,
            consolidate_to=3, seed=11,
        )
        parallel = compress_sharded(
            small_pocketdata_log, n_shards=4, n_clusters=2, n_init=2,
            consolidate_to=3, seed=11, jobs=4, executor="process",
        )
        assert _artifact_key(parallel) == _artifact_key(serial)
        assert serial.n_clusters == 3
        assert serial.labels.max() < 3


class TestShardedSemantics:
    def test_labels_cover_every_distinct_row(self, small_pocketdata_log):
        compressed = compress_sharded(
            small_pocketdata_log, n_shards=3, n_clusters=2, n_init=2, seed=0
        )
        assert compressed.labels.shape == (small_pocketdata_log.n_distinct,)
        assert compressed.n_clusters == compressed.mixture.n_components
        assert compressed.labels.max() == compressed.n_clusters - 1

    def test_merged_measures_are_exact(self, small_pocketdata_log):
        # Each component's Error/size is computed inside its shard; the
        # merged artifact must report exactly the measures of the
        # equivalent flat partitioning of the full log.
        compressed = compress_sharded(
            small_pocketdata_log, n_shards=3, n_clusters=2, n_init=2, seed=5
        )
        flat = PatternMixtureEncoding.from_partitions(
            small_pocketdata_log.partition(compressed.labels),
            small_pocketdata_log.vocabulary,
        )
        assert compressed.mixture.total == small_pocketdata_log.total
        assert compressed.error == pytest.approx(flat.error(), abs=1e-9)
        assert compressed.total_verbosity == flat.total_verbosity

    def test_single_shard_matches_compressor(self, small_pocketdata_log):
        sharded = compress_sharded(
            small_pocketdata_log, n_shards=1, n_clusters=4, n_init=2, seed=9
        )
        direct = LogRCompressor(n_clusters=4, n_init=2, seed=9).compress(
            small_pocketdata_log
        )
        # one shard = the whole log, so the mixture must match the
        # direct compression exactly (labels are normalized, so compare
        # the induced partitions).
        assert sharded.error == pytest.approx(direct.error, abs=1e-12)
        assert sharded.total_verbosity == direct.total_verbosity
        assert np.array_equal(
            np.unique(sharded.labels, return_inverse=True)[1],
            np.unique(direct.labels, return_inverse=True)[1],
        )

    def test_more_shards_than_rows(self, example4_log):
        compressed = compress_sharded(
            example4_log, n_shards=10, n_clusters=2, seed=0
        )
        assert compressed.labels.shape == (example4_log.n_distinct,)
        assert compressed.mixture.total == example4_log.total

    def test_sharded_error_within_documented_bound(self, small_pocketdata_log):
        # The documented bound: sharded compression pays for never
        # letting rows compete across shards, but each shard still
        # partitions locally, so at S shards x K clusters the Error
        # cannot exceed the single-component (K=1) encoding and should
        # sit near the single-pass S*K compression.
        sharded = compress_sharded(
            small_pocketdata_log, n_shards=4, n_clusters=2, n_init=3, seed=0
        )
        naive = LogRCompressor(n_clusters=1).compress(small_pocketdata_log)
        single_pass = LogRCompressor(n_clusters=8, n_init=3, seed=0).compress(
            small_pocketdata_log
        )
        assert sharded.error <= naive.error + 1e-9
        # measured slack on this workload is ~1.6x; 2.5x is the alarm line
        assert sharded.error <= 2.5 * single_pass.error + 0.5

    def test_invalid_shards(self, example4_log):
        with pytest.raises(ValueError):
            compress_sharded(example4_log, n_shards=0)
