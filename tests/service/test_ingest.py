"""Tests for incremental mini-batch ingestion."""

import numpy as np
import pytest

from repro.core.compress import LogRCompressor
from repro.core.mixture import PatternMixtureEncoding
from repro.service.ingest import IncrementalIngestor
from repro.workloads import generate_pocketdata, generate_tpch


@pytest.fixture()
def profile():
    workload = generate_pocketdata(total=5_000, n_distinct=100, seed=3)
    log = workload.to_query_log()
    compressed = LogRCompressor(n_clusters=4, seed=0, n_init=2).compress(log)
    return workload, log, compressed


def _exact_mixture(ingestor):
    """Ground truth: rebuild the mixture from the merged log + labels."""
    merged = ingestor.log
    partitions = merged.partition(ingestor.compressed.labels)
    return merged, PatternMixtureEncoding.from_partitions(
        partitions, merged.vocabulary
    )


def _assert_matches_exact(ingestor):
    _, exact = _exact_mixture(ingestor)
    live = ingestor.compressed.mixture
    assert exact.n_components == live.n_components
    for want, got in zip(exact.components, live.components):
        assert want.size == got.size
        assert np.allclose(want.encoding.marginals, got.encoding.marginals,
                           atol=1e-12)
        assert want.true_entropy == pytest.approx(got.true_entropy, abs=1e-9)
    assert ingestor.compressed.error == pytest.approx(exact.error(), abs=1e-9)


class TestIncrementalMerge:
    def test_same_distribution_batch(self, profile):
        workload, log, compressed = profile
        ingestor = IncrementalIngestor(
            compressed, log, staleness_threshold=float("inf")
        )
        batch = list(workload.statements(shuffle=True, seed=11))[:300]
        report = ingestor.ingest_statements(batch)
        assert report.n_encoded == 300
        assert not report.recompressed
        assert ingestor.compressed.mixture.total == log.total + 300
        _assert_matches_exact(ingestor)

    def test_duplicate_rows_merge_not_append(self, profile):
        workload, log, compressed = profile
        ingestor = IncrementalIngestor(
            compressed, log, staleness_threshold=float("inf")
        )
        batch = list(workload.statements(shuffle=True, seed=2))[:200]
        report = ingestor.ingest_statements(batch)
        # training-distribution statements are all known shapes
        assert report.n_new_rows == 0
        assert ingestor.log.n_distinct == log.n_distinct

    def test_foreign_batch_grows_codebook(self, profile):
        _, log, compressed = profile
        ingestor = IncrementalIngestor(
            compressed, log, staleness_threshold=float("inf")
        )
        foreign = list(
            generate_tpch(total=150, variants_per_template=4, seed=2).statements()
        )[:100]
        report = ingestor.ingest_statements(foreign)
        assert report.n_new_features > 0
        assert report.n_new_rows > 0
        assert ingestor.log.n_features == len(
            ingestor.compressed.mixture.vocabulary
        )
        _assert_matches_exact(ingestor)

    def test_successive_batches_stay_exact(self, profile):
        workload, log, compressed = profile
        ingestor = IncrementalIngestor(
            compressed, log, staleness_threshold=float("inf")
        )
        statements = list(workload.statements(shuffle=True, seed=5))[:600]
        for start in range(0, 600, 200):
            ingestor.ingest_statements(statements[start:start + 200])
        _assert_matches_exact(ingestor)

    def test_unparseable_statements_skipped(self, profile):
        _, log, compressed = profile
        ingestor = IncrementalIngestor(
            compressed, log, staleness_threshold=float("inf")
        )
        report = ingestor.ingest_statements(
            ["SELECT broken FROM (((", "EXEC some_proc 1"]
        )
        assert report.n_encoded == 0
        assert report.n_skipped == 2
        assert ingestor.compressed.mixture.total == log.total


class TestStaleness:
    def test_staleness_accumulates(self, profile):
        workload, log, compressed = profile
        ingestor = IncrementalIngestor(
            compressed, log, staleness_threshold=float("inf")
        )
        assert ingestor.staleness == pytest.approx(0.0, abs=1e-12)
        foreign = list(
            generate_tpch(total=200, variants_per_template=4, seed=1).statements()
        )[:150]
        report = ingestor.ingest_statements(foreign)
        # merging a foreign workload into fixed partitions degrades Error
        assert report.staleness > 0
        assert ingestor.staleness == pytest.approx(report.staleness)

    def test_threshold_triggers_recompression(self, profile):
        workload, log, compressed = profile
        ingestor = IncrementalIngestor(compressed, log, staleness_threshold=-1.0)
        batch = list(workload.statements(shuffle=True, seed=8))[:100]
        report = ingestor.ingest_statements(batch)
        assert report.recompressed
        assert ingestor.staleness == pytest.approx(0.0, abs=1e-12)
        assert len(ingestor.compressed.labels) == ingestor.log.n_distinct
        _assert_matches_exact(ingestor)

    def test_recompression_lowers_error_after_drift(self, profile):
        _, log, compressed = profile
        ingestor = IncrementalIngestor(
            compressed, log, staleness_threshold=float("inf"), seed=0
        )
        foreign = list(
            generate_tpch(total=400, variants_per_template=6, seed=3).statements()
        )[:300]
        ingestor.ingest_statements(foreign)
        stale_error = ingestor.compressed.error
        recompressed = ingestor.recompress()
        assert recompressed.error <= stale_error + 1e-9

    def test_rejects_refined_mixture(self, profile):
        workload, log, _ = profile
        refined = LogRCompressor(
            n_clusters=2, refine_patterns=1, min_support=0.2, seed=0, n_init=2
        ).compress(log)
        with pytest.raises(ValueError):
            IncrementalIngestor(refined, log)


class TestExecutorRecompression:
    def test_parallel_recompression_matches_serial(self):
        # The staleness escape hatch runs through the pipeline executor;
        # worker count must not change the recompressed profile.  The
        # ingestor takes ownership of its artifact, so each run gets a
        # freshly compressed profile.
        batch = [
            sql
            for sql, _ in generate_pocketdata(
                total=400, n_distinct=40, seed=9
            ).entries
        ]
        results = []
        for jobs in (1, 2):
            log = generate_pocketdata(
                total=5_000, n_distinct=100, seed=3
            ).to_query_log()
            compressed = LogRCompressor(n_clusters=4, seed=0, n_init=2).compress(
                log
            )
            ingestor = IncrementalIngestor(
                compressed,
                log,
                staleness_threshold=-1.0,  # force recompression every batch
                seed=0,
                jobs=jobs,
            )
            report = ingestor.ingest_statements(batch)
            assert report.recompressed
            results.append(ingestor.compressed)
        serial, parallel = results
        assert np.array_equal(serial.labels, parallel.labels)
        assert serial.error == parallel.error
        assert serial.total_verbosity == parallel.total_verbosity
