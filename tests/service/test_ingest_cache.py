"""Cached and uncached ingestion must be bit-identical, everywhere.

The fingerprint fast path's whole contract is invisibility: for any
statement stream — repeated templates, fresh templates arriving
mid-stream, literal variation, garbage, stored procedures — the cached
and cold paths must produce identical ``QueryLog``s (same vocabulary
order, same matrices, same counts), identical reports, and identical
summary Error, across windowed pane boundaries.  These are hypothesis
property tests over exactly that statement space, plus the
skip-accounting satellite.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compress import LogRCompressor
from repro.service import SummaryStore, WindowedProfile
from repro.service.ingest import IncrementalIngestor
from repro.workloads.logio import load_log

#: A compact but adversarial statement space: stable templates with
#: literal churn, a growing family of *new* templates, multi-branch
#: queries, stored procedures, and unparseable garbage.
_LITERALS = st.integers(min_value=0, max_value=3)
_NEW_TEMPLATE = st.integers(min_value=0, max_value=5)

_STATEMENTS = st.one_of(
    _LITERALS.map(lambda v: f"SELECT a FROM t WHERE x = {v}"),
    _LITERALS.map(lambda v: f"SELECT b, a FROM t WHERE y = {v} AND z = {v + 1}"),
    _LITERALS.map(lambda v: f"SELECT c FROM u WHERE s = 'name-{v}'"),
    _LITERALS.map(lambda v: f"SELECT a FROM t WHERE x = {v} OR y = {v}"),
    _LITERALS.map(lambda v: f"SELECT a FROM t LIMIT {v + 1}"),
    _NEW_TEMPLATE.map(lambda n: f"SELECT q{n}, r{n} FROM tab{n} WHERE k{n} = 1"),
    _LITERALS.map(lambda v: f"EXEC sp_thing @p = {v}"),
    st.just("CALL housekeeping(1)"),
    st.just("THIS IS NOT SQL @@@"),
    st.just("SELECT FROM WHERE"),  # lexes fine, fails to parse
)

_BOOTSTRAP = [
    "SELECT a FROM t WHERE x = 0",
    "SELECT b, a FROM t WHERE y = 0 AND z = 1",
    "SELECT c FROM u WHERE s = 'seed'",
    "SELECT base FROM t",
]


def _fresh_ingestor(cached: bool) -> IncrementalIngestor:
    log, _ = load_log(_BOOTSTRAP, parse_cache=cached)
    compressed = LogRCompressor(n_clusters=2, seed=0, n_init=2).compress(log)
    return IncrementalIngestor(
        compressed,
        log,
        staleness_threshold=float("inf"),
        parse_cache=cached,
        parse_cache_size=8,  # tiny, so eviction paths run too
    )


class TestCachedUncachedEquivalence:
    @given(stream=st.lists(_STATEMENTS, min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_ingestion_is_bit_identical(self, stream):
        results = {}
        for cached in (True, False):
            ingestor = _fresh_ingestor(cached)
            reports = [
                ingestor.ingest_statements(stream[i : i + 7])
                for i in range(0, len(stream), 7)
            ]
            results[cached] = (ingestor, reports)
        warm, warm_reports = results[True]
        cold, cold_reports = results[False]
        warm_log, cold_log = warm.log, cold.log
        assert np.array_equal(warm_log.matrix, cold_log.matrix)
        assert np.array_equal(warm_log.counts, cold_log.counts)
        assert list(warm_log.vocabulary) == list(cold_log.vocabulary)
        assert warm.compressed.error == cold.compressed.error
        for a, b in zip(warm_reports, cold_reports):
            assert (
                a.n_statements, a.n_encoded, a.n_skipped,
                a.n_skipped_procedures, a.n_skipped_unparseable,
                a.n_batch_distinct, a.n_new_rows, a.n_new_features,
                a.error_bits, a.staleness,
            ) == (
                b.n_statements, b.n_encoded, b.n_skipped,
                b.n_skipped_procedures, b.n_skipped_unparseable,
                b.n_batch_distinct, b.n_new_rows, b.n_new_features,
                b.error_bits, b.staleness,
            )

    @given(stream=st.lists(_STATEMENTS, min_size=1, max_size=30))
    @settings(max_examples=20, deadline=None)
    def test_load_log_is_bit_identical(self, stream):
        statements = _BOOTSTRAP + stream
        warm_log, warm_report = load_log(statements, parse_cache=True,
                                         parse_cache_size=8)
        cold_log, cold_report = load_log(statements, parse_cache=False)
        assert np.array_equal(warm_log.matrix, cold_log.matrix)
        assert np.array_equal(warm_log.counts, cold_log.counts)
        assert list(warm_log.vocabulary) == list(cold_log.vocabulary)
        assert (
            warm_report.parsed, warm_report.unparseable,
            warm_report.stored_procedures, warm_report.non_rewritable,
            warm_report.conjunctive_branches,
        ) == (
            cold_report.parsed, cold_report.unparseable,
            cold_report.stored_procedures, cold_report.non_rewritable,
            cold_report.conjunctive_branches,
        )

    @given(stream=st.lists(_STATEMENTS, min_size=12, max_size=36))
    @settings(max_examples=10, deadline=None)
    def test_pane_boundaries_are_bit_identical(self, stream):
        """Windowed ingestion (panes sealed mid-stream, one shared
        template cache across panes) matches the uncached profile."""
        stream = _BOOTSTRAP + stream
        timelines = {}
        for cached in (True, False):
            with tempfile.TemporaryDirectory() as root:
                windowed = WindowedProfile(
                    SummaryStore(root),
                    "prop",
                    pane_statements=7,
                    n_clusters=2,
                    n_init=2,
                    seed=0,
                    parse_cache=cached,
                    parse_cache_size=8,
                )
                windowed.ingest(stream)
                windowed.roll(note="flush")
                panes = []
                for record in windowed.panes():
                    payload = (
                        None
                        if record.total == 0
                        else windowed.pane_mixture(record.index).to_payload()
                    )
                    panes.append(
                        (record.n_statements, record.n_encoded, record.total,
                         record.error_bits, payload)
                    )
                timelines[cached] = panes
        assert timelines[True] == timelines[False]


class TestSkipAccounting:
    """Satellite: IngestReport distinguishes stored-procedure skips
    from parse failures (and the split survives the cache)."""

    @pytest.mark.parametrize("cached", [True, False])
    def test_skip_split(self, cached):
        ingestor = _fresh_ingestor(cached)
        report = ingestor.ingest_statements(
            [
                "SELECT a FROM t WHERE x = 5",
                "EXEC sp_one @p = 1",
                "exec sp_lowercase 2",
                "CALL cleanup(3)",
                "NOT SQL AT ALL @@@",
                "SELECT FROM WHERE",
            ]
        )
        assert report.n_statements == 6
        assert report.n_encoded == 1
        assert report.n_skipped == 5
        assert report.n_skipped_procedures == 3
        assert report.n_skipped_unparseable == 2
        assert report.n_skipped == (
            report.n_skipped_procedures + report.n_skipped_unparseable
        )
        assert "3 stored-proc" in str(report)
        assert "2 unparseable" in str(report)

    def test_feature_set_ingest_reports_no_skips(self):
        ingestor = _fresh_ingestor(True)
        report = ingestor.ingest_feature_sets([[("a", "SELECT")]])
        assert report.n_skipped == 0
        assert report.n_skipped_procedures == 0
        assert report.n_skipped_unparseable == 0

    def test_mismatched_shared_cache_rejected(self):
        from repro.core.featurecache import FeatureCache
        from repro.core.mixture import PatternMixtureEncoding
        from repro.apps.stream import StreamingDriftMonitor
        from repro.sql import AligonExtractor

        mismatched = FeatureCache(AligonExtractor(remove_constants=False))
        log, _ = load_log(_BOOTSTRAP)
        compressed = LogRCompressor(n_clusters=2, seed=0, n_init=2).compress(log)
        with pytest.raises(ValueError, match="parsing knobs"):
            IncrementalIngestor(compressed, log, feature_cache=mismatched)
        baseline = PatternMixtureEncoding.from_log(log)
        with pytest.raises(ValueError, match="parsing knobs"):
            StreamingDriftMonitor(
                baseline, window_size=10, threshold=1.0,
                feature_cache=mismatched,
            )

    def test_cache_stats_exposed(self):
        ingestor = _fresh_ingestor(True)
        ingestor.ingest_statements(
            ["SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x = 2"]
        )
        stats = ingestor.parse_cache_stats
        assert stats["rows"]["hits"] >= 1
        assert 0.0 < stats["rows"]["hit_rate"] <= 1.0
        assert _fresh_ingestor(False).parse_cache_stats is None
