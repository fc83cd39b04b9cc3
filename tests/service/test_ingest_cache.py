"""Ingestion through the fingerprint cache must match the plain extractor.

The fingerprint cache is the only statement encoder, and its whole
contract is invisibility: for any statement stream — repeated
templates, fresh templates arriving mid-stream, literal variation,
garbage, non-rewritable queries, stored procedures — it must produce
exactly what running :class:`~repro.sql.AligonExtractor` on every
statement would: identical ``QueryLog``s (same vocabulary order, same
matrices, same counts), identical reports and error samples, and
identical summary Error, across windowed pane boundaries.  That plain
loop lives here as the oracle (:func:`_cold_load_log`,
:func:`_cold_ingest`); the cached side runs with tiny caches so
template and row evictions happen too.  These are hypothesis property
tests over exactly that statement space, plus the skip accounting of
``IngestReport``.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compress import LogRCompressor
from repro.core.featurecache import FeatureCache
from repro.core.log import LogBuilder
from repro.service import SummaryStore, WindowedProfile
from repro.service import windows as windows_module
from repro.service.ingest import IncrementalIngestor
from repro.sql import AligonExtractor, SqlError, parse
from repro.workloads.logio import EmptyLogError, LoadReport, load_log

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
    # Literal variants of one failing template: each error sample must
    # quote its own statement's parser message.
    _LITERALS.map(lambda v: f"SELECT a FROM t WHERE x = {v} {v + 1}"),
    # Parses, but its DNF (2^7 branches) exceeds max_disjuncts.
    _LITERALS.map(
        lambda v: "SELECT a FROM t WHERE "
        + " AND ".join(f"(c{i} = {v} OR d{i} = {v})" for i in range(7))
    ),
)

_BOOTSTRAP = [
    "SELECT a FROM t WHERE x = 0",
    "SELECT b, a FROM t WHERE y = 0 AND z = 1",
    "SELECT c FROM u WHERE s = 'seed'",
    "SELECT base FROM t",
    # Caches the failing template, so later variants are template hits.
    "SELECT a FROM t WHERE x = 0 1",
]


def _is_procedure(statement: str) -> bool:
    return statement.lstrip().upper().startswith(("EXEC ", "CALL "))


def _cold_load_log(
    statements,
    remove_constants=True,
    max_disjuncts=64,
    max_errors_kept=20,
    feature_cache=None,
):
    """Oracle for ``load_log``: the plain extractor on every statement.

    A failure counts as non-rewritable when a plain parse succeeds;
    error samples are one line per distinct raw failing statement.
    *feature_cache* is accepted and ignored, so this can stand in for
    ``load_log`` inside :class:`WindowedProfile`.
    """
    extractor = AligonExtractor(
        remove_constants=remove_constants, max_disjuncts=max_disjuncts
    )
    builder = LogBuilder()
    report = LoadReport()
    failed: set[str] = set()
    for statement in statements:
        report.total_statements += 1
        if _is_procedure(statement):
            report.stored_procedures += 1
            continue
        try:
            feature_sets = extractor.extract(statement)
        except SqlError as exc:
            if statement not in failed and len(report.errors) < max_errors_kept:
                report.errors.append(f"{exc}: {statement[:120]}")
            failed.add(statement)
            try:
                parse(statement)
            except SqlError:
                report.unparseable += 1
            else:
                report.parsed += 1
                report.non_rewritable += 1
            continue
        report.parsed += 1
        report.conjunctive_branches += len(feature_sets)
        builder.add(frozenset().union(*feature_sets))
    if len(builder) == 0:
        raise EmptyLogError("no usable statements in the input log")
    return builder.build(), report


def _cold_ingest(ingestor, statements):
    """Oracle for ``ingest_statements``: extract every statement, drop
    procedures and failures, merge the rest with ``ingest_feature_sets``.

    Returns ``(report, n_procedures, n_unparseable)``.
    """
    extractor = AligonExtractor(remove_constants=True)
    feature_sets = []
    procedures = unparseable = 0
    for statement in statements:
        if _is_procedure(statement):
            procedures += 1
            continue
        try:
            feature_sets.append(extractor.extract_merged(statement))
        except SqlError:
            unparseable += 1
    return ingestor.ingest_feature_sets(feature_sets), procedures, unparseable


def _tiny_cache() -> FeatureCache:
    """Eight templates (and, in an ingestor, eight rows): evictions run."""
    return FeatureCache(AligonExtractor(remove_constants=True), max_templates=8)


def _fresh_ingestor(load=load_log) -> IncrementalIngestor:
    log, _ = load(_BOOTSTRAP)
    compressed = LogRCompressor(n_clusters=2, seed=0, n_init=2).compress(log)
    return IncrementalIngestor(
        compressed,
        log,
        staleness_threshold=float("inf"),
        feature_cache=_tiny_cache(),
    )


def _assert_same_log(actual, expected) -> None:
    assert np.array_equal(actual.matrix, expected.matrix)
    assert np.array_equal(actual.counts, expected.counts)
    assert list(actual.vocabulary) == list(expected.vocabulary)


class TestCachedUncachedEquivalence:
    @given(stream=st.lists(_STATEMENTS, min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_ingestion_is_bit_identical(self, stream):
        warm = _fresh_ingestor()
        cold = _fresh_ingestor(_cold_load_log)
        for i in range(0, len(stream), 7):
            chunk = stream[i : i + 7]
            a = warm.ingest_statements(chunk)
            b, procedures, unparseable = _cold_ingest(cold, chunk)
            assert (
                a.n_statements, a.n_skipped,
                a.n_skipped_procedures, a.n_skipped_unparseable,
            ) == (
                len(chunk), procedures + unparseable, procedures, unparseable,
            )
            assert (
                a.n_encoded, a.n_batch_distinct, a.n_new_rows,
                a.n_new_features, a.error_bits, a.staleness,
            ) == (
                b.n_encoded, b.n_batch_distinct, b.n_new_rows,
                b.n_new_features, b.error_bits, b.staleness,
            )
        _assert_same_log(warm.log, cold.log)
        assert warm.compressed.error == cold.compressed.error

    @given(stream=st.lists(_STATEMENTS, min_size=1, max_size=30))
    @settings(max_examples=20, deadline=None)
    def test_load_log_is_bit_identical(self, stream):
        statements = _BOOTSTRAP + stream
        warm_log, warm_report = load_log(statements, feature_cache=_tiny_cache())
        cold_log, cold_report = _cold_load_log(statements)
        _assert_same_log(warm_log, cold_log)
        assert warm_report == cold_report

    @given(stream=st.lists(_STATEMENTS, min_size=12, max_size=36))
    @settings(max_examples=10, deadline=None)
    def test_pane_boundaries_are_bit_identical(self, stream):
        """Windowed ingestion (panes sealed mid-stream, one shared
        template cache across panes) matches the plain-extractor
        profile: pane for pane, the cache is invisible."""
        stream = _BOOTSTRAP + stream
        timelines = {}
        for cached in (True, False):
            with (
                tempfile.TemporaryDirectory() as root,
                pytest.MonkeyPatch.context() as patch,
            ):
                if not cached:
                    patch.setattr(windows_module, "load_log", _cold_load_log)
                    patch.setattr(
                        IncrementalIngestor,
                        "ingest_statements",
                        lambda self, batch: _cold_ingest(self, batch)[0],
                    )
                windowed = WindowedProfile(
                    SummaryStore(root),
                    "prop",
                    pane_statements=7,
                    n_clusters=2,
                    n_init=2,
                    seed=0,
                )
                # One tiny cache shared by every pane: template and
                # row evictions run across pane boundaries.
                windowed._feature_cache = _tiny_cache()
                # Batches of 3 against panes of 7: panes open on a
                # bootstrap load, then grow by ingest_statements, and
                # batches straddle pane boundaries.
                for i in range(0, len(stream), 3):
                    windowed.ingest(stream[i : i + 3])
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
    """IngestReport distinguishes stored-procedure skips from parse
    failures."""

    def test_skip_split(self):
        ingestor = _fresh_ingestor()
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
        ingestor = _fresh_ingestor()
        report = ingestor.ingest_feature_sets([[("a", "SELECT")]])
        assert report.n_skipped == 0
        assert report.n_skipped_procedures == 0
        assert report.n_skipped_unparseable == 0

    def test_mismatched_shared_cache_rejected(self):
        mismatched = FeatureCache(AligonExtractor(remove_constants=False))
        log, _ = load_log(_BOOTSTRAP)
        compressed = LogRCompressor(n_clusters=2, seed=0, n_init=2).compress(log)
        with pytest.raises(ValueError, match="parsing knobs"):
            IncrementalIngestor(compressed, log, feature_cache=mismatched)

    def test_cache_stats_exposed(self):
        ingestor = _fresh_ingestor()
        ingestor.ingest_statements(
            ["SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x = 2"]
        )
        stats = ingestor.parse_cache_stats
        assert stats["rows"]["hits"] >= 1
        assert 0.0 < stats["rows"]["hit_rate"] <= 1.0
