"""Tests for log IO and the load pipeline."""

import pytest

from repro.sql import AligonExtractor, SqlError
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.logio import load_log, read_log, write_log


def _own_sample(statement: str) -> str:
    """The error sample extracting *statement* by itself produces."""
    try:
        AligonExtractor(remove_constants=True).extract(statement)
    except SqlError as exc:
        return f"{exc}: {statement[:120]}"
    raise AssertionError(f"{statement!r} extracts")


@pytest.fixture()
def workload():
    return SyntheticWorkload(
        "toy",
        [
            ("SELECT a FROM t WHERE x = 1", 3),
            ("SELECT b, c FROM u WHERE y = 2 AND z = 3", 2),
            ("SELECT a FROM t WHERE x = 4 OR x = 5", 1),
        ],
    )


class TestFileRoundtrip:
    def test_write_then_read(self, tmp_path, workload):
        path = tmp_path / "log.sql"
        written = write_log(workload, path)
        assert written == workload.total
        statements = read_log(path)
        assert len(statements) == workload.total
        assert sorted(set(statements)) == sorted(t for t, _ in workload.entries)

    def test_newlines_flattened(self, tmp_path):
        workload = SyntheticWorkload("nl", [("SELECT a\nFROM t", 1)])
        path = tmp_path / "log.sql"
        write_log(workload, path)
        assert read_log(path) == ["SELECT a FROM t"]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "log.sql"
        path.write_text("SELECT a FROM t\n\n   \nSELECT b FROM u\n")
        assert len(read_log(path)) == 2

    def test_shuffle_preserves_bag(self, tmp_path, workload):
        path = tmp_path / "log.sql"
        write_log(workload, path, shuffle=True, seed=1)
        assert sorted(read_log(path)) == sorted(workload.statements())


class TestLoadLog:
    def test_counts_accounting(self, workload):
        statements = list(workload.statements())
        log, report = load_log(statements)
        assert report.total_statements == workload.total
        assert report.parsed == workload.total
        assert report.unparseable == 0
        assert log.total == workload.total  # union branch mode

    def test_stored_procedures_counted(self):
        statements = ["SELECT a FROM t", "EXEC sp_x @p = 1", "CALL foo(1)"]
        log, report = load_log(statements)
        assert report.stored_procedures == 2
        assert report.parsed == 1
        assert log.total == 1

    def test_unparseable_counted(self):
        statements = ["SELECT a FROM t", "THIS IS NOT SQL ^"]
        log, report = load_log(statements)
        assert report.unparseable == 1
        assert report.errors

    def test_non_rewritable_counted(self):
        wide_or = "SELECT a FROM t WHERE " + " OR ".join(
            f"x = {i}" for i in range(100)
        )
        statements = ["SELECT a FROM t", wide_or]
        log, report = load_log(statements, max_disjuncts=16)
        assert report.non_rewritable == 1
        assert report.parsed == 2
        assert report.usable == 1

    def test_all_bad_raises(self):
        with pytest.raises(ValueError):
            load_log(["EXEC nope", "@@@@"])

    def test_error_samples_match_cold_path_for_literal_variants(self):
        # Two raw-distinct literal variants of one failing template:
        # extracting every statement records one error line per
        # distinct raw statement, and so must the fingerprint cache.
        statements = [
            "SELECT a FROM t",
            "SELECT ) FROM x WHERE q = 1",
            "SELECT ) FROM x WHERE q = 2",
        ]
        _, report = load_log(statements)
        assert report.errors == [_own_sample(s) for s in statements[1:]]

    def test_error_samples_carry_each_statements_own_message(self):
        # A template hit must not quote the first variant's parser
        # message ("got '2'") against a later variant's text.
        statements = [
            "SELECT a FROM t",
            "SELECT a FROM t WHERE x = 1 2",
            "SELECT a FROM t WHERE x = 3 4",
        ]
        _, report = load_log(statements)
        assert report.unparseable == 2
        assert report.errors == [_own_sample(s) for s in statements[1:]]
        assert "got '4'" in report.errors[1]

    def test_shared_cache_keeps_error_samples_per_call(self):
        from repro.core.featurecache import FeatureCache

        cache = FeatureCache(AligonExtractor(remove_constants=True))
        statements = ["SELECT a FROM t", "SELECT FROM WHERE"]
        _, first = load_log(statements, feature_cache=cache)
        _, second = load_log(statements, feature_cache=cache)
        assert len(first.errors) == len(second.errors) == 1

    def test_repeated_garbage_reports_one_error(self):
        # Failures are memoized by raw string: one error line (and one
        # extraction) per distinct unlexable statement, not per
        # occurrence.
        statements = ["SELECT a FROM t"] + ["@@@ garbage @@@"] * 5
        _, report = load_log(statements)
        assert report.unparseable == 5
        assert report.errors == [_own_sample("@@@ garbage @@@")]

    def test_constant_handling(self):
        statements = ["SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x = 2"]
        log, _ = load_log(statements, remove_constants=True)
        assert log.n_distinct == 1
        log2, _ = load_log(statements, remove_constants=False)
        assert log2.n_distinct == 2

    def test_conjunctive_branch_count(self):
        statements = ["SELECT a FROM t WHERE x = 1 OR y = 2"]
        _, report = load_log(statements)
        assert report.conjunctive_branches == 2
