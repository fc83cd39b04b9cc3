"""Out-of-core columnar log tests: spill, merge, slice, and compression.

The contract under test is *bit identity*: the spill/merge/chunk path
must reproduce exactly what the in-memory ``LogBuilder.build`` path
produces — same vocabulary, same row order, same packed words, same
multiplicities — so every downstream consumer (kernels, compression,
service ingest) is oblivious to where the log lived.
"""

from __future__ import annotations

import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import colstore, kernels
from repro.core.colstore import (
    ColumnarLog,
    ColumnarLogWriter,
    iter_run,
    merge_runs,
    spill_run,
)
from repro.core.compress import compress_sharded
from repro.core.log import LogBuilder, QueryLog
from repro.core.vocabulary import Vocabulary

from test_compress_pipeline import _artifact_key

_example_counter = itertools.count()


def random_rows(seed: int, n_rows: int = 200, n_features: int = 90):
    """Random encoded (frozenset, count) pairs with deliberate duplicates."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_rows):
        size = int(rng.integers(0, 7))
        indices = frozenset(rng.choice(n_features, size=size, replace=False).tolist())
        rows.append((indices, int(rng.integers(1, 6))))
    # Re-add a slice of the rows so duplicates span spill runs.
    rows.extend(rows[:: max(1, n_rows // 7)])
    return rows


def twin_builders(rows, n_features: int, spill_dir, spill_rows: int):
    """The same bag fed to a spilling builder and an in-memory builder."""
    vocabulary = Vocabulary(range(n_features))
    spilling = LogBuilder(vocabulary, spill_dir=spill_dir, spill_rows=spill_rows)
    in_memory = LogBuilder(vocabulary)
    for indices, count in rows:
        spilling.add_encoded(indices, count)
        in_memory.add_encoded(indices, count)
    return spilling, in_memory


def assert_logs_identical(columnar: ColumnarLog, reference: QueryLog):
    materialized = columnar.to_query_log()
    assert materialized.vocabulary is columnar.vocabulary
    assert list(materialized.vocabulary) == list(reference.vocabulary)
    assert np.array_equal(materialized.matrix, reference.matrix)
    assert np.array_equal(materialized.counts, reference.counts)
    assert np.array_equal(materialized.packed, reference.packed)
    assert columnar.total == reference.total
    assert columnar.n_distinct == reference.n_distinct


class TestSpillRuns:
    def test_spill_iter_round_trip(self, tmp_path):
        items = [((0, 3), 2), ((1,), 5), ((1, 2, 4), 1), ((), 7)]
        items.sort(key=lambda kv: kv[0])
        stem = spill_run(tmp_path, items, 0)
        assert list(iter_run(stem)) == items
        # Tiny blocks must not change the stream.
        assert list(iter_run(stem, block_rows=1)) == items

    def test_merge_runs_sums_duplicates_in_order(self):
        a = [((0,), 1), ((0, 1), 2), ((5,), 1)]
        b = [((0, 1), 3), ((2,), 4), ((5,), 10)]
        merged = list(merge_runs([a, b]))
        assert merged == [((0,), 1), ((0, 1), 5), ((2,), 4), ((5,), 11)]

    def test_remove_runs_idempotent(self, tmp_path):
        spill_run(tmp_path / "runs", [((0,), 1)], 0)
        colstore.remove_runs(tmp_path / "runs")
        assert not (tmp_path / "runs").exists()
        colstore.remove_runs(tmp_path / "runs")  # second call is a no-op


class TestBuilderSpillMode:
    def test_build_columnar_matches_build(self, tmp_path):
        rows = random_rows(0)
        spilling, in_memory = twin_builders(
            rows, 90, tmp_path / "runs", spill_rows=16
        )
        assert len(spilling) == len(in_memory)
        columnar = spilling.build_columnar(tmp_path / "log", chunk_rows=16)
        assert columnar.n_chunks > 4  # the spill budget really chunked it
        assert_logs_identical(columnar, in_memory.build())
        assert not (tmp_path / "runs").exists()  # runs cleaned up

    def test_no_spill_builder_can_still_build_columnar(self, tmp_path):
        builder = LogBuilder(Vocabulary(range(8)))
        builder.add_encoded(frozenset({1, 3}), 2)
        builder.add_encoded(frozenset({0}), 1)
        reference = LogBuilder(Vocabulary(range(8)))
        reference.add_encoded(frozenset({1, 3}), 2)
        reference.add_encoded(frozenset({0}), 1)
        columnar = builder.build_columnar(tmp_path / "log")
        assert_logs_identical(columnar, reference.build())

    def test_build_refuses_after_spill(self, tmp_path):
        builder = LogBuilder(
            Vocabulary(range(8)), spill_dir=tmp_path / "runs", spill_rows=1
        )
        builder.add_encoded(frozenset({1}), 1)
        with pytest.raises(ValueError, match="spilled runs"):
            builder.build()

    def test_len_counts_spilled_entries(self, tmp_path):
        builder = LogBuilder(
            Vocabulary(range(8)), spill_dir=tmp_path / "runs", spill_rows=2
        )
        for i in range(6):
            builder.add_encoded(frozenset({i % 8}), 3)
        assert len(builder) == 18

    def test_empty_builder_raises(self, tmp_path):
        with pytest.raises(ValueError, match="empty log"):
            LogBuilder().build_columnar(tmp_path / "log")

    def test_spill_rows_validation(self):
        with pytest.raises(ValueError, match="spill_rows"):
            LogBuilder(spill_rows=0)

    # tmp_path is shared across examples, but each example writes under a
    # unique case-N subdirectory, so the reuse the health check fears is moot.
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        rows=st.lists(
            st.tuples(
                st.frozensets(st.integers(0, 11), max_size=6),
                st.integers(1, 9),
            ),
            min_size=1,
            max_size=40,
        ),
        spill_rows=st.integers(1, 8),
        chunk_rows=st.integers(1, 8),
    )
    def test_property_spill_path_bit_identical(
        self, tmp_path, rows, spill_rows, chunk_rows
    ):
        base = tmp_path / f"case-{next(_example_counter)}"
        spilling, in_memory = twin_builders(
            rows, 12, base / "runs", spill_rows=spill_rows
        )
        columnar = spilling.build_columnar(base / "log", chunk_rows=chunk_rows)
        assert_logs_identical(columnar, in_memory.build())


class TestColumnarLog:
    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("colstore")
        rows = random_rows(1)
        spilling, in_memory = twin_builders(rows, 90, tmp / "runs", spill_rows=32)
        columnar = spilling.build_columnar(tmp / "log", chunk_rows=32)
        return columnar, in_memory.build()

    def test_slice_log_equals_subset(self, store):
        columnar, reference = store
        n = columnar.n_distinct
        ranges = [(0, n), (0, 1), (n - 1, n), (n // 3, 2 * n // 3 + 1)]
        for lo, hi in ranges:
            sliced = columnar.slice_log(lo, hi)
            subset = reference.subset(np.arange(lo, hi))
            assert np.array_equal(sliced.matrix, subset.matrix)
            assert np.array_equal(sliced.counts, subset.counts)
            assert np.array_equal(sliced.packed, subset.packed)

    def test_chunk_words_match_packed_matrix(self, store):
        columnar, _ = store
        for chunk in range(columnar.n_chunks):
            words = np.asarray(columnar.chunk_words(chunk))
            assert np.array_equal(
                words, kernels.pack_rows(columnar.chunk_matrix(chunk))
            )

    def test_counts_concatenate_in_order(self, store):
        columnar, reference = store
        assert np.array_equal(columnar.counts(), reference.counts)

    def test_len_is_total_multiplicity(self, store):
        columnar, reference = store
        assert len(columnar) == reference.total

    def test_slice_validation(self, store):
        columnar, _ = store
        with pytest.raises(ValueError, match="non-empty"):
            columnar.slice_log(3, 3)
        with pytest.raises(ValueError, match="out of bounds"):
            columnar._dense(0, columnar.n_distinct + 1)

    def test_chunk_index_validation(self, store):
        columnar, _ = store
        with pytest.raises(IndexError):
            columnar.chunk_words(columnar.n_chunks)

    def test_format_marker_checked(self, tmp_path, store):
        colstore._write_header(
            tmp_path / "header.bin", {"format": "not-a-collog"}
        )
        with pytest.raises(ValueError, match="is not a logr-collog-v1"):
            ColumnarLog(tmp_path)

    def test_truncated_header_rejected(self, tmp_path):
        (tmp_path / "header.bin").write_bytes(b"\x01\x02")
        with pytest.raises(ValueError, match="truncated"):
            ColumnarLog(tmp_path)


class TestWriter:
    def test_rejects_bad_inputs(self, tmp_path):
        with pytest.raises(ValueError, match="chunk_rows"):
            ColumnarLogWriter(tmp_path / "log", Vocabulary(range(4)), chunk_rows=0)
        writer = ColumnarLogWriter(tmp_path / "log", Vocabulary(range(4)))
        with pytest.raises(ValueError, match="positive"):
            writer.append((0,), 0)
        with pytest.raises(ValueError, match="empty log"):
            writer.close()
        writer.append((0, 2), 3)
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.append((1,), 1)
        with pytest.raises(ValueError, match="closed"):
            writer.close()

    def test_encode_telemetry_observed(self, tmp_path):
        chunks_before = colstore._ENCODE_CHUNKS.value(stage="chunk")
        runs_before = colstore._ENCODE_CHUNKS.value(stage="run")
        bytes_before = colstore._ENCODE_BYTES.value()
        spills_before = colstore._SPILL_SECONDS.count()
        builder = LogBuilder(
            Vocabulary(range(10)), spill_dir=tmp_path / "runs", spill_rows=4
        )
        for i in range(10):
            builder.add_encoded(frozenset({i % 10}), 1)
        builder.build_columnar(tmp_path / "log", chunk_rows=4)
        assert colstore._ENCODE_CHUNKS.value(stage="chunk") > chunks_before
        assert colstore._ENCODE_CHUNKS.value(stage="run") > runs_before
        assert colstore._ENCODE_BYTES.value() > bytes_before
        assert colstore._SPILL_SECONDS.count() > spills_before


class TestColumnarCompression:
    """Sharded compression from disk == from RAM."""

    @pytest.fixture(scope="class")
    def logs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("colcompress")
        rows = random_rows(2, n_rows=120, n_features=40)
        spilling, in_memory = twin_builders(rows, 40, tmp / "runs", spill_rows=24)
        return spilling.build_columnar(tmp / "log", chunk_rows=24), in_memory.build()

    @pytest.fixture(scope="class")
    def flat_reference(self, logs):
        _, reference = logs
        return compress_sharded(reference, 4, n_clusters=3, n_init=2, seed=7)

    @pytest.mark.parametrize(
        "jobs", [pytest.param(1, id="serial-1"), pytest.param(2, id="process-2")]
    )
    def test_columnar_source_matches_flat(self, logs, flat_reference, jobs):
        columnar, _ = logs
        compressed = compress_sharded(
            columnar, 4, n_clusters=3, n_init=2, seed=7, jobs=jobs
        )
        assert _artifact_key(compressed) == _artifact_key(flat_reference)


class TestLoadLogColumnar:
    def test_matches_load_log(self, tmp_path):
        from repro.workloads.generator import SyntheticWorkload
        from repro.workloads.logio import load_log, load_log_columnar

        workload = SyntheticWorkload(
            "toy",
            [
                ("SELECT a FROM t WHERE x = 1", 3),
                ("SELECT b, c FROM u WHERE y = 2 AND z = 3", 2),
                ("SELECT a FROM t WHERE x = 4 OR x = 5", 1),
            ],
        )
        statements = list(workload.statements())
        reference, ref_report = load_log(statements)
        columnar, report = load_log_columnar(
            statements, tmp_path / "log", chunk_rows=2
        )
        assert report == ref_report
        assert_logs_identical(columnar, reference)
