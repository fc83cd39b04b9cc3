"""The on-disk format of the profile store's checkpoint and segment files.

Checkpoints (``profiles/<name>/vNNNNNN.json``) and pane segments
(``segments/<name>/sNNNNNN.json``) are compact JSON in one gzip member;
the manifest stays plain JSON.  These tests pin the format (any gzip
reader inflates it, and its bytes depend only on the payload); the
mode every store file is created with; the reader on damaged files
(every truncation and every flipped byte is a ``StoreError``, never a
raw ``zlib.error``/``EOFError`` and never a silently different
payload); stores written before deflation
(``tests/fixtures/store_plain``, plain-JSON files, loaded as they were
then); and the NumPy training-state codec against the per-row loop it
replaced, which stays here as the oracle.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import shutil
import subprocess
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.compress import LogRCompressor, load_artifact
from repro.core.log import QueryLog
from repro.core.vocabulary import Vocabulary
from repro.service.server import AnalyticsService
from repro.service.store import (
    StoreError,
    SummaryStore,
    _log_from_state,
    _log_state_payload,
)
from repro.service.windows import WindowedProfile
from repro.workloads import generate_pocketdata

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

#: Gzip header bytes no reader checks: MTIME (4-7), XFL (8) and OS (9).
_UNCHECKED_HEADER = {4, 5, 6, 7, 8, 9}


def _loop_state_payload(log: QueryLog) -> dict:
    """The per-row state encoder the store used before its NumPy codec."""
    return {
        "n_features": log.n_features,
        "rows": [[int(i) for i in np.flatnonzero(row)] for row in log.matrix],
        "counts": [int(c) for c in log.counts],
    }


def _loop_state_matrix(state: dict, width: int) -> np.ndarray:
    """The per-row state decoder the store used before its NumPy codec."""
    n = max(int(state["n_features"]), width)
    rows = state["rows"]
    matrix = np.zeros((len(rows), n), dtype=np.uint8)
    for r, indices in enumerate(rows):
        matrix[r, indices] = 1
    return matrix


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _without(payload: dict, key: str) -> dict:
    return {k: v for k, v in payload.items() if k != key}


@pytest.fixture(scope="module")
def small_profile():
    log = generate_pocketdata(total=200, n_distinct=10, seed=3).to_query_log()
    return log, LogRCompressor(n_clusters=2, seed=0, n_init=1).compress(log)


@pytest.fixture()
def small_store(small_profile, tmp_path):
    """A store holding one checkpoint and one pane segment."""
    return _store_with_segment(small_profile, tmp_path / "store")


def _store_with_segment(small_profile, root: Path) -> SummaryStore:
    log, compressed = small_profile
    store = SummaryStore(root)
    store.save("pocket", compressed, log)
    store.append_segment(
        "pocket", compressed.mixture.to_payload(),
        n_statements=200, n_encoded=200, total=200, error_bits=compressed.error,
        verbosity=compressed.total_verbosity, n_components=2,
        divergence_bits=None,
    )
    return store


def _checkpoint(store: SummaryStore) -> Path:
    return store.root / "profiles" / "pocket" / "v000001.json"


def _segment(store: SummaryStore) -> Path:
    return store.root / "segments" / "pocket" / "s000000.json"


class TestDeflatedFiles:
    def test_checkpoint_is_one_gzip_member_of_compact_json(self, small_store):
        data = _checkpoint(small_store).read_bytes()
        assert data[:2] == b"\x1f\x8b"
        assert data[3] == 0  # no file name, comment or extra field
        assert data[4:8] == bytes(4)  # mtime 0
        text = gzip.decompress(data).decode("utf-8")
        payload = json.loads(text)
        assert payload["format"] == "logr-profile-v1"
        assert payload["version"] == 1
        assert text == json.dumps(payload, separators=(",", ":"))

    def test_segment_files_are_deflated(self, small_store, small_profile):
        _, compressed = small_profile
        for _ in range(2):
            payload = json.loads(gzip.decompress(_segment(small_store).read_bytes()))
            assert payload["format"] == "logr-pane-v1"
            assert payload == small_store.read_segment("pocket", 0)
            small_store.rewrite_segment(
                "pocket", 0, compressed.mixture.to_payload(),
                error_bits=1.0, verbosity=3, n_components=2,
            )
        assert payload["meta"]["recompressed"]

    def test_manifest_stays_plain_json(self, small_store):
        manifest = json.loads(
            (small_store.root / "manifest.json").read_text(encoding="utf-8")
        )
        assert [v["version"] for v in manifest["profiles"]["pocket"]["versions"]] == [1]

    def test_bytes_depend_only_on_the_payload(self, small_profile, tmp_path):
        log, compressed = small_profile
        files = []
        for name in ("a", "b"):
            store = SummaryStore(tmp_path / name)
            store.save("pocket", compressed, log, note=name)
            files.append(_checkpoint(store).read_bytes())
        assert files[0] == files[1]

    @pytest.mark.skipif(shutil.which("gzip") is None, reason="no gzip binary")
    def test_gzip_tool_reads_a_checkpoint(self, small_store):
        path = _checkpoint(small_store)
        out = subprocess.run(
            ["gzip", "-dc", str(path)], check=True, capture_output=True
        ).stdout
        assert out == gzip.decompress(path.read_bytes())

    def test_deflated_checkpoint_is_much_smaller_than_plain_json(self, small_store):
        data = _checkpoint(small_store).read_bytes()
        plain = json.dumps(json.loads(gzip.decompress(data)))
        assert len(data) * 3 < len(plain)


class TestFileModes:
    def test_every_store_file_is_created_with_the_journals_mode(
        self, small_profile, tmp_path
    ):
        """Checkpoints, pane segments and the manifest are created as
        journals are, 0o644 under the umask: a reader who can open a
        journal can open the checkpoint it replays on."""
        previous = os.umask(0o022)
        try:
            store = _store_with_segment(small_profile, tmp_path / "store")
            service = AnalyticsService(store, staleness_threshold=float("inf"))
            statements = generate_pocketdata(total=20, n_distinct=10, seed=4).statements()
            service.handle_ingest({"profile": "pocket", "statements": list(statements)})
        finally:
            os.umask(previous)
        modes = {
            path.relative_to(store.root).as_posix(): path.stat().st_mode & 0o777
            for path in store.root.rglob("*")
            if path.is_file() and path.name != ".store.lock"
        }
        assert sorted(modes) == [
            "manifest.json",
            "profiles/pocket/j000001.log",
            "profiles/pocket/v000001.json",
            "segments/pocket/s000000.json",
        ]
        assert set(modes.values()) == {0o644}


def _damage_target(store: SummaryStore, which: str):
    """The file a damage test cuts or flips, and the public read of it."""
    if which == "checkpoint":
        return _checkpoint(store), lambda: json.dumps(store.load("pocket").to_payload())
    return _segment(store), lambda: store.read_segment("pocket", 0)


class TestDamagedFiles:
    """Every damaged read is a StoreError: never a raw decoder error."""

    @pytest.mark.parametrize("which", ["checkpoint", "segment"])
    def test_every_truncation_is_corrupted(self, small_store, which):
        path, read = _damage_target(small_store, which)
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(StoreError, match="corrupted"):
                read()

    @pytest.mark.parametrize("which", ["checkpoint", "segment"])
    def test_every_flipped_byte_is_corrupted_or_harmless(self, small_store, which):
        """A flip gzip cannot see (the unchecked header bytes) reads the
        same payload, and so may a flipped deflate byte that still
        inflates to the same contents under a valid CRC-32 (for some
        payloads one does); every other flip is a StoreError."""
        path, read = _damage_target(small_store, which)
        data = path.read_bytes()
        contents = gzip.decompress(data)
        intact = read()
        for offset in range(len(data)):
            flipped = bytearray(data)
            flipped[offset] ^= 0xFF
            path.write_bytes(bytes(flipped))
            try:
                payload = read()
            except StoreError as exc:
                assert "corrupted" in str(exc)
            else:
                assert payload == intact
                if offset not in _UNCHECKED_HEADER:
                    assert gzip.decompress(bytes(flipped)) == contents, offset

    def test_trailing_bytes_after_the_member_are_corrupted(self, small_store):
        path = _checkpoint(small_store)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(StoreError, match="corrupted"):
            small_store.load("pocket")

    def test_checkpoint_the_decoder_rejects_is_corrupted(self, small_store):
        path = _checkpoint(small_store)
        payload = json.loads(gzip.decompress(path.read_bytes()))
        payload["state"]["rows"][0] = [10**6]  # past the codebook
        path.write_bytes(gzip.compress(json.dumps(payload).encode("utf-8")))
        with pytest.raises(StoreError, match="corrupted"):
            small_store.load_state("pocket")


@pytest.fixture()
def legacy_store(tmp_path):
    """A copy of a store written before checkpoints were deflated."""
    root = tmp_path / "store"
    shutil.copytree(FIXTURES / "store_plain", root)
    return SummaryStore(root)


@pytest.fixture(scope="module")
def legacy_expected():
    return json.loads((FIXTURES / "store_plain_expected.json").read_text())


class TestPlainJsonStore:
    """``store_plain`` holds one plain-JSON checkpoint, two journal
    records and one plain-JSON pane segment; the expected file records
    what the store loaded from it before deflation (payloads as SHA-256
    of their sorted compact JSON)."""

    def test_files_are_plain_json(self):
        for path in (
            FIXTURES / "store_plain/profiles/pocket/v000001.json",
            FIXTURES / "store_plain/segments/pocket/s000000.json",
        ):
            assert path.read_bytes()[:1] == b"{"

    def test_every_version_loads_as_it_did(self, legacy_store, legacy_expected):
        name = legacy_expected["profile"]
        versions = legacy_store.versions(name)
        assert [
            _without(v.to_payload(), "created_at") for v in versions
        ] == legacy_expected["versions"]
        for version in versions:
            expected = legacy_expected["loads"][str(version.version)]
            compressed, log = legacy_store.load_state(name, version.version)
            assert _digest(
                _without(compressed.to_payload(), "build_seconds")
            ) == expected["artifact"]
            assert log.matrix.dtype == np.uint8
            assert list(log.matrix.shape) == expected["shape"]
            assert log.total == expected["total_queries"]
            assert _digest(_loop_state_payload(log)) == expected["state"]
            stored = legacy_store.load_version(name, version.version)
            assert len(stored.deltas) == expected["n_deltas"]
            ingestor = stored.ingestor(staleness_threshold=float("inf"))
            assert ingestor.running_sums() == expected["running_sums"]

    def test_pane_reads_are_unchanged(self, legacy_store, legacy_expected):
        name = legacy_expected["profile"]
        assert [
            _without(s.to_payload(), "created_at")
            for s in legacy_store.segments(name)
        ] == legacy_expected["segments"]
        assert (
            _digest(legacy_store.read_segment(name, 0))
            == legacy_expected["segment_reads"]["0"]
        )
        window = WindowedProfile(legacy_store, name, pane_statements=40).window(last=1)
        assert _digest(window.to_payload()) == legacy_expected["window"]

    def test_new_versions_on_a_plain_store_are_deflated(
        self, legacy_store, legacy_expected
    ):
        name = legacy_expected["profile"]
        before = {
            v.version: legacy_store.load_state(name, v.version)
            for v in legacy_store.versions(name)
        }
        ingestor = legacy_store.load_version(name).ingestor(
            staleness_threshold=float("inf")
        )
        statements = list(
            generate_pocketdata(total=60, n_distinct=24, seed=5).statements()
        )
        report = ingestor.ingest_statements(statements[:20])
        assert legacy_store.append(
            name, 3, ingestor.compressed, report.delta
        ).version == 4
        record = legacy_store.save(
            name, ingestor.compressed, ingestor.log,
            running_sums=ingestor.running_sums(),
        )
        assert record.version == 5
        path = legacy_store.root / "profiles" / name / "v000005.json"
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        reopened = SummaryStore(legacy_store.root)
        for version, (compressed, log) in before.items():
            again, again_log = reopened.load_state(name, version)
            assert json.dumps(again.to_payload()) == json.dumps(compressed.to_payload())
            assert np.array_equal(again_log.matrix, log.matrix)
        latest, latest_log = reopened.load_state(name)
        assert json.dumps(latest.to_payload()) == json.dumps(
            ingestor.compressed.to_payload()
        )
        assert np.array_equal(latest_log.matrix, ingestor.log.matrix)

    def test_plain_checkpoint_with_a_nan_marginal_is_corrupted(self, legacy_store):
        path = legacy_store.root / "profiles" / "pocket" / "v000001.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["artifact"]["mixture"]["components"][0]["marginals"][0] = float("nan")
        path.write_text(json.dumps(payload), encoding="utf-8")  # a NaN literal
        assert "NaN" in path.read_text(encoding="utf-8")
        for version in (1, 3):  # the checkpoint, and a record replayed on it
            with pytest.raises(StoreError, match="corrupted"):
                legacy_store.load_state("pocket", version)

    def test_load_artifact_with_a_nan_marginal_is_refused(self, tmp_path):
        payload = json.loads((FIXTURES / "artifact_v2.json").read_text())
        components = payload["mixture"]["components"]
        naive = next(c for c in components if c.get("marginals"))
        naive["marginals"][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            load_artifact(path)


@st.composite
def _state_cases(draw):
    """A sparse 0/1 log (empty rows, zero rows or zero columns allowed)
    and a vocabulary at least as wide."""
    m = draw(st.integers(0, 12))
    n = draw(st.integers(0, 70))
    density = draw(st.sampled_from([0.0, 0.02, 0.2, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = (rng.random((m, n)) < density).astype(np.uint8)
    if m and draw(st.booleans()):
        matrix[draw(st.integers(0, m - 1))] = 0  # an empty row
    counts = draw(st.lists(st.integers(1, 10**6), min_size=m, max_size=m))
    log = QueryLog(Vocabulary(range(n)), matrix, counts)
    wider = Vocabulary(range(n + draw(st.integers(0, 5))))
    return log, wider


class TestStateCodec:
    @settings(max_examples=300, deadline=None)
    @given(_state_cases())
    def test_payload_equals_the_per_row_loop(self, case):
        log, _ = case
        payload = _log_state_payload(log)
        assert payload == _loop_state_payload(log)
        assert json.dumps(payload) == json.dumps(_loop_state_payload(log))

    @settings(max_examples=300, deadline=None)
    @given(_state_cases())
    def test_matrix_equals_the_per_row_loop(self, case):
        log, wider = case
        state = _loop_state_payload(log)
        rebuilt = _log_from_state(state, wider)
        expected = _loop_state_matrix(state, len(wider))
        assert rebuilt.matrix.dtype == np.uint8
        assert rebuilt.matrix.shape == expected.shape
        assert np.array_equal(rebuilt.matrix, expected)
        assert np.array_equal(rebuilt.matrix[:, : log.n_features], log.matrix)
        assert rebuilt.counts.tolist() == log.counts.tolist()
        assert rebuilt.vocabulary is wider
