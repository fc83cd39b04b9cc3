"""Crash-path and contention tests for the profile store.

The happy path is covered in ``test_store.py``; these tests attack the
failure windows: a process killed between the version-file write and
the manifest update, two writers (a CLI ingest and a running server)
racing on the same store directory, and on-disk corruption of version
files, segment files, and the manifest itself.
"""

from __future__ import annotations

import gzip
import json
import os
import threading

import numpy as np
import pytest

from repro.core.compress import LogRCompressor
from repro.service.store import StoreError, SummaryStore
from repro.workloads import generate_pocketdata


@pytest.fixture(scope="module")
def profile_data():
    workload = generate_pocketdata(total=2_000, n_distinct=60, seed=11)
    log = workload.to_query_log()
    compressed = LogRCompressor(n_clusters=2, seed=0, n_init=2).compress(log)
    return log, compressed


class TestKillBetweenWriteAndManifest:
    def test_orphan_version_file_is_invisible_and_recovered(
        self, profile_data, monkeypatch, tmp_path
    ):
        """Crash after the version file lands but before the manifest:
        the store must come back consistent, and the next save must
        reclaim the orphaned version number."""
        log, compressed = profile_data
        root = tmp_path / "store"
        store = SummaryStore(root)
        store.save("pocket", compressed, log)

        boom = RuntimeError("killed before manifest write")

        def crash(self):
            raise boom

        monkeypatch.setattr(SummaryStore, "_write_manifest", crash)
        with pytest.raises(RuntimeError):
            store.save("pocket", compressed, log)
        monkeypatch.undo()

        # The orphan v000002.json exists on disk but is unreferenced —
        # and it is *durably complete*: _atomic_write fsyncs the temp
        # file before the rename, so the crash window cannot surface a
        # zero-length or torn file behind the rename.  It is one whole
        # gzip member (gzip checks its CRC-32 and length).
        orphan = root / "profiles" / "pocket" / "v000002.json"
        assert orphan.exists()
        assert orphan.stat().st_size > 0
        payload = json.loads(gzip.decompress(orphan.read_bytes()))
        assert payload["format"] == "logr-profile-v1"
        assert payload["version"] == 2
        reopened = SummaryStore(root)
        assert [v.version for v in reopened.versions("pocket")] == [1]
        with pytest.raises(StoreError):
            reopened.load("pocket", version=2)

        # The next save reclaims version 2; the orphan is overwritten
        # atomically and the store is fully consistent again.
        record = reopened.save("pocket", compressed, log, note="recovered")
        assert record.version == 2
        assert reopened.latest("pocket").note == "recovered"
        assert reopened.load("pocket", version=2).error == pytest.approx(
            compressed.error
        )

    def test_crash_before_segment_manifest_write(
        self, profile_data, monkeypatch, tmp_path
    ):
        _, compressed = profile_data
        root = tmp_path / "store"
        store = SummaryStore(root)
        payload = compressed.mixture.to_payload()
        kwargs = dict(
            n_statements=10, n_encoded=10, total=10, error_bits=1.0,
            verbosity=5, n_components=2, divergence_bits=None,
        )
        store.append_segment("pocket", payload, **kwargs)

        monkeypatch.setattr(
            SummaryStore,
            "_write_manifest",
            lambda self: (_ for _ in ()).throw(RuntimeError("killed")),
        )
        with pytest.raises(RuntimeError):
            store.append_segment("pocket", payload, **kwargs)
        monkeypatch.undo()

        reopened = SummaryStore(root)
        assert [s.index for s in reopened.segments("pocket")] == [0]
        # The orphaned s000001.json is reclaimed by the next append.
        record = reopened.append_segment("pocket", payload, **kwargs)
        assert record.index == 1
        assert reopened.read_segment("pocket", 1)["meta"]["index"] == 1


class TestAtomicWriteDurability:
    def test_atomic_write_fsyncs_temp_file_and_directory(
        self, tmp_path, monkeypatch
    ):
        """The rename-based write must force data (the temp file's fd)
        AND the directory entry to disk — os.replace alone leaves both
        in the page cache, where a crash can eat them."""
        from repro.service import store as store_module

        synced: list[int] = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(store_module.os, "fsync", recording_fsync)
        target = tmp_path / "out.json"
        store_module._atomic_write(target, b'{"format": "x"}')
        assert target.read_bytes() == b'{"format": "x"}'
        assert len(synced) >= 2  # once for the temp file, once for the dir
        assert not list(tmp_path.glob(".out.json.*"))  # no temp litter

    def test_atomic_write_failure_leaves_no_temp_file(self, tmp_path, monkeypatch):
        from repro.service import store as store_module

        monkeypatch.setattr(
            store_module.os,
            "replace",
            lambda *a: (_ for _ in ()).throw(OSError("disk gone")),
        )
        with pytest.raises(OSError, match="disk gone"):
            store_module._atomic_write(tmp_path / "out.json", b"data")
        assert list(tmp_path.iterdir()) == []


class TestWriterContention:
    def test_cli_ingest_vs_server_saves_get_unique_versions(
        self, profile_data, tmp_path
    ):
        """Two store *instances* over one directory (a CLI ingest racing
        the server's persist path) must serialize through the advisory
        file lock: every save gets a unique, dense version number."""
        log, compressed = profile_data
        root = tmp_path / "store"
        cli_store = SummaryStore(root)  # separate instances: no shared
        server_store = SummaryStore(root)  # in-process lock between them
        results: list[int] = []
        errors: list[BaseException] = []
        lock = threading.Lock()
        start = threading.Barrier(8)

        def writer(store, n):
            try:
                start.wait(timeout=10)
                for _ in range(n):
                    record = store.save("pocket", compressed, log)
                    with lock:
                        results.append(record.version)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(store, 3))
            for store in (cli_store, server_store)
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert sorted(results) == list(range(1, 25))
        reopened = SummaryStore(root)
        assert [v.version for v in reopened.versions("pocket")] == list(
            range(1, 25)
        )
        for version in (1, 12, 24):
            assert reopened.load("pocket", version=version) is not None

    def test_segment_appends_from_two_instances_stay_dense(
        self, profile_data, tmp_path
    ):
        _, compressed = profile_data
        root = tmp_path / "store"
        stores = [SummaryStore(root), SummaryStore(root)]
        payload = compressed.mixture.to_payload()
        indices: list[int] = []
        lock = threading.Lock()

        def writer(store):
            for _ in range(5):
                record = store.append_segment(
                    "pocket", payload,
                    n_statements=1, n_encoded=1, total=1, error_bits=0.0,
                    verbosity=1, n_components=1, divergence_bits=None,
                )
                with lock:
                    indices.append(record.index)

        threads = [threading.Thread(target=writer, args=(s,)) for s in stores]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert sorted(indices) == list(range(10))
        assert [s.index for s in SummaryStore(root).segments("pocket")] == list(
            range(10)
        )


class TestCorruptionDetection:
    def test_truncated_version_file(self, profile_data, tmp_path):
        log, compressed = profile_data
        root = tmp_path / "store"
        store = SummaryStore(root)
        store.save("pocket", compressed, log)
        path = root / "profiles" / "pocket" / "v000001.json"
        path.write_bytes(path.read_bytes()[: 100])  # torn copy
        with pytest.raises(StoreError, match="corrupted"):
            SummaryStore(root).load("pocket")

    def test_deleted_version_file(self, profile_data, tmp_path):
        log, compressed = profile_data
        root = tmp_path / "store"
        store = SummaryStore(root)
        store.save("pocket", compressed, log)
        (root / "profiles" / "pocket" / "v000001.json").unlink()
        with pytest.raises(StoreError, match="missing"):
            SummaryStore(root).load("pocket")

    def test_version_file_with_wrong_format(self, profile_data, tmp_path):
        log, compressed = profile_data
        root = tmp_path / "store"
        store = SummaryStore(root)
        store.save("pocket", compressed, log)
        path = root / "profiles" / "pocket" / "v000001.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(StoreError):
            SummaryStore(root).load("pocket")

    def test_corrupted_segment_file(self, profile_data, tmp_path):
        _, compressed = profile_data
        root = tmp_path / "store"
        store = SummaryStore(root)
        store.append_segment(
            "pocket", compressed.mixture.to_payload(),
            n_statements=5, n_encoded=5, total=5, error_bits=1.0,
            verbosity=3, n_components=2, divergence_bits=None,
        )
        path = root / "segments" / "pocket" / "s000000.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(StoreError, match="corrupted"):
            SummaryStore(root).read_segment("pocket", 0)

    def test_unknown_segment_index(self, tmp_path):
        store = SummaryStore(tmp_path / "store")
        with pytest.raises(StoreError):
            store.read_segment("pocket", 0)

    def test_corrupted_manifest(self, profile_data, tmp_path):
        log, compressed = profile_data
        root = tmp_path / "store"
        SummaryStore(root).save("pocket", compressed, log)
        (root / "manifest.json").write_text("][", encoding="utf-8")
        with pytest.raises(StoreError, match="unreadable"):
            SummaryStore(root)

    def test_manifest_with_alien_format(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / "manifest.json").write_text(
            json.dumps({"format": "not-a-store"}), encoding="utf-8"
        )
        with pytest.raises(StoreError, match="manifest"):
            SummaryStore(root)
