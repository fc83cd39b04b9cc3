"""Injected I/O faults on both write paths of the profile store.

A checkpoint goes through ``_atomic_write`` twice, for the version file
and then the manifest.  Each has four steps: the temp-file write, its
fsync, ``os.replace`` and the directory fsync.  A journal record is one
``_append``: its write, its fsync and, for a journal's first record,
the directory fsync.  Each step fails in turn, with ENOSPC and with
EIO.  After every fault the previous version still loads bit for bit,
no temp file is left and the next save or append succeeds.  Over HTTP,
on both transports, the failing ``/ingest`` answers 500 and the next
one succeeds on the reloaded state.
"""

from __future__ import annotations

import errno
import json
import os
import urllib.error
import urllib.request

import pytest

from repro.core.compress import LogRCompressor
from repro.service import AnalyticsServer, AsyncAnalyticsServer
from repro.service import store as store_module
from repro.service.store import SummaryStore, _log_state_payload
from repro.workloads import generate_pocketdata, load_log

ERRNOS = [errno.ENOSPC, errno.EIO]

#: (os function, which call of it fails) for each step of a checkpoint:
#: the version file's four steps, then the manifest's.
CHECKPOINT_STEPS = {
    "version-write": ("write", 1),
    "version-fsync": ("fsync", 1),
    "version-replace": ("replace", 1),
    "version-dir-fsync": ("fsync", 2),
    "manifest-write": ("write", 2),
    "manifest-fsync": ("fsync", 3),
    "manifest-replace": ("replace", 2),
    "manifest-dir-fsync": ("fsync", 4),
}

#: The same for a journal append; a journal's first record also fsyncs
#: the directory that now holds the new file.
APPEND_STEPS = {
    "write": ("write", 1),
    "fsync": ("fsync", 1),
    "new-file-dir-fsync": ("fsync", 2),
}


class _FaultyOs:
    """The store module's ``os``: the *nth* call of ``os.<op>`` raises *error*."""

    def __init__(self, op: str, nth: int, error: OSError) -> None:
        self.op, self.nth, self.error = op, nth, error
        self.calls = 0

    def __getattr__(self, name: str):
        real = getattr(os, name)
        if name != self.op:
            return real

        def call(*args, **kwargs):
            self.calls += 1
            if self.calls == self.nth:
                raise self.error
            return real(*args, **kwargs)

        return call


def _inject(monkeypatch, step: tuple[str, int], code: int) -> None:
    op, nth = step
    error = OSError(code, os.strerror(code))
    monkeypatch.setattr(store_module, "os", _FaultyOs(op, nth, error))


@pytest.fixture(scope="module")
def statements():
    workload = generate_pocketdata(total=1_200, n_distinct=60, seed=7)
    return list(workload.statements(shuffle=True, seed=8))


@pytest.fixture(scope="module")
def seed_profile(statements):
    log, _ = load_log(statements[:800])
    return log, LogRCompressor(n_clusters=2, seed=0, n_init=1).compress(log)


@pytest.fixture(scope="module")
def batches(statements):
    return [statements[800 + i * 40:800 + (i + 1) * 40] for i in range(8)]


def _fresh_store(root, seed_profile) -> SummaryStore:
    log, compressed = seed_profile
    store = SummaryStore(root)
    store.save("pocket", compressed, log)
    return store


def _ingestor(store):
    return store.load_version("pocket").ingestor(staleness_threshold=float("inf"))


def _state(compressed, log) -> tuple[str, str]:
    return json.dumps(compressed.to_payload()), json.dumps(_log_state_payload(log))


def _stored(store, version) -> tuple[str, str]:
    return _state(*store.load_state("pocket", version))


def _files(root) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != ".store.lock"
    }


def _assert_no_temp_files(root) -> None:
    assert not [path for path in root.rglob("*") if path.name.endswith(".tmp")]


class TestCheckpointFaults:
    @pytest.mark.parametrize("code", ERRNOS, ids=errno.errorcode.get)
    @pytest.mark.parametrize("step", CHECKPOINT_STEPS)
    def test_failed_save_keeps_the_previous_version(
        self, seed_profile, batches, monkeypatch, tmp_path, step, code
    ):
        root = tmp_path / "store"
        store = _fresh_store(root, seed_profile)
        before = _stored(store, 1)
        version_file = (root / "profiles/pocket/v000001.json").read_bytes()
        ingestor = _ingestor(store)
        ingestor.ingest_statements(batches[0])
        live = _state(ingestor.compressed, ingestor.log)

        def save():
            return store.save(
                "pocket", ingestor.compressed, ingestor.log,
                running_sums=ingestor.running_sums(),
            )

        _inject(monkeypatch, CHECKPOINT_STEPS[step], code)
        with pytest.raises(OSError) as failure:
            save()
        monkeypatch.undo()
        assert failure.value.errno == code
        _assert_no_temp_files(root)
        assert (root / "profiles/pocket/v000001.json").read_bytes() == version_file
        reopened = SummaryStore(root)
        for reader in (store, reopened):
            assert _stored(reader, 1) == before
        # Only a failure after the manifest's rename leaves the new
        # version listed; the file under it is complete either way.
        listed = [v.version for v in reopened.versions("pocket")]
        assert listed == ([1, 2] if step == "manifest-dir-fsync" else [1])
        if len(listed) == 2:
            assert _stored(reopened, 2) == live

        record = save()
        assert record.version == listed[-1] + 1
        assert [v.version for v in store.versions("pocket")] == list(
            range(1, record.version + 1)
        )
        assert _stored(SummaryStore(root), record.version) == live
        _assert_no_temp_files(root)


class TestAppendFaults:
    @pytest.mark.parametrize("code", ERRNOS, ids=errno.errorcode.get)
    @pytest.mark.parametrize(
        "step, records_before",
        [
            ("write", 0), ("fsync", 0), ("new-file-dir-fsync", 0),
            ("write", 1), ("fsync", 1),
        ],
    )
    def test_failed_append_leaves_no_record(
        self, seed_profile, batches, monkeypatch, tmp_path, step, records_before, code
    ):
        root = tmp_path / "store"
        store = _fresh_store(root, seed_profile)
        ingestor = _ingestor(store)
        for batch in batches[:records_before]:
            report = ingestor.ingest_statements(batch)
            store.append("pocket", store.latest("pocket").version,
                         ingestor.compressed, report.delta)
        parent = store.latest("pocket").version
        before = _stored(store, parent)
        files = _files(root)
        report = ingestor.ingest_statements(batches[records_before])
        live = _state(ingestor.compressed, ingestor.log)

        _inject(monkeypatch, APPEND_STEPS[step], code)
        with pytest.raises(OSError) as failure:
            store.append("pocket", parent, ingestor.compressed, report.delta)
        monkeypatch.undo()
        assert failure.value.errno == code
        _assert_no_temp_files(root)
        journal = "profiles/pocket/j000001.log"
        assert _files(root) == {**files, journal: files.get(journal, b"")}
        reopened = SummaryStore(root)
        for reader in (store, reopened):
            assert reader.latest("pocket").version == parent
            assert _stored(reader, parent) == before

        record = store.append("pocket", parent, ingestor.compressed, report.delta)
        assert record is not None and record.version == parent + 1
        assert _stored(SummaryStore(root), parent + 1) == live


def _post(base: str, body: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        base + "/ingest", data=json.dumps(body).encode("utf-8"), method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestIngestFaultsOverHttp:
    @pytest.mark.parametrize("transport", [AnalyticsServer, AsyncAnalyticsServer])
    @pytest.mark.parametrize(
        "path, step",
        [
            ("journal", ("write", 1)),
            ("journal", ("fsync", 1)),
            ("checkpoint", ("write", 1)),
            ("checkpoint", ("replace", 2)),
        ],
        ids=["journal-write", "journal-fsync", "checkpoint-write", "manifest-replace"],
    )
    def test_failed_ingest_answers_500_and_the_next_succeeds(
        self, seed_profile, batches, monkeypatch, tmp_path, transport, path, step
    ):
        if path == "checkpoint":  # every ingest writes a checkpoint
            monkeypatch.setattr(store_module, "CHECKPOINT_RECORDS", 0)
        root = tmp_path / "store"
        store = _fresh_store(root, seed_profile)
        expected = _ingestor(store)
        with transport(store, port=0, staleness_threshold=float("inf")) as server:
            status, reply = _post(server.url, {"profile": "pocket", "statements": batches[0]})
            assert (status, reply["version"]) == (200, 2)
            expected.ingest_statements(batches[0])

            _inject(monkeypatch, step, errno.ENOSPC)
            status, reply = _post(server.url, {"profile": "pocket", "statements": batches[1]})
            monkeypatch.setattr(store_module, "os", os)
            assert status == 500
            assert "OSError" in reply["error"]
            _assert_no_temp_files(root)
            assert SummaryStore(root).latest("pocket").version == 2

            status, reply = _post(server.url, {"profile": "pocket", "statements": batches[2]})
            assert (status, reply["version"]) == (200, 3)
            expected.ingest_statements(batches[2])
            served = server._profile("pocket").ingestor
            assert _state(served.compressed, served.log) == _state(
                expected.compressed, expected.log
            )
        assert _stored(SummaryStore(root), 3) == _state(
            expected.compressed, expected.log
        )
