"""Tests for the append-only ingest journal of the profile store.

A non-checkpoint ``/ingest`` appends one checksummed record instead of
rewriting the profile and the manifest.  These tests pin what that must
not change: a reload (after eviction, a clean restart or a crash)
replays the journal into the exact state the live ingestor held; a torn
tail loses only the torn record; a second writer between two journaled
ingests cannot make a record apply to the wrong state; and the served
bytes equal those of the checkpoint-every-ingest path.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro import cli
from repro.core.compress import CompressedLog, LogRCompressor
from repro.obs.trace import Tracer
from repro.service import AnalyticsServer, AnalyticsService, AsyncAnalyticsServer
from repro.service import store as store_module
from repro.service.store import (
    _STORE_WRITES,
    SummaryStore,
    _delta_from_payload,
    _log_state_payload,
    _read_journal,
)
from repro.workloads import generate_bank, generate_sdss, load_log


@pytest.fixture(scope="module")
def statements():
    # Bank traffic churns literals into many rows, so a partition's
    # running entropy sum drifts from a recount in its last bits.
    return list(generate_bank(total=3_000, seed=1).statements(shuffle=True, seed=4))


@pytest.fixture(scope="module")
def seed_profile(statements):
    log, _ = load_log(statements[:1_500])
    return log, LogRCompressor(n_clusters=3, seed=0, n_init=2).compress(log)


@pytest.fixture(scope="module")
def batches(statements):
    """Bank batches, with a foreign (SDSS) batch every fourth."""
    foreign = list(generate_sdss(total=400, seed=1).statements(shuffle=True, seed=2))
    out = []
    for i in range(12):
        if i % 4 == 3:
            out.append(foreign[i * 10:(i + 1) * 10])
        else:
            out.append(statements[1_500 + i * 20:1_500 + (i + 1) * 20])
    return out


@pytest.fixture(scope="module")
def probe(statements):
    return statements[-5:] + ["DROP TABLE x; --"]


def _fresh_store(root, seed_profile) -> SummaryStore:
    log, compressed = seed_profile
    store = SummaryStore(root)
    store.save("bank", compressed, log)
    return store


def _state(ingestor) -> tuple[str, str, str]:
    """An ingestor's state, byte for byte: artifact, training log, staleness."""
    return (
        json.dumps(ingestor.compressed.to_payload()),
        json.dumps(_log_state_payload(ingestor.log)),
        ingestor.staleness.hex(),
    )


def _stored_state(store, version) -> tuple[str, str]:
    compressed, log = store.load_state("bank", version)
    return json.dumps(compressed.to_payload()), json.dumps(_log_state_payload(log))


def _live(service) -> tuple:
    return _state(service._profile("bank").ingestor)


class TestJournaledIngest:
    def test_non_checkpoint_ingest_appends_one_record_and_nothing_else(
        self, seed_profile, batches, monkeypatch, tmp_path
    ):
        store = _fresh_store(tmp_path / "store", seed_profile)
        service = AnalyticsService(store, staleness_threshold=float("inf"))
        service.handle_ingest({"profile": "bank", "statements": batches[0]})
        calls: dict[str, int] = {}

        def spy(owner, attr):
            real = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                calls[attr] = calls.get(attr, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        spy(store_module, "_append")
        spy(store_module, "_atomic_write")
        spy(store_module, "_parse_manifest")
        spy(store_module, "_log_state_payload")
        spy(SummaryStore, "_write_manifest")
        spy(CompressedLog, "to_payload")
        out = service.handle_ingest({"profile": "bank", "statements": batches[1]})
        assert out["version"] == 3
        assert calls == {"_append": 1}
        assert [v.version for v in store.versions("bank")] == [1, 2, 3]
        assert not (tmp_path / "store" / "profiles" / "bank" / "v000003.json").exists()

    def test_versions_merge_checkpoints_and_records(
        self, seed_profile, batches, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(store_module, "CHECKPOINT_RECORDS", 2)
        store = _fresh_store(tmp_path / "store", seed_profile)
        service = AnalyticsService(store, staleness_threshold=float("inf"))
        totals = [store.latest("bank").total_queries]
        for batch in batches[:5]:
            out = service.handle_ingest({"profile": "bank", "statements": batch})
            totals.append(totals[-1] + out["report"]["n_encoded"])
        reopened = SummaryStore(tmp_path / "store")
        versions = reopened.versions("bank")
        assert [v.version for v in versions] == [1, 2, 3, 4, 5, 6]
        assert [v.total_queries for v in versions] == totals
        assert reopened.latest("bank") == versions[-1]
        # Two records per checkpoint: 1 + (2, 3), 4 + (5, 6).
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert [v["version"] for v in manifest["profiles"]["bank"]["versions"]] == [1, 4]
        assert sorted(p.name for p in (tmp_path / "store/profiles/bank").iterdir()) == [
            "j000001.log", "j000004.log", "v000001.json", "v000004.json",
        ]

    def test_every_version_reloads_as_its_writer_held_it(
        self, seed_profile, batches, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(store_module, "CHECKPOINT_RECORDS", 3)
        store = _fresh_store(tmp_path / "store", seed_profile)
        service = AnalyticsService(store, staleness_threshold=0.05)
        held = {}
        recompressed = 0
        for batch in batches:
            out = service.handle_ingest({"profile": "bank", "statements": batch})
            recompressed += out["report"]["recompressed"]
            held[out["version"]] = _live(service)[:2]
        assert recompressed  # the foreign batches recompress
        reopened = SummaryStore(tmp_path / "store")
        for version, state in held.items():
            assert _stored_state(reopened, version) == state, version


class TestObservability:
    def test_append_and_checkpoint_spans_and_write_counts(
        self, seed_profile, batches, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(store_module, "CHECKPOINT_RECORDS", 1)
        service = AnalyticsService(
            _fresh_store(tmp_path / "store", seed_profile),
            staleness_threshold=float("inf"),
        )
        service._profile("bank")

        def writes(kind):
            return _STORE_WRITES.items().get((kind,), 0.0)

        before = writes("journal"), writes("profile")
        tracer = Tracer()
        with tracer.activate():
            for batch in batches[:2]:  # one record, then a checkpoint
                service.handle_ingest({"profile": "bank", "statements": batch})
        names = [span.name for span in tracer.iter_spans()]
        assert names.count("store.append") == 2  # the second is refused
        assert names.count("store.checkpoint") == 1
        assert (writes("journal"), writes("profile")) == (before[0] + 1, before[1] + 1)


class TestRestartEquivalence:
    @pytest.mark.parametrize("clean", [True, False], ids=["shutdown", "crash"])
    def test_restart_reproduces_the_live_ingestor(
        self, seed_profile, batches, monkeypatch, tmp_path, clean
    ):
        monkeypatch.setattr(store_module, "CHECKPOINT_RECORDS", 3)
        root = tmp_path / "store"
        service = AnalyticsService(
            _fresh_store(root, seed_profile), staleness_threshold=float("inf")
        )
        # Checkpoints 1 and 5 (the journal of 1 filled up), records 6 and 7.
        for batch in batches[:6]:
            service.handle_ingest({"profile": "bank", "statements": batch})
        live = _live(service)
        if clean:
            service.checkpoint()
        restarted = AnalyticsService(SummaryStore(root), staleness_threshold=float("inf"))
        handle = restarted._profile("bank")
        assert handle.version == 7
        assert _state(handle.ingestor) == live
        # The journal position survives the restart: after a crash the
        # periodic checkpoint lands where an uninterrupted run puts it.
        assert handle.journaled == (0 if clean else 2)
        for batch in batches[6:8]:
            restarted.handle_ingest({"profile": "bank", "statements": batch})
        manifest = json.loads((root / "manifest.json").read_text())
        checkpoints = [v["version"] for v in manifest["profiles"]["bank"]["versions"]]
        assert checkpoints == ([1, 5, 7] if clean else [1, 5, 9])

    @pytest.mark.parametrize("transport", [AnalyticsServer, AsyncAnalyticsServer])
    def test_shutdown_checkpoints_the_live_version_in_place(
        self, seed_profile, batches, tmp_path, transport
    ):
        root = tmp_path / "store"
        store = _fresh_store(root, seed_profile)
        server = transport(store, port=0, staleness_threshold=float("inf"))
        with server:
            for batch in batches[:3]:
                out = server.handle_ingest({"profile": "bank", "statements": batch})
            detail = server.handle_profile_detail("bank")
            total = server._profile("bank").ingestor.compressed.mixture.total
        assert out["version"] == 4
        manifest = json.loads((root / "manifest.json").read_text())
        last = manifest["profiles"]["bank"]["versions"][-1]
        assert (last["version"], last["total_queries"]) == (4, total)
        assert (root / "profiles" / "bank" / "v000004.json").exists()
        # The version history reads the same: the checkpoint keeps the
        # journal record's entry.
        assert AnalyticsService(SummaryStore(root)).handle_profile_detail("bank") == detail


class TestTornJournal:
    def test_every_cut_of_the_last_record_loads_the_prefix(
        self, seed_profile, batches, tmp_path
    ):
        root = tmp_path / "store"
        service = AnalyticsService(
            _fresh_store(root, seed_profile), staleness_threshold=float("inf")
        )
        held = {}
        for batch in batches[:3]:
            out = service.handle_ingest({"profile": "bank", "statements": batch})
            held[out["version"]] = _live(service)[:2]
        live = service._profile("bank").ingestor
        journal = root / "profiles" / "bank" / "j000001.log"
        data = journal.read_bytes()
        _, payloads = _read_journal(journal, 1)
        deltas = [_delta_from_payload(payload) for payload in payloads]
        last_start = _record_offsets(data)[-1]
        assert 0 < last_start < len(data)
        cuts = range(last_start, len(data))
        for cut in cuts:
            journal.write_bytes(data[:cut])
            store = SummaryStore(root)
            assert [v.version for v in store.versions("bank")] == [1, 2, 3], cut
            assert _read_journal(journal, 1) == (last_start, payloads[:2]), cut
            # The next append cuts the torn bytes and is readable.
            record = store.append("bank", 3, live.compressed, deltas[2], note="again")
            assert record is not None and record.version == 4, cut
            _, again = _read_journal(journal, 1)
            assert [_delta_from_payload(payload) for payload in again] == deltas, cut
            assert SummaryStore(root).latest("bank") == record, cut
            if cut in (cuts[0], cuts[len(cuts) // 2], cuts[-1]):
                reopened = SummaryStore(root)
                assert _stored_state(reopened, 3) == held[3], cut
                assert _stored_state(reopened, 4) == held[4], cut

    def test_corrupt_byte_in_the_last_record_drops_only_it(
        self, seed_profile, batches, tmp_path
    ):
        root = tmp_path / "store"
        service = AnalyticsService(
            _fresh_store(root, seed_profile), staleness_threshold=float("inf")
        )
        for batch in batches[:2]:
            service.handle_ingest({"profile": "bank", "statements": batch})
        journal = root / "profiles" / "bank" / "j000001.log"
        data = bytearray(journal.read_bytes())
        data[-3] ^= 0xFF
        journal.write_bytes(bytes(data))
        assert SummaryStore(root).latest("bank").version == 2


class TestTwoWriters:
    def test_cli_ingest_between_server_ingests(
        self, seed_profile, batches, tmp_path
    ):
        """A full save lands between two journaled ingests: the server's
        next merge no longer applies on top of the stored latest, so it
        is checkpointed instead of journaled."""
        root = tmp_path / "store"
        service = AnalyticsService(
            _fresh_store(root, seed_profile), staleness_threshold=float("inf")
        )
        held = {}
        out = service.handle_ingest({"profile": "bank", "statements": batches[0]})
        held[out["version"]] = _live(service)[:2]
        encoded = [out["report"]["n_encoded"]]

        log_file = tmp_path / "batch.sql"
        log_file.write_text("\n".join(batches[1]) + "\n", encoding="utf-8")
        expected = SummaryStore(root).load_version("bank").ingestor(
            staleness_threshold=float("inf")
        )
        expected.ingest_statements(batches[1])
        assert cli.main(
            ["ingest", str(root), "bank", str(log_file), "--staleness-threshold", "inf"]
        ) == 0
        held[3] = _state(expected)[:2]

        for batch in batches[2:4]:
            out = service.handle_ingest({"profile": "bank", "statements": batch})
            held[out["version"]] = _live(service)[:2]
            encoded.append(out["report"]["n_encoded"])
        assert sorted(held) == [2, 3, 4, 5]
        store = SummaryStore(root)
        for version, state in held.items():
            assert _stored_state(store, version) == state, version
        # v4 is the server's checkpoint over its own state (without the
        # CLI's batch), and v5 journals on top of it.
        manifest = json.loads((root / "manifest.json").read_text())
        assert [v["version"] for v in manifest["profiles"]["bank"]["versions"]] == [1, 3, 4]
        totals = [v.total_queries for v in store.versions("bank")]
        assert totals[3] - totals[1] == encoded[1]
        assert totals[4] - totals[3] == encoded[2]


class TestByteIdentity:
    @pytest.mark.parametrize("transport", [AnalyticsServer, AsyncAnalyticsServer])
    def test_bodies_equal_the_checkpoint_every_ingest_path(
        self, seed_profile, batches, probe, monkeypatch, tmp_path, transport
    ):
        def run(root, checkpoint_records):
            monkeypatch.setattr(store_module, "CHECKPOINT_RECORDS", checkpoint_records)
            store = _fresh_store(root, seed_profile)
            bodies = []
            with transport(store, port=0, staleness_threshold=0.05) as server:
                for batch in batches:
                    reply = json.loads(_post(server.url, "/ingest", batch))
                    reply["report"].pop("seconds")
                    bodies.append(reply)
                    bodies.append(_post(server.url, "/score", probe))
            summary = [
                (v.version, v.total_queries, v.error_bits, v.verbosity, v.n_components)
                for v in SummaryStore(root).versions("bank")
            ]
            return bodies, summary

        journaled = run(tmp_path / "journaled", 4)
        saved = run(tmp_path / "saved", 0)  # every ingest a checkpoint
        assert journaled == saved
        assert any(body["report"]["recompressed"] for body in journaled[0][::2])
        assert list((tmp_path / "journaled/profiles/bank").glob("j*.log"))
        assert not list((tmp_path / "saved/profiles/bank").glob("j*.log"))


def _post(base: str, path: str, statements: list[str]) -> bytes:
    body = json.dumps({"profile": "bank", "statements": statements}).encode()
    request = urllib.request.Request(base + path, data=body, method="POST")
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.read()


def _record_offsets(data: bytes) -> list[int]:
    """Where each whole record of a journal file starts."""
    offsets, offset = [], 0
    while offset < len(data):
        offsets.append(offset)
        offset += 8 + int.from_bytes(data[offset:offset + 4], "little")
    return offsets
