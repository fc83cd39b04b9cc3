"""CI smoke test: compress → store → serve → score → ingest → teardown.

Builds a tiny TPC-H-like profile in a temp store and exercises both
serving backends (the threaded ``AnalyticsServer`` and the asyncio
micro-batching ``AsyncAnalyticsServer`` — the two ``--server-backend``
values) on ephemeral ports: scores a 100-query batch through the HTTP
client, runs one ingest round, verifies the store advanced a version,
scrapes ``/metrics`` and checks the exposition reflects the traffic
(including the async transport's batch-size and queue-depth
families), and shuts down.  Then, on both backends, the restart legs:
ingest past one periodic journal checkpoint, and either shut down
cleanly or abandon the server without ``shutdown()``; a new server
over the same directory must list the same versions and answer a
probe ``/score`` with the same bytes, and every checkpoint file the
leg wrote must be one gzip member holding a ``logr-profile-v1``
payload.  Last, on both backends and a
PocketData profile, the served alert threshold after a plain
``/ingest``, one that grows the codebook and one that recompresses
must equal, bit for bit, the dense eq. 1 calibration of the stored
version.  Exits non-zero on any failure; runtime is a few seconds so
it fits the fast CI budget.

Run with::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import gzip
import json
import sys
import tempfile
import time
import urllib.request

from pathlib import Path

import numpy as np

from repro.core.compress import LogRCompressor
from repro.core.entropy import safe_log2
from repro.obs import DEFAULT_REGISTRY
from repro.obs.textfmt import render_text
from repro.service import (
    AnalyticsClient,
    AnalyticsServer,
    AsyncAnalyticsServer,
    SummaryStore,
)
from repro.service.store import CHECKPOINT_RECORDS
from repro.workloads import generate_pocketdata, generate_tpch


def parse_exposition(text: str) -> dict[str, float]:
    """Prometheus-text sample name (labels included) -> value."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    return samples


def run_backend(backend: str, workload, log, compressed) -> None:
    """Full request-cycle smoke against one serving backend."""
    with tempfile.TemporaryDirectory() as root:
        store = SummaryStore(root)
        store.save("tpch", compressed, log, note="smoke seed")

        if backend == "async":
            server = AsyncAnalyticsServer(store, port=0)
        else:
            server = AnalyticsServer(store, port=0)
        with server:
            client = AnalyticsClient(server.url)

            profiles = client.profiles()
            assert [p["name"] for p in profiles] == ["tpch"], profiles

            batch = list(workload.statements(shuffle=True, seed=1))[:100]
            scored = client.score("tpch", batch)
            assert len(scored["scores"]) == 100, len(scored["scores"])
            assert all(
                isinstance(s["log2_likelihood"], float)
                for s in scored["scores"]
            ), "training-distribution statements must all parse"
            anomalous = sum(s["anomalous"] for s in scored["scores"])
            assert anomalous <= 5, f"{anomalous} false alarms on typical traffic"

            ingested = client.ingest("tpch", batch)
            assert ingested["version"] == 2, ingested
            assert ingested["report"]["n_encoded"] == 100, ingested
            assert ingested["report"]["n_skipped_procedures"] == 0, ingested
            assert ingested["report"]["n_skipped_unparseable"] == 0, ingested

            rescored = client.score("tpch", batch[:10])
            assert rescored["version"] == 2

            stats = client.stats()
            assert stats["requests"]["score"] >= 2, stats
            # The fingerprint fast path must be live on /ingest: a
            # 100-statement batch over a handful of templates resolves
            # mostly from cache.
            cache = stats["parse_cache"]["tpch"]["rows"]
            assert cache["hits"] + cache["misses"] == 100, cache
            assert cache["hit_rate"] > 0.5, cache

            # /metrics: the exposition must carry the same traffic the
            # /stats counters saw, plus the library-layer families.  The
            # threaded transport observes a request's latency after
            # writing its response, so the last /score's observation
            # can trail the client by a moment: re-scrape until it
            # lands, for at most a few seconds.
            deadline = time.monotonic() + 5.0
            while True:
                text = client.metrics()
                samples = parse_exposition(text)
                latency_count = samples[
                    'logr_http_request_seconds_count{endpoint="score"}'
                ]
                if latency_count >= 2 or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            assert latency_count >= 2, latency_count
            assert text.startswith("# HELP"), text[:80]
            score_total = samples['logr_http_requests_total{endpoint="score"}']
            assert score_total >= 2, score_total
            ingest_total = samples['logr_http_requests_total{endpoint="ingest"}']
            assert ingest_total >= 1, ingest_total
            assert samples["logr_http_queries_scored_total"] >= 110, samples
            assert samples["logr_ingest_batches_total"] >= 1, samples
            assert (
                samples['logr_ingest_statements_total{outcome="encoded"}'] >= 100
            ), samples

            if backend == "async":
                # The micro-batching transport's own families: every
                # /score flush lands in the batch-size histogram, and
                # the ingest admission gauge reads 0 once traffic has
                # drained.
                flushes = samples[
                    'logr_serve_batch_size_count{endpoint="score"}'
                ]
                assert flushes >= 2, flushes
                depth = samples['logr_serve_queue_depth{endpoint="ingest"}']
                assert depth == 0.0, depth
                shed = samples['logr_serve_shed_total{endpoint="ingest"}']
                assert shed == 0.0, shed

        reloaded = store.load("tpch")
        assert reloaded.mixture.total == log.total + 100


def post_raw(base: str, path: str, body: dict) -> bytes:
    """POST *body* and return the raw response bytes."""
    request = urllib.request.Request(
        base + path, data=json.dumps(body).encode("utf-8"), method="POST"
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.read()


def run_restart(backend: str, workload, log, compressed, clean: bool) -> None:
    """Ingest past a periodic checkpoint, restart, compare the answers.

    *clean* shuts the first server down (it checkpoints its live
    version); otherwise the server is abandoned as it stands and the
    new one reads a fresh ``SummaryStore``, replaying the journal.
    """
    server_class = AsyncAnalyticsServer if backend == "async" else AnalyticsServer
    statements = list(workload.statements(shuffle=True, seed=3))
    probe = {"profile": "tpch", "statements": statements[:20]}
    with tempfile.TemporaryDirectory() as root:
        store = SummaryStore(root)
        store.save("tpch", compressed, log)
        server = server_class(store, port=0, staleness_threshold=float("inf"))
        server.start()
        client = AnalyticsClient(server.url)
        n_ingests = CHECKPOINT_RECORDS + 3
        for i in range(n_ingests):
            client.ingest("tpch", statements[i * 4:(i + 1) * 4])
        manifest = json.loads((Path(root) / "manifest.json").read_text())
        checkpoints = [v["version"] for v in manifest["profiles"]["tpch"]["versions"]]
        assert checkpoints == [1, CHECKPOINT_RECORDS + 2], checkpoints
        detail = client.profile("tpch")
        assert detail["current_version"] == n_ingests + 1, detail
        scored = post_raw(server.url, "/score", probe)
        if clean:
            server.shutdown()
        restarted = server_class(SummaryStore(root), port=0)
        with restarted:
            again = AnalyticsClient(restarted.url)
            assert again.profile("tpch") == detail, "version history changed"
            assert post_raw(restarted.url, "/score", probe) == scored
        if not clean:
            server.shutdown()
        check_deflated_checkpoints(Path(root), "tpch")


def check_deflated_checkpoints(root: Path, name: str) -> None:
    """Every checkpoint file is one gzip member of a profile payload."""
    paths = sorted((root / "profiles" / name).glob("v*.json"))
    manifest = json.loads((root / "manifest.json").read_text())
    listed = [v["version"] for v in manifest["profiles"][name]["versions"]]
    assert [int(path.stem[1:]) for path in paths] == listed, (paths, listed)
    for path in paths:
        data = path.read_bytes()
        assert data[:2] == b"\x1f\x8b", f"{path} is not gzip"
        payload = json.loads(gzip.decompress(data))
        assert payload["format"] == "logr-profile-v1", path
        assert payload["version"] == int(path.stem[1:]), path


def dense_point_probabilities(mixture, matrix) -> np.ndarray:
    """Eq. 1 over the whole vocabulary: every component multiplies all
    ``n`` terms of every row, weighted terms summed in component order
    (the likelihood kernel's oracle, as in the test suite)."""
    total = np.zeros(matrix.shape[0])
    for w, component in zip(mixture.weights, mixture.components):
        p = component.encoding.marginals
        total += w * np.prod(np.where(matrix > 0, p, 1 - p), axis=1)
    return total


def run_threshold(backend: str, workload, log, compressed, foreign) -> None:
    """The served threshold is the dense calibration of the stored version.

    After a plain ``/ingest`` of *workload*'s statements, one that grows
    the codebook with *foreign* ones and one that recompresses,
    ``/score`` must answer with the threshold an offline ``np.quantile``
    over the dense scores of ``store.load_state`` at the served version
    gives, bit for bit.
    """
    server_class = AsyncAnalyticsServer if backend == "async" else AnalyticsServer
    own = list(workload.statements(shuffle=True, seed=4))
    batches = [
        ("plain", own[:40]),
        ("new features", own[40:60] + foreign[:30]),
        ("recompress", own[60:100] + foreign[30:60]),
    ]
    with tempfile.TemporaryDirectory() as root:
        store = SummaryStore(root)
        store.save("pocket", compressed, log)
        server = server_class(store, port=0, staleness_threshold=float("inf"))
        with server:
            client = AnalyticsClient(server.url)
            for kind, batch in batches:
                # Force the staleness trigger for exactly one batch.
                server._profile("pocket").ingestor.staleness_threshold = (
                    -1.0 if kind == "recompress" else float("inf")
                )
                report = client.ingest("pocket", batch)["report"]
                assert report["recompressed"] == (kind == "recompress"), report
                if kind == "new features":
                    assert report["n_new_features"] > 0, report
                served = client.score("pocket", own[:1])
                stored, stored_log = store.load_state("pocket", served["version"])
                scores = safe_log2(
                    dense_point_probabilities(stored.mixture, stored_log.matrix)
                )
                want = np.float64(
                    np.quantile(
                        np.repeat(scores, stored_log.counts),
                        server.threshold_quantile,
                    )
                )
                got = np.float64(served["threshold"])
                assert got.view(np.uint64) == want.view(np.uint64), (
                    backend, kind, got, want,
                )


def run_columnar_encode(workload) -> None:
    """Spill-mode encode smoke: telemetry families must reflect the run.

    Drives ``load_log_columnar`` with a spill budget small enough to
    force several runs and chunks, then checks the streaming encoder's
    instrumentation — the chunk/run counters, the byte counter, and the
    spill-latency histogram — lands in the default-registry exposition
    the ``/metrics`` endpoint serves.
    """
    from repro.workloads.logio import load_log_columnar

    statements = list(workload.statements(shuffle=True, seed=2))[:400]
    with tempfile.TemporaryDirectory() as root:
        columnar, report = load_log_columnar(
            statements, Path(root) / "log", chunk_rows=2
        )
        assert report.parsed == len(statements), report
        assert columnar.n_chunks >= 2, columnar
        assert columnar.to_query_log().total == len(statements)

    samples = parse_exposition(render_text(DEFAULT_REGISTRY.snapshot()))
    chunks = samples['logr_encode_chunks_total{stage="chunk"}']
    assert chunks >= 2, chunks
    runs = samples['logr_encode_chunks_total{stage="run"}']
    assert runs >= 1, runs
    assert samples["logr_encode_bytes_written_total"] > 0, samples
    spills = samples["logr_encode_spill_seconds_count"]
    assert spills == runs, (spills, runs)
    assert samples["logr_encode_spill_seconds_sum"] >= 0.0, samples


def main() -> int:
    workload = generate_tpch(total=1_000, variants_per_template=4, seed=0)
    log = workload.to_query_log()
    compressed = LogRCompressor(n_clusters=2, seed=0, n_init=2).compress(log)
    # The threshold legs run on a PocketData profile: its components
    # share features, so a row outside one component's support still
    # scores under the others, and a kernel that got coverage wrong
    # would move the quantile.
    pocket = generate_pocketdata(total=3_000, n_distinct=80, seed=2)
    pocket_log = pocket.to_query_log()
    pocket_compressed = LogRCompressor(n_clusters=3, seed=0, n_init=2).compress(
        pocket_log
    )
    foreign = list(workload.statements())

    for backend in ("threaded", "async"):
        run_backend(backend, workload, log, compressed)
        for clean in (True, False):
            run_restart(backend, workload, log, compressed, clean)
        run_threshold(backend, pocket, pocket_log, pocket_compressed, foreign)

    run_columnar_encode(workload)

    print(
        "service smoke: PASS x2 backends (scored 100-query batch, "
        "ingested, v2 persisted, /metrics scrape verified; clean and "
        "crash restarts past a journal checkpoint answer alike, every "
        "checkpoint deflated; served "
        "threshold equals the dense calibration after plain, growing and "
        "recompressing ingests) + columnar encode telemetry"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
