"""CI smoke test: compress → store → serve → score → ingest → teardown.

Builds a tiny TPC-H-like profile in a temp store and exercises both
serving backends (the threaded ``AnalyticsServer`` and the asyncio
micro-batching ``AsyncAnalyticsServer`` — the two ``--server-backend``
values) on ephemeral ports: scores a 100-query batch through the HTTP
client, runs one ingest round, verifies the store advanced a version,
scrapes ``/metrics`` and checks the exposition reflects the traffic
(including the async transport's batch-size and queue-depth
families), and shuts down.  Exits non-zero on any failure; runtime is
a few seconds so it fits the fast CI budget.

Run with::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
import time

from pathlib import Path

from repro.core.compress import LogRCompressor
from repro.obs import DEFAULT_REGISTRY
from repro.obs.textfmt import render_text
from repro.service import (
    AnalyticsClient,
    AnalyticsServer,
    AsyncAnalyticsServer,
    SummaryStore,
)
from repro.workloads import generate_tpch


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

    for backend in ("threaded", "async"):
        run_backend(backend, workload, log, compressed)

    run_columnar_encode(workload)

    print(
        "service smoke: PASS x2 backends (scored 100-query batch, "
        "ingested, v2 persisted, /metrics scrape verified) "
        "+ columnar encode telemetry"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
