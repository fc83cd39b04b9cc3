"""Tests for the analytics server and client, including concurrency."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.apps.monitor import WorkloadMonitor
from repro.core.compress import LogRCompressor
from repro.core.entropy import safe_log2
from repro.service import (
    AnalyticsClient,
    AnalyticsServer,
    AnalyticsService,
    ServiceError,
    SummaryStore,
)
from repro.workloads import generate_pocketdata, generate_tpch


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A running server over a store with a tpch profile (with state)."""
    root = tmp_path_factory.mktemp("service") / "store"
    store = SummaryStore(root)
    workload = generate_tpch(total=2_000, variants_per_template=4, seed=0)
    log = workload.to_query_log()
    compressed = LogRCompressor(n_clusters=2, seed=0, n_init=2).compress(log)
    store.save("tpch", compressed, log, note="seed")
    server = AnalyticsServer(store, port=0, staleness_threshold=float("inf"))
    server.start()
    yield server, AnalyticsClient(server.url), workload, log, compressed
    server.shutdown()


class TestEndpoints:
    def test_profiles_index(self, served):
        _, client, _, _, compressed = served
        profiles = client.profiles()
        names = [p["name"] for p in profiles]
        assert "tpch" in names
        entry = profiles[names.index("tpch")]
        assert entry["n_components"] == compressed.mixture.n_components
        assert entry["has_state"]

    def test_profile_detail(self, served):
        _, client, _, _, _ = served
        detail = client.profile("tpch")
        assert detail["name"] == "tpch"
        assert detail["current_version"] >= 1
        assert detail["versions"][0]["version"] == 1

    def test_unknown_profile_is_404(self, served):
        _, client, _, _, _ = served
        with pytest.raises(ServiceError) as excinfo:
            client.score("ghost", ["SELECT 1 FROM t"])
        assert excinfo.value.status == 404

    def test_missing_body_key_is_400(self, served):
        server, _, _, _, _ = served
        client = AnalyticsClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client._request("/score", {"profile": "tpch"})
        assert excinfo.value.status == 400

    def test_score_matches_local_monitor(self, served):
        _, client, workload, log, compressed = served
        statements = list(workload.statements())[:64]
        remote = client.score("tpch", statements)
        local = WorkloadMonitor(
            compressed.mixture, log, threshold_quantile=0.001
        ).score_batch(statements)
        assert len(remote["scores"]) == len(local)
        for got, want in zip(remote["scores"], local):
            assert got["log2_likelihood"] == want.log2_likelihood
            assert got["anomalous"] == want.anomalous

    def test_unparseable_scores_neg_inf(self, served):
        _, client, _, _, _ = served
        out = client.score("tpch", ["DROP TABLE x; --"])
        entry = out["scores"][0]
        assert entry["anomalous"]
        assert entry["log2_likelihood"] == "-inf"

    def test_drift_same_distribution_low(self, served):
        _, client, workload, _, _ = served
        statements = list(workload.statements(shuffle=True, seed=4))[:100]
        out = client.drift("tpch", statements, window_size=50)
        assert out["n_encoded"] == 100
        assert not out["batch_drifted"]
        assert len(out["windows"]) == 2

    def test_drift_batch_matches_its_own_window(self, served):
        # A batch of exactly window_size statements fills one pane, so
        # the one-shot batch assessment must agree with that pane.
        _, client, workload, _, _ = served
        statements = list(workload.statements(shuffle=True, seed=5))[:27]
        statements += ["TOTAL GARBAGE @@@", "SELECT FROM WHERE", "EXEC sp_x 1"]
        out = client.drift("tpch", statements, window_size=30)
        (window,) = out["windows"]
        assert window["n_statements"] == 30
        assert out["n_encoded"] == window["n_encoded"] == 27
        assert out["batch_divergence_bits"] == window["divergence_bits"]

    def test_drift_foreign_workload_flags(self, served):
        _, client, _, _, _ = served
        foreign = list(
            generate_pocketdata(total=200, n_distinct=40, seed=1).statements()
        )[:100]
        out = client.drift("tpch", foreign, window_size=100)
        assert out["batch_drifted"]
        assert out["top_features"], "drifted features should be reported"

    def test_stats_counters(self, served):
        _, client, _, _, _ = served
        stats = client.stats()
        assert stats["requests"].get("score", 0) >= 1
        assert "tpch" in stats["hot_profiles"]
        assert stats["uptime_seconds"] > 0


def parse_exposition(text: str) -> dict[str, float]:
    """Sample-name (labels included) -> value, skipping comment lines."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    return samples


class TestMetricsEndpoint:
    def test_exposition_carries_request_metrics(self, served):
        _, client, workload, _, _ = served
        statements = list(workload.statements(shuffle=True, seed=9))[:10]
        client.score("tpch", statements)
        text = client.metrics()
        assert "# TYPE logr_http_requests_total counter" in text
        assert "# TYPE logr_http_request_seconds histogram" in text
        samples = parse_exposition(text)
        assert samples['logr_http_requests_total{endpoint="score"}'] >= 1
        assert samples['logr_http_request_seconds_count{endpoint="score"}'] >= 1
        assert samples["logr_http_queries_scored_total"] >= 10
        assert samples["logr_http_uptime_seconds"] > 0

    def test_exposition_merges_library_registry(self, served):
        _, client, _, _, _ = served
        text = client.metrics()
        # Families registered at import time by the instrumented
        # library layers render through the same scrape.
        assert "# TYPE logr_pipeline_stage_seconds histogram" in text
        assert "# TYPE logr_executor_tasks_total counter" in text
        assert "# TYPE logr_parse_cache_lookups_total counter" in text

    def test_content_type_and_self_counting(self, served):
        import urllib.request

        server, client, _, _, _ = served
        with urllib.request.urlopen(server.url + "/metrics") as response:
            assert response.headers["Content-Type"] == (
                "text/plain; version=0.0.4; charset=utf-8"
            )
        samples = parse_exposition(client.metrics())
        assert samples['logr_http_requests_total{endpoint="metrics"}'] >= 2

    def test_concurrent_requests_count_exactly(self, served):
        server, client, _, _, _ = served
        hits = 32
        before = server._requests.value(endpoint="profiles")

        def hit(_):
            AnalyticsClient(server.url).profiles()

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hit, range(hits)))
        after = server._requests.value(endpoint="profiles")
        assert after - before == hits
        assert client.stats()["requests"]["profiles"] >= hits


class TestIngestEndpoint:
    def test_ingest_persists_and_republishes(self, tmp_path):
        store = SummaryStore(tmp_path / "store")
        workload = generate_tpch(total=1_000, variants_per_template=4, seed=1)
        log = workload.to_query_log()
        compressed = LogRCompressor(n_clusters=2, seed=0, n_init=2).compress(log)
        store.save("tpch", compressed, log)
        with AnalyticsServer(store, port=0) as server:
            client = AnalyticsClient(server.url)
            statements = list(workload.statements(shuffle=True, seed=2))[:100]
            out = client.ingest("tpch", statements)
            assert out["version"] == 2
            assert out["report"]["n_encoded"] == 100
            scored = client.score("tpch", statements[:5])
            assert scored["version"] == 2
        # the merged profile survived the server
        reloaded = store.load("tpch")
        assert reloaded.mixture.total == log.total + 100

    def test_ingest_surfaces_parse_cache_and_skip_split(self, tmp_path):
        store = SummaryStore(tmp_path / "store")
        workload = generate_tpch(total=1_000, variants_per_template=4, seed=1)
        log = workload.to_query_log()
        compressed = LogRCompressor(n_clusters=2, seed=0, n_init=2).compress(log)
        store.save("tpch", compressed, log)
        with AnalyticsServer(store, port=0) as server:
            client = AnalyticsClient(server.url)
            statements = list(workload.statements(shuffle=True, seed=2))[:80]
            statements += ["EXEC sp_x 1", "TOTAL GARBAGE @@@"]
            out = client.ingest("tpch", statements)
            report = out["report"]
            assert report["n_encoded"] == 80
            assert report["n_skipped"] == 2
            assert report["n_skipped_procedures"] == 1
            assert report["n_skipped_unparseable"] == 1
            stats = client.stats()
            cache = stats["parse_cache"]["tpch"]
            assert cache["rows"]["hits"] + cache["rows"]["misses"] >= 80
            assert 0.0 <= cache["rows"]["hit_rate"] <= 1.0
            assert cache["templates"]["misses"] >= 1

    def test_eviction_persists_unpersisted_ingest(self, tmp_path):
        store = SummaryStore(tmp_path / "store")
        for name, seed in (("alpha", 1), ("beta", 2)):
            workload = generate_tpch(total=500, variants_per_template=4, seed=seed)
            log = workload.to_query_log()
            compressed = LogRCompressor(n_clusters=2, seed=0, n_init=2).compress(log)
            store.save(name, compressed, log)
        with AnalyticsServer(store, port=0, cache_profiles=1) as server:
            client = AnalyticsClient(server.url)
            batch = list(
                generate_tpch(total=200, variants_per_template=4, seed=1).statements()
            )[:50]
            client.ingest("alpha", batch, persist=False)
            assert store.latest("alpha").version == 1  # not yet persisted
            client.score("beta", batch[:2])  # evicts alpha from the LRU
            assert store.latest("alpha").version == 2
            assert store.latest("alpha").note == "persisted on cache eviction"
        assert store.load("alpha").mixture.total == 500 + 50

    def test_drift_threshold_change_rebuilds_monitor(self, tmp_path):
        store = SummaryStore(tmp_path / "store")
        workload = generate_tpch(total=500, variants_per_template=4, seed=1)
        log = workload.to_query_log()
        compressed = LogRCompressor(n_clusters=2, seed=0, n_init=2).compress(log)
        store.save("tpch", compressed, log)
        statements = list(workload.statements())[:40]
        with AnalyticsServer(store, port=0) as server:
            client = AnalyticsClient(server.url)
            strict = client.drift("tpch", statements, window_size=20,
                                  threshold=1e-9)
            lax = client.drift("tpch", statements, window_size=20,
                               threshold=1e9)
            assert strict["threshold"] == 1e-9
            assert lax["threshold"] == 1e9  # not the cached 1e-9 monitor

    def test_ingest_without_state_is_400(self, tmp_path):
        store = SummaryStore(tmp_path / "store")
        workload = generate_tpch(total=500, variants_per_template=4, seed=1)
        compressed = LogRCompressor(n_clusters=2, seed=0, n_init=2).compress(
            workload.to_query_log()
        )
        store.save("slim", compressed)  # artifact only, no state
        with AnalyticsServer(store, port=0) as server:
            client = AnalyticsClient(server.url)
            with pytest.raises(ServiceError) as excinfo:
                client.ingest("slim", ["SELECT 1 FROM t"])
            assert excinfo.value.status == 400

    def test_refined_profile_scores_but_rejects_ingest(self, tmp_path):
        store = SummaryStore(tmp_path / "store")
        workload = generate_tpch(total=500, variants_per_template=4, seed=1)
        log = workload.to_query_log()
        refined = LogRCompressor(
            n_clusters=2, refine_patterns=1, seed=0, n_init=2
        ).compress(log)
        store.save("refined", refined, log)
        statements = list(workload.statements())[:10]
        with AnalyticsServer(store, port=0) as server:
            client = AnalyticsClient(server.url)
            out = client.score("refined", statements)  # must not 400
            assert len(out["scores"]) == 10
            drift = client.drift("refined", statements, window_size=10)
            assert drift["n_encoded"] == 10  # state log still calibrates
            with pytest.raises(ServiceError) as excinfo:
                client.ingest("refined", statements)
            assert excinfo.value.status == 400
            assert "refined" in excinfo.value.message


class TestConcurrentScoring:
    """/score under a concurrent /ingest: no torn reads.

    Every concurrent score response must be bit-identical to one of the
    *serial* per-version score vectors — a response mixing marginals
    from two versions would match neither.
    """

    N_INGESTS = 3
    SCORES_PER_WORKER = 10
    WORKERS = 4

    def test_no_torn_reads(self, tmp_path):
        store = SummaryStore(tmp_path / "store")
        workload = generate_tpch(total=1_500, variants_per_template=4, seed=3)
        log = workload.to_query_log()
        compressed = LogRCompressor(n_clusters=2, seed=0, n_init=2).compress(log)
        store.save("tpch", compressed, log)
        probe = list(workload.statements())[:32]
        ingest_batches = [
            list(workload.statements(shuffle=True, seed=10 + i))[:120]
            for i in range(self.N_INGESTS)
        ]

        with AnalyticsServer(
            store, port=0, staleness_threshold=float("inf")
        ) as server:
            client = AnalyticsClient(server.url)

            def score_vector():
                out = client.score("tpch", probe)
                return tuple(s["log2_likelihood"] for s in out["scores"])

            # Serial replay: the score vector at every version boundary.
            allowed = {score_vector()}
            with ThreadPoolExecutor(max_workers=self.WORKERS + 1) as pool:

                def hammer(_):
                    worker = AnalyticsClient(server.url)
                    vectors = []
                    for _ in range(self.SCORES_PER_WORKER):
                        out = worker.score("tpch", probe)
                        vectors.append(
                            tuple(s["log2_likelihood"] for s in out["scores"])
                        )
                    return vectors

                futures = [
                    pool.submit(hammer, i) for i in range(self.WORKERS)
                ]
                for batch in ingest_batches:
                    client.ingest("tpch", batch, persist=False)
                    allowed.add(score_vector())
                observed = [v for f in futures for v in f.result()]

            assert len(allowed) == self.N_INGESTS + 1, (
                "each ingest should move the published scores"
            )
            for vector in observed:
                assert vector in allowed, "torn read: score vector matches no version"


@pytest.mark.slow
class TestServiceSoak:
    """Heavier concurrency soak: more versions, more readers, recompression on."""

    def test_sustained_ingest_under_load(self, tmp_path):
        store = SummaryStore(tmp_path / "store")
        workload = generate_tpch(total=4_000, variants_per_template=6, seed=5)
        log = workload.to_query_log()
        compressed = LogRCompressor(n_clusters=3, seed=0, n_init=2).compress(log)
        store.save("tpch", compressed, log)
        probe = list(workload.statements())[:64]
        stream = list(workload.statements(shuffle=True, seed=6))
        foreign = list(
            generate_pocketdata(total=600, n_distinct=60, seed=7).statements()
        )

        with AnalyticsServer(store, port=0, staleness_threshold=0.05) as server:
            client = AnalyticsClient(server.url)

            def score_vector(c):
                return tuple(
                    s["log2_likelihood"] for s in c.score("tpch", probe)["scores"]
                )

            allowed = {score_vector(client)}
            recompressions = 0
            with ThreadPoolExecutor(max_workers=9) as pool:

                def hammer(_):
                    worker = AnalyticsClient(server.url)
                    return [score_vector(worker) for _ in range(25)]

                futures = [pool.submit(hammer, i) for i in range(8)]
                # Interleave in-distribution and drifting batches so the
                # staleness trigger actually fires mid-load.
                for i in range(8):
                    batch = stream[i * 150:(i + 1) * 150]
                    if i % 3 == 2:
                        batch = batch + foreign[(i // 3) * 150:(i // 3 + 1) * 150]
                    report = client.ingest("tpch", batch)["report"]
                    recompressions += report["recompressed"]
                    allowed.add(score_vector(client))
                observed = [v for f in futures for v in f.result()]

            assert recompressions >= 1, "soak should exercise recompression"
            for vector in observed:
                assert vector in allowed
            versions = [v["version"] for v in client.profile("tpch")["versions"]]
            assert versions == list(range(1, 10))

class TestServedThreshold:
    def test_threshold_equals_offline_dense_calibration(
        self, tmp_path, dense_point_probabilities
    ):
        """After every ingest the served alert threshold is the dense eq. 1
        calibration of the stored version, bit for bit: through a plain
        merge, one that grows the codebook, and a recompression."""
        store = SummaryStore(tmp_path / "store")
        workload = generate_pocketdata(total=3_000, n_distinct=80, seed=2)
        log = workload.to_query_log()
        compressed = LogRCompressor(n_clusters=3, seed=0, n_init=2).compress(log)
        store.save("pocket", compressed, log, note="seed")
        service = AnalyticsService(store, staleness_threshold=float("inf"))
        own = list(workload.statements(shuffle=True, seed=4))
        foreign = list(
            generate_tpch(total=300, variants_per_template=2, seed=1).statements()
        )
        batches = [
            ("plain", own[:40]),
            ("new features", own[40:60] + foreign[:30]),
            ("recompress", own[60:100] + foreign[30:60]),
            ("plain", own[100:140]),
        ]
        for kind, batch in batches:
            ingestor = service._profile("pocket").ingestor
            # Force the staleness trigger for exactly one batch.
            ingestor.staleness_threshold = -1.0 if kind == "recompress" else float("inf")
            reply = service.handle_ingest({"profile": "pocket", "statements": batch})
            if kind == "new features":
                assert reply["report"]["n_new_features"] > 0
            assert reply["report"]["recompressed"] == (kind == "recompress")
            served = service.handle_score(
                {"profile": "pocket", "statements": own[:1]}
            )
            assert served["version"] == reply["version"]
            stored, stored_log = store.load_state("pocket", reply["version"])
            scores = safe_log2(
                dense_point_probabilities(stored.mixture, stored_log.matrix)
            )
            want = np.quantile(
                np.repeat(scores, stored_log.counts), service.threshold_quantile
            )
            assert np.float64(served["threshold"]).view(np.uint64) == np.float64(
                want
            ).view(np.uint64), kind
