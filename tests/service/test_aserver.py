"""Tests for the asyncio micro-batching transport (``aserver``).

Three contracts from the issue: micro-batched ``/score`` responses are
byte-identical to sequential scalar requests on the threaded transport;
admission control sheds ingest
overflow with 429 and recovers after drain; shutdown drains in-flight
requests while refusing new connections.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compress import LogRCompressor
from repro.service import (
    AnalyticsClient,
    AnalyticsServer,
    AsyncAnalyticsServer,
    ServiceError,
    SummaryStore,
)
from repro.service.client import _RETRIES
from repro.workloads import generate_tpch


def parse_exposition(text: str) -> dict[str, float]:
    """Sample-name (labels included) -> value, skipping comment lines."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    return samples


_POOL = [
    "SELECT a FROM t WHERE x = 0",
    "SELECT b, a FROM t WHERE y = 0 AND z = 1",
    "SELECT c FROM u WHERE s = 'seed'",
    "SELECT base FROM t",
    "SELECT a, c FROM t JOIN u ON t.id = u.id",
    "SELECT count(*) FROM u GROUP BY s",
    "DROP TABLE x; --",  # unparseable: scores -inf on both transports
]


def _post_raw(base: str, path: str, body: dict) -> tuple[int, bytes, dict]:
    """POST and return (status, raw bytes, headers) — no JSON decoding."""
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


@pytest.fixture(scope="module")
def transports(tmp_path_factory):
    """One store with one profile, served by both transports."""
    root = tmp_path_factory.mktemp("aserver") / "store"
    store = SummaryStore(root)
    workload = generate_tpch(total=800, variants_per_template=4, seed=0)
    log = workload.to_query_log()
    compressed = LogRCompressor(n_clusters=2, seed=0, n_init=2).compress(log)
    store.save("tpch", compressed, log, note="seed")
    threaded = AnalyticsServer(store, port=0, staleness_threshold=float("inf"))
    threaded.start()
    # A generous window so concurrently fired requests reliably coalesce.
    batched = AsyncAnalyticsServer(
        store,
        port=0,
        staleness_threshold=float("inf"),
        batch_window_ms=50.0,
    )
    batched.start()
    yield threaded, batched
    batched.shutdown()
    threaded.shutdown()


class TestBatchedScoringBitIdentity:
    @given(
        batches=st.lists(
            st.lists(st.sampled_from(_POOL), min_size=1, max_size=6),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=10, deadline=None)
    def test_concurrent_batched_equals_sequential_scalar(
        self, transports, batches
    ):
        threaded, batched = transports
        sequential = [
            _post_raw(
                threaded.url,
                "/score",
                {"profile": "tpch", "statements": batch},
            )
            for batch in batches
        ]
        with ThreadPoolExecutor(max_workers=len(batches)) as pool:
            concurrent = list(
                pool.map(
                    lambda batch: _post_raw(
                        batched.url,
                        "/score",
                        {"profile": "tpch", "statements": batch},
                    ),
                    batches,
                )
            )
        for (t_status, t_body, _), (a_status, a_body, _) in zip(
            sequential, concurrent
        ):
            assert a_status == t_status == 200
            assert a_body == t_body  # byte-identical JSON

    def test_coalescing_actually_happens(self, transports):
        """Concurrent requests inside the window land in ONE sweep."""
        _, batched = transports
        counts_before = parse_exposition(
            _get_metrics(batched.url)
        ).get('logr_serve_batch_size_count{endpoint="score"}', 0.0)
        statements = _POOL[:3]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(
                    lambda _: _post_raw(
                        batched.url,
                        "/score",
                        {"profile": "tpch", "statements": statements},
                    ),
                    range(8),
                )
            )
        assert all(status == 200 for status, _, _ in results)
        samples = parse_exposition(_get_metrics(batched.url))
        flushes = (
            samples['logr_serve_batch_size_count{endpoint="score"}']
            - counts_before
        )
        # 8 requests in a 50 ms window: strictly fewer flushes than
        # requests proves coalescing (exact grouping is timing-dependent).
        assert 1 <= flushes < 8

    def test_error_bodies_match_threaded(self, transports):
        threaded, batched = transports
        for path, body in (
            ("/score", {"profile": "ghost", "statements": ["SELECT 1"]}),
            ("/score", {"profile": "tpch"}),
            ("/nope", {}),
        ):
            t_status, t_body, _ = _post_raw(threaded.url, path, body)
            a_status, a_body, _ = _post_raw(batched.url, path, body)
            assert (a_status, a_body) == (t_status, t_body)


def _exchange(server, raw: bytes) -> tuple[int, dict[str, str], bytes, bytes]:
    """Send raw request bytes and read until the server closes.

    Returns (status, headers, body, everything received); a server that
    keeps the connection open fails the read with a socket timeout.
    """
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(raw)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    head, _, body = received.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split()[1]), headers, body, received


#: Request heads whose body framing cannot be trusted; the chunked one
#: carries a second request inside its body that must never be served.
_BAD_FRAMING = {
    "negative-length": b"Content-Length: -1\r\n\r\n",
    "duplicate-length": b"Content-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
    "invalid-length": b"Content-Length: 2x\r\n\r\n{}",
    "chunked": (
        b"Transfer-Encoding: chunked\r\n\r\n"
        b"2\r\n{}\r\n0\r\n\r\nGET /stats HTTP/1.1\r\nHost: x\r\n\r\n"
    ),
}


class TestRequestFraming:
    @pytest.mark.parametrize("case", sorted(_BAD_FRAMING))
    def test_bad_framing_is_400_and_closes(self, transports, case):
        request = (
            b"POST /score HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n" + _BAD_FRAMING[case]
        )
        bodies = []
        for server in transports:
            status, headers, body, received = _exchange(server, request)
            assert status == 400
            assert headers["connection"] == "close"
            assert received.count(b"HTTP/1.1 ") == 1  # nothing else served
            assert json.loads(body)["error"].startswith("bad request framing: ")
            bodies.append(body)
        threaded_body, async_body = bodies
        assert async_body == threaded_body

    def test_oversized_body_is_413_unread(self, transports):
        _, batched = transports
        status, headers, body, _ = _exchange(
            batched,
            b"POST /score HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 999999999999\r\n\r\n",
        )
        assert status == 413
        assert headers["connection"] == "close"
        assert "exceeds" in json.loads(body)["error"]

    def test_client_header_cannot_forge_oversize(self, transports):
        _, batched = transports
        request = urllib.request.Request(
            batched.url + "/score",
            data=json.dumps({"profile": "tpch", "statements": [_POOL[0]]}).encode(),
            headers={"Content-Type": "application/json", "X-Logr-Oversized": "1"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200


def _get_metrics(base: str) -> str:
    with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
        return response.read().decode("utf-8")


class _BlockingIngestServer(AsyncAnalyticsServer):
    """Test double: /ingest blocks (on an executor thread) until released."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.entered = threading.Semaphore(0)
        self.release = threading.Event()

    def handle_ingest(self, body: dict) -> dict:
        self.entered.release()
        assert self.release.wait(timeout=30), "test never released ingest"
        return {"profile": body["profile"], "blocked": True}


@pytest.fixture
def blocked_store(tmp_path):
    store = SummaryStore(tmp_path / "store")
    workload = generate_tpch(total=200, variants_per_template=2, seed=0)
    log = workload.to_query_log()
    compressed = LogRCompressor(n_clusters=2, seed=0, n_init=2).compress(log)
    store.save("tpch", compressed, log, note="seed")
    return store


class TestBackpressure:
    def test_overflow_sheds_429_and_recovers(self, blocked_store):
        server = _BlockingIngestServer(
            blocked_store, port=0, max_queue=2, staleness_threshold=float("inf")
        )
        body = {"profile": "tpch", "statements": ["SELECT a FROM t"]}
        with server:
            with ThreadPoolExecutor(max_workers=2) as pool:
                inflight = [
                    pool.submit(_post_raw, server.url, "/ingest", body)
                    for _ in range(2)
                ]
                # Both admitted and executing (queue is now full).
                assert server.entered.acquire(timeout=10)
                assert server.entered.acquire(timeout=10)
                status, raw, headers = _post_raw(server.url, "/ingest", body)
                assert status == 429
                assert headers.get("Retry-After") == "1"
                assert b"retry later" in raw
                samples = parse_exposition(_get_metrics(server.url))
                assert (
                    samples['logr_serve_shed_total{endpoint="ingest"}'] >= 1
                )
                assert (
                    samples['logr_serve_queue_depth{endpoint="ingest"}'] == 2
                )
                server.release.set()
                for future in inflight:
                    status, raw, _ = future.result(timeout=30)
                    assert status == 200
                    assert json.loads(raw)["blocked"]
            # Queue drained: admission is open again.
            status, _, _ = _post_raw(server.url, "/ingest", body)
            assert status == 200
            samples = parse_exposition(_get_metrics(server.url))
            assert samples['logr_serve_queue_depth{endpoint="ingest"}'] == 0


class TestShutdownDrain:
    def test_inflight_completes_new_connections_refused(self, blocked_store):
        server = _BlockingIngestServer(
            blocked_store, port=0, staleness_threshold=float("inf")
        )
        host, port = server.start()
        body = {"profile": "tpch", "statements": ["SELECT a FROM t"]}
        with ThreadPoolExecutor(max_workers=1) as pool:
            inflight = pool.submit(_post_raw, server.url, "/ingest", body)
            assert server.entered.acquire(timeout=10)
            stopper = threading.Thread(target=server.shutdown)
            stopper.start()
            # The listener closes promptly; poll until connects fail.
            deadline = time.monotonic() + 10
            refused = False
            while time.monotonic() < deadline:
                try:
                    with socket.create_connection((host, port), timeout=1):
                        pass
                except OSError:
                    refused = True
                    break
                time.sleep(0.02)
            assert refused, "listener still accepting during drain"
            # The in-flight request is NOT dropped: it completes once
            # its handler finishes.
            server.release.set()
            status, raw, _ = inflight.result(timeout=30)
            assert status == 200
            assert json.loads(raw)["blocked"]
            stopper.join(timeout=30)
            assert not stopper.is_alive()


def _scripted_server(script: list[tuple[int, dict, bytes]]):
    """An HTTP server answering from a canned (status, headers, body) list."""
    served: list[str] = []

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 - stdlib name
            self._answer()

        def do_POST(self):  # noqa: N802 - stdlib name
            length = int(self.headers.get("Content-Length", 0))
            if length:
                self.rfile.read(length)
            self._answer()

        def _answer(self):
            served.append(self.path)
            status, headers, payload = (
                script.pop(0) if script else (200, {}, b"{}")
            )
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, fmt, *args):  # noqa: N802 - stdlib name
            pass

    httpd = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    return httpd, f"http://{host}:{port}", served


def _retry_count() -> float:
    return sum(_RETRIES.items().values())


class TestClientRetry:
    def test_429_retried_until_success(self):
        shed = (429, {"Retry-After": "0"}, b'{"error": "queue full"}')
        ok = (200, {}, b'{"profiles": []}')
        httpd, url, served = _scripted_server([shed, shed, ok])
        try:
            before = _retry_count()
            client = AnalyticsClient(
                url, max_retries=3, backoff_base=0.001, backoff_cap=0.005,
                seed=0,
            )
            assert client.profiles() == []
            assert len(served) == 3
            assert _retry_count() - before == 2
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_retries_exhausted_raises_with_retry_after(self):
        shed = (429, {"Retry-After": "0"}, b'{"error": "queue full"}')
        httpd, url, served = _scripted_server([shed] * 3)
        try:
            client = AnalyticsClient(
                url, max_retries=2, backoff_base=0.001, backoff_cap=0.005,
                seed=0,
            )
            with pytest.raises(ServiceError) as excinfo:
                client.profiles()
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 0.0
            assert len(served) == 3  # initial try + 2 retries
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_max_retries_zero_fails_fast(self):
        shed = (429, {"Retry-After": "0"}, b'{"error": "queue full"}')
        httpd, url, served = _scripted_server([shed])
        try:
            client = AnalyticsClient(url, max_retries=0)
            with pytest.raises(ServiceError):
                client.profiles()
            assert len(served) == 1
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_backoff_is_seeded_bounded_and_floored(self):
        a = AnalyticsClient("http://x", seed=42)
        b = AnalyticsClient("http://x", seed=42)
        delays_a = [a._backoff(i, None) for i in range(6)]
        delays_b = [b._backoff(i, None) for i in range(6)]
        assert delays_a == delays_b  # jitter is reproducibly seeded
        assert all(0.0 <= d <= a.backoff_cap for d in delays_a)
        # Retry-After floors the jittered delay (still capped).
        assert a._backoff(0, 1.5) == 1.5
        assert a._backoff(0, 99.0) == a.backoff_cap

    def test_non_numeric_retry_after_is_ignored(self):
        """A proxy can send anything ('soon', an HTTP-date) — the
        backoff must not crash and must stay within [0, cap]."""
        a = AnalyticsClient("http://x", seed=7)
        for malformed in ("soon", "Fri, 08 Aug 2026 12:00:00 GMT", object()):
            delay = a._backoff(0, malformed)  # type: ignore[arg-type]
            assert 0.0 <= delay <= a.backoff_cap

    def test_negative_retry_after_is_clamped_to_zero_floor(self):
        a = AnalyticsClient("http://x", seed=7)
        for _ in range(20):
            delay = a._backoff(0, -30.0)
            assert 0.0 <= delay <= a.backoff_cap

    def test_huge_retry_after_is_clamped_to_cap(self):
        a = AnalyticsClient("http://x", seed=7)
        assert a._backoff(0, 1e12) == a.backoff_cap
        assert a._backoff(3, float("inf")) <= a.backoff_cap
        # NaN must neither propagate nor poison the max().
        delay = a._backoff(0, float("nan"))
        assert 0.0 <= delay <= a.backoff_cap
