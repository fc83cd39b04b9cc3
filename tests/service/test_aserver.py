"""Tests for the asyncio micro-batching transport (``aserver``).

Micro-batched ``/score`` responses are byte-identical to sequential
scalar requests on the threaded transport, and every other request —
errors included — gets the same status, ``Content-Type`` and body from
both transports (they share one request core); admission control sheds
ingest overflow with 429 and recovers after drain; shutdown drains
in-flight requests while refusing new connections and closing idle
ones.
"""

from __future__ import annotations

import http.client
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
from repro.sql.parser import MAX_NESTING
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
    return _send_raw(base, "POST", path, json.dumps(body).encode("utf-8"))


def _send_raw(
    base: str, method: str, path: str, data: bytes | None = None
) -> tuple[int, bytes, dict]:
    """One request; (status, raw bytes, headers) — no JSON decoding."""
    request = urllib.request.Request(
        base + path,
        data=data,
        headers={"Content-Type": "application/json"},
        method=method,
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
    batched = AsyncAnalyticsServer(store, port=0, staleness_threshold=float("inf"))
    # A generous window so concurrently fired requests reliably coalesce.
    batched.batch_window_s = 0.05
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
        """Every route (bar /ingest, which writes the shared store),
        valid or not, gets the same status, type and bytes from both."""
        threaded, batched = transports
        for method, path, data in (
            ("GET", "/", None),
            ("GET", "/profiles", None),
            ("GET", "/profiles/tpch", None),
            ("GET", "/profiles/ghost", None),
            ("GET", "/nope", None),
            ("POST", "/score", {"profile": "tpch", "statements": _POOL[:2]}),
            ("POST", "/score", {"profile": "ghost", "statements": ["SELECT 1"]}),
            ("POST", "/score", {"profile": "tpch"}),
            ("POST", "/drift", {"profile": "tpch", "statements": _POOL[:2]}),
            ("POST", "/window", {"profile": "tpch"}),
            ("POST", "/timeline", {"profile": "tpch"}),
            ("POST", "/nope", {}),
            ("POST", "/score", [1]),
            ("POST", "/drift", "not an object"),
            ("POST", "/score", b""),
            ("POST", "/window", b""),
            ("POST", "/score", b"{not json"),
            ("POST", "/score", b"[" * 100_000),  # deeper than the decoder recurses
        ):
            if data is not None and not isinstance(data, bytes):
                data = json.dumps(data).encode("utf-8")
            t_status, t_body, t_headers = _send_raw(threaded.url, method, path, data)
            a_status, a_body, a_headers = _send_raw(batched.url, method, path, data)
            assert (a_status, a_body) == (t_status, t_body), (method, path, data)
            assert a_headers["Content-Type"] == t_headers["Content-Type"]
        # Their counters are per instance: compare all but the bytes.
        for path in ("/stats", "/metrics"):
            t_status, _, t_headers = _send_raw(threaded.url, "GET", path)
            a_status, _, a_headers = _send_raw(batched.url, "GET", path)
            assert a_status == t_status == 200
            assert a_headers["Content-Type"] == t_headers["Content-Type"]


class TestMalformedStatements:
    """A ``statements`` that is not a JSON list of strings gets one 400.

    Iterating a string would treat each character as a statement, and a
    non-string item would reach the parser; every endpoint on both
    transports must refuse it alike, and ``/ingest`` must write nothing.
    """

    @pytest.mark.parametrize("path", ["/score", "/ingest", "/drift", "/window"])
    @pytest.mark.parametrize(
        "statements", ["SELECT 1", [1], None], ids=["string", "int-list", "null"]
    )
    def test_refused_alike_on_both_transports(
        self, transports, path, statements
    ):
        threaded, batched = transports
        store = threaded.store
        before = store.latest("tpch").version
        body = {"profile": "tpch", "statements": statements}
        t_status, t_body, _ = _post_raw(threaded.url, path, body)
        a_status, a_body, _ = _post_raw(batched.url, path, body)
        assert t_status == 400, t_body
        assert (a_status, a_body) == (t_status, t_body)
        assert json.loads(t_body) == {
            "error": "'statements' must be a list of strings"
        }
        assert store.latest("tpch").version == before

    @pytest.mark.parametrize(
        "path", ["/score", "/ingest", "/drift", "/window", "/timeline"]
    )
    @pytest.mark.parametrize(
        "profile", [1, None, ["a"]], ids=["int", "null", "list"]
    )
    def test_non_string_profile_refused_alike(self, transports, path, profile):
        threaded, batched = transports
        store = threaded.store
        before = store.latest("tpch").version
        body = {"profile": profile, "statements": ["SELECT a FROM t"]}
        t_status, t_body, t_headers = _post_raw(threaded.url, path, body)
        a_status, a_body, a_headers = _post_raw(batched.url, path, body)
        assert t_status == 400, t_body
        assert (a_status, a_body) == (t_status, t_body)
        assert a_headers["Content-Type"] == t_headers["Content-Type"]
        assert json.loads(t_body) == {"error": "'profile' must be a string"}
        assert store.latest("tpch").version == before

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("window_size", 10**12, "'window_size' must be an integer in [10, 100000]"),
            ("window_size", 100_001, "'window_size' must be an integer in [10, 100000]"),
            ("window_size", 9, "'window_size' must be an integer in [10, 100000]"),
            ("window_size", 20.0, "'window_size' must be an integer in [10, 100000]"),
            ("window_size", True, "'window_size' must be an integer in [10, 100000]"),
            ("window_size", "20", "'window_size' must be an integer in [10, 100000]"),
            ("top", -1, "'top' must be an integer at least 0"),
            ("top", False, "'top' must be an integer at least 0"),
            ("threshold", "nan", "'threshold' must be a finite number"),
            ("threshold", "inf", "'threshold' must be a finite number"),
            ("threshold", "-inf", "'threshold' must be a finite number"),
            ("threshold", float("nan"), "'threshold' must be a finite number"),
            ("threshold", float("inf"), "'threshold' must be a finite number"),
            ("threshold", True, "'threshold' must be a finite number"),
        ],
    )
    def test_drift_knobs_refused_alike(self, transports, field, value, error):
        """``/drift``'s window size, ``top`` and threshold are checked
        before the profile's drift monitor is calibrated under its lock."""
        threaded, batched = transports
        body = {"profile": "tpch", "statements": ["SELECT a FROM t"], field: value}
        t_status, t_body, _ = _post_raw(threaded.url, "/drift", body)
        a_status, a_body, _ = _post_raw(batched.url, "/drift", body)
        assert t_status == 400, t_body
        assert (a_status, a_body) == (t_status, t_body)
        assert json.loads(t_body) == {"error": error}

    @pytest.mark.parametrize("window_size", [10, 100_000])
    def test_drift_window_bounds_accepted(self, transports, window_size):
        threaded, batched = transports
        body = {
            "profile": "tpch",
            "statements": ["SELECT a FROM t"],
            "window_size": window_size,
            "top": 0,
            "threshold": 0.5,
        }
        t_status, t_body, _ = _post_raw(threaded.url, "/drift", body)
        a_status, a_body, _ = _post_raw(batched.url, "/drift", body)
        assert t_status == a_status == 200, (t_body, a_body)
        assert json.loads(t_body)["top_features"] == []

    @pytest.mark.parametrize(
        "method, path", [("PUT", "/score"), ("DELETE", "/profiles")]
    )
    def test_other_methods_get_the_core_404_and_close(
        self, transports, method, path
    ):
        threaded, batched = transports
        data = json.dumps({"profile": "tpch", "statements": []}).encode()
        t_status, t_body, t_headers = _send_raw(threaded.url, method, path, data)
        a_status, a_body, a_headers = _send_raw(batched.url, method, path, data)
        assert t_status == 404, t_body
        assert (a_status, a_body) == (t_status, t_body)
        assert a_headers["Content-Type"] == t_headers["Content-Type"]
        assert json.loads(t_body) == {"error": f"unknown endpoint {path!r}"}
        assert t_headers["Connection"] == a_headers["Connection"] == "close"


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


def _read_response(stream) -> tuple[int, bytes]:
    """(status, body) of the next response on a keep-alive stream."""
    status = int(stream.readline().split()[1])
    length = 0
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, stream.read(length)


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
        bodies = []
        for server in transports:
            status, headers, body, _ = _exchange(
                server,
                b"POST /score HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 100000000\r\n\r\n",
            )
            assert status == 413
            assert headers["connection"] == "close"
            assert "exceeds" in json.loads(body)["error"]
            bodies.append(body)
        threaded_body, async_body = bodies
        assert async_body == threaded_body

    def test_get_body_is_read_not_served(self, transports):
        """A GET's body is consumed with the request, never parsed as
        the next request on the keep-alive stream."""
        smuggled = b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"
        request = (
            b"GET /profiles HTTP/1.1\r\nHost: x\r\n"
            + f"Content-Length: {len(smuggled)}\r\n\r\n".encode()
            + smuggled
            + b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        for server in transports:
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(request)
                stream = sock.makefile("rb")
                first = _read_response(stream)
                second = _read_response(stream)
            assert first[0] == 200
            assert [p["name"] for p in json.loads(first[1])["profiles"]] == ["tpch"]
            # The next response answers the request after the body.
            assert second[0] == 404
            assert "/nope" in json.loads(second[1])["error"]

    def test_client_header_cannot_forge_oversize(self, transports):
        _, batched = transports
        request = urllib.request.Request(
            batched.url + "/score",
            data=json.dumps({"profile": "tpch", "statements": [_POOL[0]]}).encode(),
            headers={"Content-Type": "application/json", "X-Logr-Oversized": "1"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200


class TestDeepNesting:
    def test_deep_statement_scores_unparseable_alone(self, transports):
        """A statement nested past the parser's cap is one unparseable
        score, not a 500 for the whole batch; one at the cap (its most
        frame-hungry shape, CASE inside WHEN) still parses on a
        handler thread."""
        deep = "SELECT a FROM t WHERE " + "(" * 1000 + "a = 1" + ")" * 1000
        at_cap = (
            "SELECT "
            + "CASE WHEN " * MAX_NESTING
            + "a = 1"
            + " THEN 1 END = 1" * (MAX_NESTING - 1)
            + " THEN 1 END FROM t"
        )
        batch = [_POOL[0], deep, at_cap, _POOL[1]]
        bodies = []
        for server in transports:
            status, raw, _ = _post_raw(
                server.url, "/score", {"profile": "tpch", "statements": batch}
            )
            assert status == 200
            scores = json.loads(raw)["scores"]
            assert scores[1]["log2_likelihood"] == "-inf"
            assert scores[1]["reason"].startswith("unparseable: ")
            assert "nesting deeper than" in scores[1]["reason"]
            assert not scores[2]["reason"].startswith("unparseable")
            assert all(
                isinstance(scores[i]["log2_likelihood"], float) for i in (0, 3)
            )
            bodies.append(raw)
        threaded_body, async_body = bodies
        assert async_body == threaded_body


class TestParallelRecompression:
    """``jobs=2`` on a server recompresses in a spawn pool.

    The recompression runs on a handler thread, so the pool must not
    fork; its result must not depend on the worker count.
    """

    @pytest.mark.parametrize(
        "transport",
        [AnalyticsServer, AsyncAnalyticsServer],
        ids=["threaded", "async"],
    )
    def test_ingest_recompresses_in_spawn_pool(
        self, tmp_path, transport, pool_start_methods
    ):
        log = generate_tpch(
            total=800, variants_per_template=4, seed=0
        ).to_query_log()
        compressed = LogRCompressor(n_clusters=2, seed=0, n_init=2).compress(log)
        batch = _POOL + ["SELECT d FROM v WHERE w = 3"]
        bodies = {}
        for jobs in (1, 2):
            store = SummaryStore(tmp_path / f"store-{jobs}")
            store.save("tpch", compressed, log, note="seed")
            server = transport(store, port=0, staleness_threshold=-1.0, jobs=jobs)
            server.start()
            try:
                status, raw, _ = _post_raw(
                    server.url, "/ingest", {"profile": "tpch", "statements": batch}
                )
            finally:
                server.shutdown()
            assert status == 200, raw
            body = json.loads(raw)
            assert body["report"]["recompressed"] is True
            body["report"].pop("seconds")
            bodies[jobs] = body
        assert pool_start_methods == ["spawn"]
        assert bodies[2] == bodies[1]


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
            blocked_store, port=0, staleness_threshold=float("inf")
        )
        server.max_queue = 2
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
    def test_inflight_completes_new_connections_refused(
        self, blocked_store, capfd
    ):
        server = _BlockingIngestServer(
            blocked_store, port=0, staleness_threshold=float("inf")
        )
        host, port = server.start()
        # An idle keep-alive client: it made a request and stays open.
        # Drain closes it at once rather than waiting for its next head.
        idle = http.client.HTTPConnection(host, port, timeout=10)
        idle.request("GET", "/profiles")
        assert idle.getresponse().read()
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
            released = time.monotonic()
            status, raw, _ = inflight.result(timeout=30)
            assert status == 200
            assert json.loads(raw)["blocked"]
            stopper.join(timeout=30)
            assert not stopper.is_alive()
            assert time.monotonic() - released < 1.0
        idle.close()
        assert capfd.readouterr().err == ""


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
