"""Asyncio serving front end: micro-batched scoring with backpressure.

The threaded transport (:class:`repro.service.server.AnalyticsServer`)
pays one OS thread plus a full request's worth of Python per
connection, and concurrent ``/score`` requests each run their own
GIL-bound mixture evaluation.  This front end replaces that with a
single stdlib-``asyncio`` event loop that:

* **micro-batches** concurrent ``/score`` requests — requests for the
  same profile arriving within a ~1 ms window are coalesced into ONE
  vectorized :meth:`~repro.apps.monitor.WorkloadMonitor.score_batch`
  call against the lock-free profile snapshot, with results fanned
  back out per request.  ``score_batch`` scores every statement
  row-independently, so each response is bit-identical to the scalar
  (threaded) path — asserted by property tests and the
  ``bench_serve.py`` byte-identity gate;
* applies **admission control** — a bounded ingest queue (overflow is
  shed with ``429`` + ``Retry-After``), a request-body size limit
  (``413``), and per-connection read timeouts — so overload degrades
  by shedding, not by collapse;
* keeps the event loop non-blocking — every sync handler (store I/O,
  ingest merges, staleness-triggered recompression and cold pane
  consolidation, which themselves run on the scoring worker pool or
  the existing process executor) is dispatched to an *owned*, bounded
  ``ThreadPoolExecutor`` that drains with the server — the loop's
  default executor is unbounded relative to the admission queue and
  never shut down;
* **drains gracefully** on shutdown — the listener closes first (new
  connections refused), in-flight requests complete, pending score
  batches flush.

Everything is instrumented on :mod:`repro.obs` and scraped through the
same ``GET /metrics``: ``logr_serve_batch_size`` (requests coalesced
per flush), ``logr_serve_queue_depth`` (pending ingest dispatches),
``logr_serve_shed_total`` (requests refused by admission control).

Both transports dispatch into the same
:class:`~repro.service.server.AnalyticsService` handlers, so JSON
response bodies are byte-identical across backends.  Select with
``logr serve --server-backend=async``.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Sequence

from .._clock import Stopwatch
from ..obs.textfmt import CONTENT_TYPE as _METRICS_CONTENT_TYPE
from .server import AnalyticsService, _body_length, _require
from .store import StoreError, SummaryStore

__all__ = ["AsyncAnalyticsServer", "serve_async"]

#: Micro-batching window: how long the first /score request of a flush
#: waits for company before scoring runs (milliseconds).
DEFAULT_BATCH_WINDOW_MS = 1.0
#: Requests coalesced into one flush before the window is cut short.
DEFAULT_MAX_BATCH = 64
#: Bounded ingest queue: pending dispatches beyond this are shed (429).
DEFAULT_MAX_QUEUE = 64
#: Request bodies above this many bytes are refused with 413.
DEFAULT_MAX_BODY_BYTES = 8 << 20
#: Per-connection read timeout (request line, headers, body), seconds.
DEFAULT_REQUEST_TIMEOUT = 30.0
#: How long shutdown waits for in-flight requests to complete, seconds.
DEFAULT_DRAIN_TIMEOUT = 10.0

#: logr_serve_batch_size histogram bounds: requests per flush, not
#: seconds — powers of two up to the default max batch and beyond.
BATCH_SIZE_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_JSON_CONTENT_TYPE = "application/json"


class _Request:
    """One parsed HTTP request (method, path, headers, raw body).

    ``reject`` is ``(status, message)`` when the request must be refused
    unread (malformed framing, oversized body): the response closes the
    connection, since the stream position after the head is unknown.
    """

    __slots__ = ("method", "path", "headers", "body", "reject")

    def __init__(
        self,
        method: str,
        path: str,
        headers: dict[str, str],
        body: bytes,
        reject: tuple[int, str] | None = None,
    ) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body
        self.reject = reject


class _Response:
    """One response ready to serialize: status, payload, extra headers."""

    __slots__ = ("status", "body", "content_type", "headers")

    def __init__(
        self,
        status: int,
        payload: dict[str, Any] | str,
        headers: Sequence[tuple[str, str]] = (),
    ) -> None:
        self.status = status
        if isinstance(payload, str):
            self.body = payload.encode("utf-8")
            self.content_type = _METRICS_CONTENT_TYPE
        else:
            # Byte-for-byte the threaded transport's `_send` encoding.
            self.body = json.dumps(payload).encode("utf-8")
            self.content_type = _JSON_CONTENT_TYPE
        self.headers = tuple(headers)


class _ScoreBatcher:
    """Coalesces concurrent /score requests into vectorized sweeps.

    All state lives on the event loop thread — submissions, timer
    callbacks, and flush scheduling all run there, so no lock is
    needed.  Scoring itself (the only CPU-heavy part) runs in the
    executor via :meth:`AnalyticsService.score_coalesced`; per-request
    responses resolve the awaiting futures.
    """

    def __init__(self, server: "AsyncAnalyticsServer") -> None:
        self._server = server
        # profile -> [(statements, future)], first submission arms the
        # flush timer for that profile.
        self._pending: dict[
            str, list[tuple[list[str], "asyncio.Future[_Response]"]]
        ] = {}
        self._timers: dict[str, asyncio.TimerHandle] = {}
        self._flushes: set["asyncio.Task[None]"] = set()

    def submit(
        self, profile: str, statements: list[str]
    ) -> "asyncio.Future[_Response]":
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[_Response]" = loop.create_future()
        bucket = self._pending.setdefault(profile, [])
        bucket.append((statements, future))
        if len(bucket) == 1:
            self._timers[profile] = loop.call_later(
                self._server.batch_window_s, self._flush_now, profile
            )
        elif len(bucket) >= self._server.max_batch:
            self._flush_now(profile)
        return future

    def _flush_now(self, profile: str) -> None:
        timer = self._timers.pop(profile, None)
        if timer is not None:
            timer.cancel()
        batch = self._pending.pop(profile, [])
        if not batch:
            return
        task = asyncio.get_running_loop().create_task(
            self._flush(profile, batch)
        )
        self._flushes.add(task)
        task.add_done_callback(self._flushes.discard)

    async def _flush(
        self,
        profile: str,
        batch: list[tuple[list[str], "asyncio.Future[_Response]"]],
    ) -> None:
        self._server.observe_batch(len(batch))
        loop = asyncio.get_running_loop()
        try:
            payloads = await loop.run_in_executor(
                self._server._handler_pool,
                self._server.score_coalesced,
                profile,
                [statements for statements, _ in batch],
            )
            responses = [_Response(200, payload) for payload in payloads]
        except StoreError as exc:
            responses = [_Response(404, {"error": str(exc)})] * len(batch)
        except (ValueError, KeyError, TypeError) as exc:
            responses = [_Response(400, {"error": str(exc)})] * len(batch)
        except Exception as exc:  # pragma: no cover - defensive
            responses = [
                _Response(500, {"error": f"{type(exc).__name__}: {exc}"})
            ] * len(batch)
        for (_, future), response in zip(batch, responses):
            if not future.done():
                future.set_result(response)

    async def drain(self) -> None:
        """Flush every pending bucket and wait for in-flight sweeps."""
        for profile in sorted(self._pending):
            self._flush_now(profile)
        while self._flushes:
            await asyncio.wait(self._flushes)


class AsyncAnalyticsServer(AnalyticsService):
    """Asyncio-streams HTTP transport over :class:`AnalyticsService`.

    Same JSON protocol, URL surface, and response bytes as the threaded
    :class:`~repro.service.server.AnalyticsServer`; the differences are
    operational — request micro-batching on ``/score``, admission
    control, and graceful drain (see the module docstring).

    Args:
        store: the profile store to serve (shared, thread-safe).
        host / port: bind address; port 0 picks a free port.
        batch_window_ms: how long the first /score request of a batch
            waits for concurrent company before the sweep runs.
        max_batch: requests coalesced per sweep before an early flush.
        max_queue: bounded ingest queue — pending /ingest dispatches
            beyond this are shed with ``429`` + ``Retry-After``.
        max_body_bytes: request bodies above this are refused (413).
        request_timeout: per-connection read timeout in seconds.
        drain_timeout: how long shutdown waits for in-flight requests.
        **kwargs: forwarded to :class:`AnalyticsService`.
    """

    def __init__(
        self,
        store: SummaryStore,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_window_ms: float = DEFAULT_BATCH_WINDOW_MS,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_queue: int = DEFAULT_MAX_QUEUE,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
        **kwargs: Any,
    ) -> None:
        super().__init__(store, **kwargs)
        self._host = host
        self._port = port
        self.batch_window_s = batch_window_ms / 1000.0
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.max_body_bytes = max_body_bytes
        self.request_timeout = request_timeout
        self.drain_timeout = drain_timeout
        # Serving telemetry, scraped through the shared /metrics.
        self._batch_size = self.registry.histogram(
            "logr_serve_batch_size",
            "Requests coalesced per micro-batch flush, by endpoint.",
            labelnames=("endpoint",),
            buckets=BATCH_SIZE_BUCKETS,
        )
        self._queue_depth = self.registry.gauge(
            "logr_serve_queue_depth",
            "Pending executor dispatches awaiting admission, by endpoint.",
            labelnames=("endpoint",),
        )
        self._shed = self.registry.counter(
            "logr_serve_shed_total",
            "Requests shed by admission control (429), by endpoint.",
            labelnames=("endpoint",),
        )
        # Zero-init so the families render on /metrics before traffic.
        self._queue_depth.set(0.0, endpoint="ingest")
        self._shed.inc(0.0, endpoint="ingest")
        self._batcher = _ScoreBatcher(self)
        # Owned handler executor: the loop's *default* executor is
        # CPU-count-sized, never shut down, and invisible to admission
        # accounting, so dispatching through it let in-flight work
        # exceed what the bounded queue admits.  Bound it to the ingest
        # queue (plus headroom for score flushes and GET handlers) and
        # shut it down during drain.
        self._handler_pool = ThreadPoolExecutor(
            max_workers=min(32, max_queue + 4),
            thread_name_prefix="logr-aserve-handler",
        )
        # Event-loop-thread state (no locks: single-threaded loop).
        self._ingest_pending = 0
        self._connections: set["asyncio.Task[None]"] = set()
        self._draining = False
        # Cross-thread lifecycle plumbing.
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._address: tuple[str, int] | None = None
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._shutdown_requested = threading.Event()
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------------
    # lifecycle (API parity with the threaded transport)
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the server is bound to (after ``start``)."""
        if self._address is None:
            raise RuntimeError("server not started")
        return self._address

    @property
    def url(self) -> str:
        """Base URL for a client."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> tuple[str, int]:
        """Serve in a daemon thread; returns the bound address."""
        if self._thread is not None:
            return self.address
        self._thread = threading.Thread(target=self._run_loop, daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self.address

    def serve_forever(self) -> None:
        """Serve until ``shutdown`` (the CLI entry point).

        The event loop still runs on its own thread; the calling thread
        blocks so Ctrl-C lands here and the CLI can drain cleanly.
        """
        self.start()
        self._stopped.wait()

    def shutdown(self) -> None:
        """Refuse new connections, drain in-flight requests, stop."""
        self._shutdown_requested.set()
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(lambda: None)  # wake the loop
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout=self.drain_timeout + 5)
            self._thread = None

    def __enter__(self) -> "AsyncAnalyticsServer":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        try:
            asyncio.run(self._serve_until_shutdown())
        except BaseException as exc:  # pragma: no cover - defensive
            if not self._ready.is_set():
                self._startup_error = exc
        finally:
            self._ready.set()
            self._stopped.set()

    async def _serve_until_shutdown(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            server = await asyncio.start_server(
                self._handle_connection, self._host, self._port
            )
        except OSError as exc:
            self._startup_error = exc
            return
        sockname = server.sockets[0].getsockname()
        self._address = (str(sockname[0]), int(sockname[1]))
        self._ready.set()
        try:
            while not self._shutdown_requested.is_set():
                await asyncio.sleep(0.05)
        finally:
            # Drain order: stop accepting first (new connections are
            # refused at the socket), then let in-flight work finish.
            self._draining = True
            server.close()
            await server.wait_closed()
            await self._batcher.drain()
            current = asyncio.current_task()
            pending = {
                task for task in self._connections if task is not current
            }
            if pending:
                await asyncio.wait(pending, timeout=self.drain_timeout)
            # Last: stop the handler threads (everything above already
            # completed or timed out), then release pooled resources
            # (scoring workers, shm segments).
            self._handler_pool.shutdown(wait=True)
            self.close()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                keep_alive = await self._respond(request, writer)
                if not keep_alive or self._draining:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> _Request | None:
        """Parse one HTTP/1.1 request; ``None`` on EOF/timeout/garbage.

        The whole request head comes in through ONE ``readuntil`` (one
        timeout timer per request, not one per header line) — this is a
        hot path at thousands of requests per second.
        """
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), self.request_timeout
            )
        except (
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            return None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            return None
        method, path, _version = parts
        headers: dict[str, str] = {}
        lengths: list[str] = []
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            name = name.strip().lower()
            headers[name] = value.strip()
            if name == "content-length":
                lengths.append(value)
        try:
            length = _body_length(lengths, "transfer-encoding" in headers)
        except ValueError as exc:
            reject = (400, f"bad request framing: {exc}")
            return _Request(method, path, headers, b"", reject)
        if length > self.max_body_bytes:
            # Refuse without reading the body (the 413 response closes
            # the connection, discarding the rest).
            reject = (413, f"request body exceeds {self.max_body_bytes} bytes")
            return _Request(method, path, headers, b"", reject)
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), self.request_timeout
                )
            except asyncio.TimeoutError:
                return None
        return _Request(method, path, headers, body)

    async def _respond(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> bool:
        """Dispatch one request and write the response; returns keep-alive."""
        watch = Stopwatch()
        endpoint: str | None = None
        keep_alive = not self._draining
        if request.reject is not None:
            status, message = request.reject
            response = _Response(status, {"error": message})
            keep_alive = False  # unread body bytes may still be on the wire
        else:
            endpoint, response = await self._route(request)
        if response.status == 429:
            keep_alive = False
        await self._write_response(writer, response, keep_alive)
        if endpoint is not None:
            self.observe_request(endpoint, watch.elapsed())
        return keep_alive

    async def _route(self, request: _Request) -> tuple[str | None, _Response]:
        """Map one request onto the shared handlers (threaded parity)."""
        path = request.path.rstrip("/")
        if request.method == "GET":
            if path == "/profiles" or path == "":
                return "profiles", await self._dispatch(self.handle_profiles)
            if path.startswith("/profiles/"):
                name = path[len("/profiles/"):]
                return (
                    "profile_detail",
                    await self._dispatch(self.handle_profile_detail, name),
                )
            if path == "/stats":
                return "stats", await self._dispatch(self.handle_stats)
            if path == "/metrics":
                return "metrics", await self._dispatch(self.render_metrics)
            return None, _Response(
                404, {"error": f"unknown endpoint {request.path!r}"}
            )
        if request.method != "POST":
            return None, _Response(
                404, {"error": f"unknown endpoint {request.path!r}"}
            )
        sync_routes = {
            "/drift": self.handle_drift,
            "/window": self.handle_window,
            "/timeline": self.handle_timeline,
        }
        if path not in ("/score", "/ingest") and path not in sync_routes:
            return None, _Response(
                404, {"error": f"unknown endpoint {request.path!r}"}
            )
        try:
            payload = json.loads(request.body.decode("utf-8") or "{}")
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
        except (ValueError, json.JSONDecodeError) as exc:
            return None, _Response(400, {"error": f"bad request body: {exc}"})
        endpoint = path.lstrip("/")
        if path == "/score":
            return endpoint, await self._handle_score_async(payload)
        if path == "/ingest":
            return endpoint, await self._handle_ingest_async(payload)
        return endpoint, await self._dispatch(sync_routes[path], payload)

    async def _dispatch(self, fn: Any, *args: Any) -> _Response:
        """Run a sync handler in the executor; map exceptions to statuses.

        The exception → status mapping mirrors the threaded transport's
        ``_dispatch`` exactly, so error bodies match byte-for-byte.
        """
        loop = asyncio.get_running_loop()
        try:
            payload = await loop.run_in_executor(self._handler_pool, fn, *args)
            return _Response(200, payload)
        except StoreError as exc:
            return _Response(404, {"error": str(exc)})
        except (ValueError, KeyError, TypeError) as exc:
            return _Response(400, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive
            return _Response(500, {"error": f"{type(exc).__name__}: {exc}"})

    async def _handle_score_async(self, body: dict[str, Any]) -> _Response:
        """POST /score — enqueue on the micro-batcher and await the sweep."""
        try:
            name, statements = _require(body, "profile", "statements")
        except ValueError as exc:
            return _Response(400, {"error": str(exc)})
        if not isinstance(statements, list):
            return _Response(400, {"error": "'statements' must be a list"})
        return await self._batcher.submit(str(name), statements)

    async def _handle_ingest_async(self, body: dict[str, Any]) -> _Response:
        """POST /ingest — bounded admission queue, then executor dispatch."""
        if self._ingest_pending >= self.max_queue:
            self._shed.inc(endpoint="ingest")
            return _Response(
                429,
                {
                    "error": (
                        "ingest queue full "
                        f"({self.max_queue} pending); retry later"
                    )
                },
                headers=(("Retry-After", "1"),),
            )
        self._ingest_pending += 1
        self._queue_depth.set(float(self._ingest_pending), endpoint="ingest")
        try:
            return await self._dispatch(self.handle_ingest, body)
        finally:
            self._ingest_pending -= 1
            self._queue_depth.set(
                float(self._ingest_pending), endpoint="ingest"
            )

    def observe_batch(self, n_requests: int) -> None:
        """Record one micro-batch flush's coalesced request count."""
        self._batch_size.observe(float(n_requests), endpoint="score")

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        response: _Response,
        keep_alive: bool,
    ) -> None:
        head = [
            f"HTTP/1.1 {response.status} "
            f"{_REASONS.get(response.status, 'OK')}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
        ]
        head.extend(f"{name}: {value}" for name, value in response.headers)
        head.append(
            "Connection: keep-alive" if keep_alive else "Connection: close"
        )
        writer.write(
            "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + response.body
        )
        await writer.drain()


def serve_async(
    store_root: str | Path,
    host: str = "127.0.0.1",
    port: int = 8080,
    **kwargs: Any,
) -> AsyncAnalyticsServer:
    """An :class:`AsyncAnalyticsServer` over *store_root* (not started)."""
    return AsyncAnalyticsServer(
        SummaryStore(store_root), host=host, port=port, **kwargs
    )
