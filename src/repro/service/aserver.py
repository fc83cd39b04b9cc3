"""Asyncio serving front end: micro-batched scoring with backpressure.

The threaded transport (:class:`repro.service.server.AnalyticsServer`)
pays one OS thread plus a full request's worth of Python per
connection, and concurrent ``/score`` requests each run their own
GIL-bound mixture evaluation.  This front end replaces that with a
single stdlib-``asyncio`` event loop that:

* **micro-batches** concurrent ``/score`` requests — requests for the
  same profile arriving within a ~1 ms window
  (:data:`DEFAULT_BATCH_WINDOW_MS`, early flush at
  :data:`DEFAULT_MAX_BATCH`) are coalesced into ONE
  vectorized :meth:`~repro.apps.monitor.WorkloadMonitor.score_batch`
  call against the lock-free profile snapshot, with results fanned
  back out per request.  ``score_batch`` scores every statement
  row-independently, so each response is bit-identical to the scalar
  (threaded) path — asserted by property tests and the
  ``bench_serve.py`` byte-identity gate;
* applies **admission control** — a bounded ingest queue of
  :data:`DEFAULT_MAX_QUEUE` (overflow is shed with ``429`` +
  ``Retry-After``), the request-body size limit both transports share
  (``413``), and per-connection read timeouts — so overload degrades
  by shedding, not by collapse;
* keeps the event loop non-blocking — every sync handler (store I/O,
  ingest merges, staleness-triggered recompression and cold pane
  consolidation) is dispatched to an *owned*, bounded
  ``ThreadPoolExecutor`` that drains with the server — the loop's
  default executor is unbounded relative to the admission queue and
  never shut down;
* **drains gracefully** on shutdown — the listener closes first (new
  connections refused), idle keep-alive connections close at once,
  in-flight requests complete and pending score batches flush; then
  hot profiles are checkpointed at their live versions.

Everything is instrumented on :mod:`repro.obs` and scraped through the
same ``GET /metrics``: ``logr_serve_batch_size`` (requests coalesced
per flush), ``logr_serve_queue_depth`` (pending ingest dispatches),
``logr_serve_shed_total`` (requests refused by admission control).

Routing, body decoding, the exception → status mapping and response
encoding all live in the shared
:class:`~repro.service.server.AnalyticsService` core; this module only
moves bytes, batches ``/score`` and admits ``/ingest``, so responses
are byte-identical across backends.  Select with
``logr serve --server-backend=async``.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from .._clock import Stopwatch
from .server import (
    AnalyticsService,
    _body_length,
    _decode_body,
    _failure,
    _Refused,
    _require_profile,
    _require_statements,
    _Response,
)
from .store import SummaryStore

__all__ = ["AsyncAnalyticsServer"]

#: Micro-batching window: how long the first /score request of a flush
#: waits for company before scoring runs (milliseconds).
DEFAULT_BATCH_WINDOW_MS = 1.0
#: Requests coalesced into one flush before the window is cut short.
DEFAULT_MAX_BATCH = 64
#: Bounded ingest queue: pending dispatches beyond this are shed (429).
DEFAULT_MAX_QUEUE = 64
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


class _Request:
    """One parsed HTTP request (method, path, raw body).

    ``refused`` is the response when the request must be refused unread
    (malformed framing, oversized body); it closes the connection,
    since the stream position after the head is unknown.
    """

    __slots__ = ("method", "path", "body", "refused")

    def __init__(
        self,
        method: str,
        path: str,
        body: bytes,
        refused: _Response | None = None,
    ) -> None:
        self.method = method
        self.path = path
        self.body = body
        self.refused = refused


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
        elif len(bucket) >= DEFAULT_MAX_BATCH:
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
        except Exception as exc:
            responses = [_failure(exc)] * len(batch)
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
    control, and graceful drain (see the module docstring).  The
    batch window and the ingest queue bound start at their module
    constants; ``batch_window_s`` and ``max_queue`` may be set on the
    instance before :meth:`start`.

    Args:
        store: the profile store to serve (shared, thread-safe).
        host / port: bind address; port 0 picks a free port.
        **kwargs: forwarded to :class:`AnalyticsService`.
    """

    def __init__(
        self,
        store: SummaryStore,
        host: str = "127.0.0.1",
        port: int = 0,
        **kwargs: Any,
    ) -> None:
        super().__init__(store, **kwargs)
        self._host = host
        self._port = port
        self.batch_window_s = DEFAULT_BATCH_WINDOW_MS / 1000.0
        self.max_queue = DEFAULT_MAX_QUEUE
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
            max_workers=min(32, DEFAULT_MAX_QUEUE + 4),
            thread_name_prefix="logr-aserve-handler",
        )
        # Event-loop-thread state (no locks: single-threaded loop).
        self._ingest_pending = 0
        self._connections: set["asyncio.Task[None]"] = set()
        # Writers of connections waiting for their next request head:
        # drain closes them at once instead of waiting out the read
        # timeout, and their head read ends at EOF.
        self._idle: set[asyncio.StreamWriter] = set()
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
        """Refuse new connections, drain in-flight requests, stop, then
        checkpoint hot profiles."""
        self._shutdown_requested.set()
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(lambda: None)  # wake the loop
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout=DEFAULT_DRAIN_TIMEOUT + 5)
            self._thread = None
        self.checkpoint()

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
            # refused at the socket), close idle keep-alive connections,
            # then let in-flight work finish.
            self._draining = True
            server.close()
            for writer in self._idle:
                writer.close()
            await self._batcher.drain()
            current = asyncio.current_task()
            pending = {
                task for task in self._connections if task is not current
            }
            if pending:
                await asyncio.wait(pending, timeout=DEFAULT_DRAIN_TIMEOUT)
            await server.wait_closed()
            # Last: stop the handler threads (everything above already
            # completed or timed out).
            self._handler_pool.shutdown(wait=True)

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
            while not self._draining:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                if not await self._respond(request, writer):
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
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> _Request | None:
        """Parse one HTTP/1.1 request; ``None`` on EOF/timeout/garbage.

        The whole request head comes in through ONE ``readuntil`` (one
        timeout timer per request, not one per header line) — this is a
        hot path at thousands of requests per second.  While it waits
        for the head, the connection counts as idle.
        """
        self._idle.add(writer)
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), DEFAULT_REQUEST_TIMEOUT
            )
        except (
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            return None
        finally:
            self._idle.discard(writer)
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            return None
        method, path, _version = parts
        transfer_encoding = False
        lengths: list[str] = []
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                lengths.append(value)
            transfer_encoding |= name == "transfer-encoding"
        try:
            length = _body_length(lengths, transfer_encoding)
        except _Refused as refused:
            # Refuse without reading the body (the response closes the
            # connection, discarding the rest).
            return _Request(method, path, b"", refused.response)
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), DEFAULT_REQUEST_TIMEOUT
                )
            except asyncio.TimeoutError:
                return None
        return _Request(method, path, body)

    async def _respond(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> bool:
        """Answer one request and write the response; returns keep-alive."""
        watch = Stopwatch()
        endpoint: str | None = None
        if request.refused is not None:
            response = request.refused
        else:
            endpoint, response = await self._route(request)
        keep_alive = not (response.close or self._draining)
        await self._write_response(writer, response, keep_alive)
        if endpoint is not None:
            self.observe_request(endpoint, watch.elapsed())
        return keep_alive

    async def _route(self, request: _Request) -> tuple[str | None, _Response]:
        """Answer one request through the shared core.

        ``/score`` joins the micro-batcher and ``/ingest`` passes
        admission control; every other answer runs on the handler pool.
        """
        endpoint, answer = self.route(request.method, request.path)
        if endpoint == "score":
            return endpoint, await self._score_async(request.body)
        if endpoint == "ingest":
            return endpoint, await self._ingest_async(answer, request.body)
        loop = asyncio.get_running_loop()
        return endpoint, await loop.run_in_executor(
            self._handler_pool, answer, request.body
        )

    async def _score_async(self, raw: bytes) -> _Response:
        """POST /score — decode, then enqueue on the micro-batcher."""
        try:
            body = _decode_body(raw)
            name, statements = _require_profile(body), _require_statements(body)
        except ValueError as exc:
            return _failure(exc)
        return await self._batcher.submit(name, statements)

    async def _ingest_async(
        self, answer: Callable[[bytes], _Response], raw: bytes
    ) -> _Response:
        """POST /ingest — bounded admission queue, then the handler pool."""
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
                close=True,
            )
        self._ingest_pending += 1
        self._queue_depth.set(float(self._ingest_pending), endpoint="ingest")
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(self._handler_pool, answer, raw)
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
