"""In-memory span recording for the benchmark's traced run.

Spans are opened by wrappers that :mod:`perfbench.launch` patches onto
the program's public functions, so the program itself runs unchanged.
Each thread keeps its own stack, which gives every span a self time
(its duration minus the time of the spans it encloses).  Self times are
summed per layer, either into the process-wide totals or, while an HTTP
request is being handled, into that request's record, so the benchmark
can keep only the requests of its timed phase.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path

clock = time.monotonic  # CLOCK_MONOTONIC: comparable across processes


class _Frame:
    __slots__ = ("name", "start", "child", "request")

    def __init__(self, name: str, start: float, request: dict | None):
        self.name = name
        self.start = start
        self.child = 0.0
        self.request = request


class Recorder:
    """Thread-safe layer accounting: ``{layer: [calls, self_seconds]}``."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.layers: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.requests: list[dict] = []

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent(self) -> str | None:
        """Name of the innermost open span on the calling thread."""
        stack = self._stack()
        return stack[-1].name if stack else None

    def open(self, name: str, start: float | None = None, request: dict | None = None) -> None:
        stack = self._stack()
        if request is None and stack:
            request = stack[-1].request
        stack.append(_Frame(name, clock() if start is None else start, request))

    def close(self) -> float:
        """Close the innermost span; returns its duration."""
        end = clock()
        frame = self._stack().pop()
        duration = end - frame.start
        stack = self._stack()
        if stack:
            stack[-1].child += duration
        self._account(frame.request, frame.name, duration - frame.child)
        if frame.request is not None and not stack:
            frame.request["start"] = frame.start
            frame.request["end"] = end
            with self._lock:
                self.requests.append(frame.request)
        return duration

    def count(self, key: str, value: float = 1) -> None:
        """Add to a counter of the current request (or of the process)."""
        stack = self._stack()
        request = stack[-1].request if stack else None
        if request is not None:
            counters = request["counters"]
            counters[key] = counters.get(key, 0) + value
            return
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    def add_layer(self, name: str, seconds: float) -> None:
        """Attribute *seconds* measured outside a span to the current span's
        child time and to layer *name*."""
        frame = self._stack()[-1]
        frame.child += seconds
        self._account(frame.request, name, seconds)

    def _account(self, request: dict | None, name: str, seconds: float) -> None:
        if request is not None:  # only the handling thread touches it
            entry = request["layers"].setdefault(name, [0, 0.0])
        else:
            with self._lock:
                entry = self.layers.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def span(self, name: str, fn):
        """*fn* wrapped in a span named *name*."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return wrapper

    def dump(self, path: Path, **extra) -> None:
        with self._lock:
            payload = {
                "layers": self.layers,
                "counters": self.counters,
                "requests": self.requests,
                **extra,
            }
        path.write_text(json.dumps(payload), encoding="utf-8")


def new_request(endpoint: str) -> dict:
    return {"endpoint": endpoint, "layers": {}, "counters": {}}
