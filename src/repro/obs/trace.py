"""Lightweight span tracing: Stopwatch-timed, thread-local, JSON export.

A :class:`Tracer` collects a tree of :class:`Span` records on whichever
thread activated it; instrumented library code opens spans through the
module-level :func:`span` context manager, which is a no-op when the
calling thread has no active tracer.  That asymmetry is the point:
instrumentation can live permanently on the hot paths (pipeline stages,
ingest batches, executor maps) and costs one thread-local read unless a
caller — the CLI's ``--trace-out``, a benchmark — opts in.

Durations come exclusively from :class:`repro._clock.Stopwatch`, the
repository's single audited wall-clock read point, so DET02 stays a
one-module audit.  Spans are telemetry-only (see the package
docstring): the tree is for export, never for control flow.

Thread scope: the tracer is thread-local by design.  Work fanned out
through ``ProcessExecutor`` runs in worker processes with no active
tracer, so a trace records the *orchestrating* thread's view — stage
boundaries and map calls, not per-task internals.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from .._clock import Stopwatch

__all__ = ["TRACE_FORMAT", "Span", "Tracer", "current_tracer", "span"]

#: Format tag stamped on exported trace payloads.
TRACE_FORMAT = "logr-trace-v1"


class Span:
    """One named, timed region: duration, sorted attrs, child spans."""

    __slots__ = ("name", "attrs", "seconds", "children")

    def __init__(self, name: str, attrs: dict[str, object]) -> None:
        self.name = name
        self.attrs = attrs
        self.seconds = 0.0
        self.children: list["Span"] = []

    def to_payload(self) -> dict[str, object]:
        """JSON-ready dict; attrs key-sorted, children in open order."""
        payload: dict[str, object] = {
            "name": self.name,
            "seconds": self.seconds,
        }
        if self.attrs:
            payload["attrs"] = {key: self.attrs[key] for key in sorted(self.attrs)}
        if self.children:
            payload["children"] = [child.to_payload() for child in self.children]
        return payload

    def __repr__(self) -> str:
        return f"Span({self.name!r}, seconds={self.seconds:.6f})"


_ACTIVE = threading.local()


class Tracer:
    """Collects a span tree on the thread that activated it."""

    def __init__(self) -> None:
        #: Completed/open top-level spans, in open order.
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Open a child of the innermost open span (or a new root)."""
        node = Span(name, dict(attrs))
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self.roots.append(node)
        self._stack.append(node)
        watch = Stopwatch()
        try:
            yield node
        finally:
            node.seconds = watch.elapsed()
            self._stack.pop()

    @contextmanager
    def activate(self) -> Iterator["Tracer"]:
        """Make this tracer the calling thread's active tracer."""
        previous = getattr(_ACTIVE, "tracer", None)
        _ACTIVE.tracer = self
        try:
            yield self
        finally:
            _ACTIVE.tracer = previous

    def iter_spans(self) -> Iterator[Span]:
        """All spans, depth-first in open order."""
        stack = list(reversed(self.roots))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def to_payload(self) -> dict[str, object]:
        """JSON-ready export: ``{"format": ..., "spans": [trees...]}``."""
        return {
            "format": TRACE_FORMAT,
            "spans": [root.to_payload() for root in self.roots],
        }


def current_tracer() -> "Tracer | None":
    """The calling thread's active tracer, if any."""
    tracer = getattr(_ACTIVE, "tracer", None)
    return tracer if isinstance(tracer, Tracer) else None


@contextmanager
def span(name: str, **attrs: object) -> Iterator[Span | None]:
    """Span on the calling thread's active tracer; no-op when inactive.

    This is the call instrumented code uses.  *name* must be a string
    literal at the call site (reprolint OBS01) — variable data belongs
    in ``attrs``, which may carry anything JSON-serializable.
    """
    tracer = current_tracer()
    if tracer is None:
        yield None
        return
    with tracer.span(name, **attrs) as node:
        yield node
