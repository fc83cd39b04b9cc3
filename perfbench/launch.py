"""Traced launcher: ``python perfbench/launch.py SPANS.json <logr args>``.

Installs the timing wrappers of :mod:`perfbench.tracing` on the layers'
public functions, then calls ``repro.cli.main`` with the remaining
arguments, so the traced run takes the same code path as ``python -m
repro.cli``.  Every name is patched where its caller looks it up
(``repro.cli`` imports ``read_log``/``load_log`` by name; methods are
looked up on their class).  The span totals go to SPANS.json when
``main`` returns.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent), "src"]

from tracing import Recorder, clock, new_request  # noqa: E402


def _patch(owner, attr: str, wrapper) -> None:
    setattr(owner, attr, wrapper(getattr(owner, attr)))


def install(recorder: Recorder, command: str) -> None:
    """Patch the layers *command* runs through."""
    import repro.cli
    from repro.apps.monitor import WorkloadMonitor
    from repro.core.featurecache import FeatureCache
    from repro.core.log import LogBuilder
    from repro.core.mixture import PatternMixtureEncoding
    from repro.service import server as server_module
    from repro.service.ingest import IncrementalIngestor
    from repro.service.server import AnalyticsService
    from repro.service.store import SummaryStore
    from repro.sql import AligonExtractor

    span = recorder.span

    def lookup(fn):
        def wrapper(self, *args, **kwargs):
            recorder.open("featurecache.lookup")
            try:
                entry, cached = fn(self, *args, **kwargs)
            finally:
                recorder.close()
            recorder.count("featurecache.lookups")
            recorder.count("featurecache.hits", int(cached))
            return entry, cached

        return wrapper

    def save(fn):
        def wrapper(self, name, *args, **kwargs):
            recorder.open("store.save")
            try:
                record = fn(self, name, *args, **kwargs)
            finally:
                recorder.close()
            written = self._version_path(name, record.version).stat().st_size
            written += self._manifest_path.stat().st_size
            recorder.count("store.save_bytes", written)
            return record

        return wrapper

    _patch(FeatureCache, "lookup", lookup)
    _patch(AligonExtractor, "extract", lambda fn: span("sql.extract", fn))
    _patch(SummaryStore, "save", save)
    if command == "compress":
        _patch(repro.cli, "read_log", lambda fn: span("logio.read_log", fn))
        _patch(repro.cli, "load_log", lambda fn: span("log.load_log", fn))
        _patch(LogBuilder, "build", lambda fn: span("log.builder_build", fn))
        return

    def score_batch(fn):
        def wrapper(self, statements):
            recorder.count("monitor.statements_scored", len(statements))
            recorder.open("monitor.score_batch")
            try:
                return fn(self, statements)
            finally:
                recorder.close()

        return wrapper

    def point_probabilities(fn):
        def wrapper(self, matrix):
            calibrating = recorder.parent() == "monitor.calibrate"
            recorder.open("mixture.point_probabilities."
                          + ("calibrate" if calibrating else "score"))
            try:
                return fn(self, matrix)
            finally:
                recorder.close()

        return wrapper

    for name, label in (
        ("handle_score", "server.score_handler"),
        ("score_coalesced", "server.score_handler"),
        ("handle_ingest", "server.ingest_handler"),
    ):
        _patch(AnalyticsService, name, lambda fn, label=label: span(label, fn))
    _patch(WorkloadMonitor, "__init__", lambda fn: span("monitor.calibrate", fn))
    _patch(WorkloadMonitor, "score_batch", score_batch)
    _patch(AligonExtractor, "extract_merged", lambda fn: span("sql.extract_merged", fn))
    _patch(PatternMixtureEncoding, "point_probabilities", point_probabilities)
    _patch(IncrementalIngestor, "ingest_statements",
           lambda fn: span("ingest.ingest_statements", fn))
    _patch(IncrementalIngestor, "recompress", lambda fn: span("ingest.recompress", fn))
    _patch(SummaryStore, "load_state", lambda fn: span("store.load_state", fn))
    _patch(server_module, "_make_handler", lambda fn: _traced_handler(recorder, fn))


def _traced_handler(recorder: Recorder, make_handler):
    """``_make_handler`` whose handler class records one request span per
    request: from header parsing to the end of ``do_GET``/``do_POST``."""

    def wrapper(service):
        handler = make_handler(service)
        parse_request = handler.parse_request

        def parse(self):
            self._bench_head = (clock(), None)
            ok = parse_request(self)
            self._bench_head = (self._bench_head[0], clock())
            return ok

        def route(fn):
            def do(self):
                start, parsed = self._bench_head
                recorder.open("server.http_dispatch", start=start,
                              request=new_request(self.path.rstrip("/")))
                recorder.add_layer("server.http_head", parsed - start)
                try:
                    fn(self)
                finally:
                    recorder.close()

            return do

        handler.parse_request = parse
        handler.do_GET = route(handler.do_GET)
        handler.do_POST = route(handler.do_POST)
        return handler

    return wrapper


def main() -> int:
    spans, argv = Path(sys.argv[1]), sys.argv[2:]
    recorder = Recorder()
    install(recorder, argv[0])
    import repro.cli

    entered = clock()
    try:
        return repro.cli.main(argv)
    finally:
        recorder.dump(spans, main_entry=entered, main_exit=clock())


if __name__ == "__main__":
    sys.exit(main())
