"""Span tracing: tree shape, no-op inactivity, and the telemetry-only
contract — tracing a compression changes nothing about its artifact."""

import json

import pytest

from repro.cli import main
from repro.core.compress import LogRCompressor
from repro.obs.trace import TRACE_FORMAT, Span, Tracer, current_tracer, span
from repro.workloads import generate_pocketdata, write_log

PIPELINE_STAGES = {
    "pipeline.partition",
    "pipeline.fit",
    "pipeline.refine",
}


@pytest.fixture(scope="module")
def small_log():
    return generate_pocketdata(total=400, n_distinct=30, seed=3).to_query_log()


class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer", key="a"):
            with tracer.span("inner.one"):
                pass
            with tracer.span("inner.two"):
                pass
        (root,) = tracer.roots
        assert root.name == "outer"
        assert [child.name for child in root.children] == [
            "inner.one",
            "inner.two",
        ]
        assert [node.name for node in tracer.iter_spans()] == [
            "outer",
            "inner.one",
            "inner.two",
        ]
        assert all(node.seconds >= 0.0 for node in tracer.iter_spans())

    def test_payload_format(self):
        tracer = Tracer()
        with tracer.span("work", zeta=1, alpha=2):
            with tracer.span("step"):
                pass
        payload = tracer.to_payload()
        assert payload["format"] == TRACE_FORMAT
        (root,) = payload["spans"]
        assert root["name"] == "work"
        assert list(root["attrs"]) == ["alpha", "zeta"]  # key-sorted
        assert root["children"][0]["name"] == "step"
        json.dumps(payload)  # JSON-serializable end to end

    def test_module_span_is_noop_without_tracer(self):
        assert current_tracer() is None
        with span("ignored", anything=1) as node:
            assert node is None

    def test_activate_scopes_the_tracer(self):
        tracer = Tracer()
        with tracer.activate():
            assert current_tracer() is tracer
            with span("seen") as node:
                assert isinstance(node, Span)
        assert current_tracer() is None
        assert [s.name for s in tracer.roots] == ["seen"]

    def test_activate_restores_previous(self):
        outer, inner = Tracer(), Tracer()
        with outer.activate():
            with inner.activate():
                assert current_tracer() is inner
            assert current_tracer() is outer


class TestPipelineTracing:
    def test_compress_emits_every_stage(self, small_log):
        tracer = Tracer()
        with tracer.activate():
            LogRCompressor(n_clusters=2, seed=0, n_init=2).compress(small_log)
        names = [node.name for node in tracer.iter_spans()]
        assert PIPELINE_STAGES.issubset(names)
        by_name = {node.name: node for node in tracer.iter_spans()}
        assert by_name["pipeline.partition"].attrs["n_clusters"] == 2
        assert by_name["pipeline.fit"].attrs["executor"] == "serial"

    def test_tracing_never_changes_the_artifact(self, small_log):
        def compress() -> dict:
            payload = json.loads(
                LogRCompressor(n_clusters=3, seed=7, n_init=2)
                .compress(small_log)
                .to_json()
            )
            # The one sanctioned wall-clock provenance field differs
            # between *any* two runs, traced or not.
            payload.pop("build_seconds")
            return payload

        baseline = compress()
        tracer = Tracer()
        with tracer.activate():
            traced = compress()
        assert traced == baseline
        assert tracer.roots  # the run really was traced


class TestCliTraceOut:
    def test_compress_trace_out_round_trip(self, tmp_path):
        log_path = tmp_path / "log.sql"
        write_log(generate_pocketdata(total=400, n_distinct=30, seed=3), log_path)
        plain = tmp_path / "plain.json"
        traced = tmp_path / "traced.json"
        trace_path = tmp_path / "trace.json"
        assert main(["compress", str(log_path), "-o", str(plain), "-k", "2"]) == 0
        rc = main(
            [
                "compress", str(log_path), "-o", str(traced), "-k", "2",
                "--trace-out", str(trace_path),
            ]
        )
        assert rc == 0
        # Telemetry-only: identical artifacts with tracing on, modulo
        # the sanctioned build_seconds provenance field (differs
        # between any two runs).
        plain_payload = json.loads(plain.read_text(encoding="utf-8"))
        traced_payload = json.loads(traced.read_text(encoding="utf-8"))
        plain_payload.pop("build_seconds")
        traced_payload.pop("build_seconds")
        assert traced_payload == plain_payload
        payload = json.loads(trace_path.read_text(encoding="utf-8"))
        assert payload["format"] == TRACE_FORMAT
        (root,) = payload["spans"]
        assert root["name"] == "cli.run"
        assert root["attrs"]["command"] == "compress"
        names = set()
        stack = [root]
        while stack:
            node = stack.pop()
            names.add(node["name"])
            stack.extend(node.get("children", ()))
        assert PIPELINE_STAGES.issubset(names)

    def test_trace_left_inactive_without_flag(self, tmp_path, capsys):
        log_path = tmp_path / "log.sql"
        write_log(generate_pocketdata(total=200, n_distinct=20, seed=5), log_path)
        out = tmp_path / "out.json"
        assert main(["compress", str(log_path), "-o", str(out), "-k", "2"]) == 0
        assert "trace ->" not in capsys.readouterr().out
        assert current_tracer() is None
