"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Run from the repository root (the smoke runs build and serve the
checkout's ``src``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from workloads import SPECS, generate  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MANIFEST = json.loads((HERE / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_generation_is_a_pure_function_of_workload_and_seed(name):
    spec = SPECS[name]
    first = generate(spec, 3, scale=0.01).to_bytes()
    assert generate(spec, 3, scale=0.01).to_bytes() == first
    assert generate(spec, 4, scale=0.01).to_bytes() != first


def test_declared_names_agree():
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    assert workloads == list(SPECS)
    assert [w["name"] for w in MANIFEST["workloads"]] == workloads
    for kind in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[kind]]
        documented = [(m["name"], m["unit"], m["better"]) for m in MANIFEST[kind]]
        assert documented == declared


def test_probe_scales_a_timing_by_the_median_probe_during_it():
    from run import PROBE_REFERENCE_S, BenchError, Probe

    probe = object.__new__(Probe)  # the recorded samples, without the child
    probe.starts = [i / 10 for i in range(100)]
    probe.seconds = [2 * PROBE_REFERENCE_S] * 50 + [PROBE_REFERENCE_S] * 50
    assert probe.scale(0.0, 4.9) == 0.5  # the CPU ran at half the reference speed
    assert probe.scale(5.0, 9.9) == 1.0
    assert probe.scale(7.0, 7.01) == 1.0  # a request: the 1-s window around it
    with pytest.raises(BenchError):
        probe.scale(20.0, 21.0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_tiny_smoke_passes_every_check(name, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[kind]]


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "pocket", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
