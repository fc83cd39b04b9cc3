"""Scaling study (beyond the paper): compression cost vs. log size.

The paper's efficiency argument rests on LogR operating on *distinct*
queries rather than log entries (the US Bank log has 1.24M entries but
1,712 shapes).  Two sweeps make that concrete:

* total log entries grow with distinct count fixed — compression time
  should stay flat (multiplicities are weights, not rows);
* distinct count grows with total fixed — time grows with the distinct
  count (the real input size).

Also reports the end-to-end compression ratio (raw SQL bytes vs
artifact bytes) at each size, and measures the executor layer: the
process-parallel ``compress_sweep`` and the shard-and-merge
``compress_sharded`` path against their serial references on a
250k-statement workload.  Parallel results must be *bit-identical* to
serial (asserted unconditionally); the ≥2.5× wall-clock speedup target
is asserted only when the machine actually has ≥ 4 usable cores (the
tables record the measured factor and the core count either way).
"""

from __future__ import annotations

import time

import pytest

from repro.core.compress import (
    LogRCompressor,
    compress_sharded,
    compress_sweep,
)
from repro.core.executor import available_jobs
from repro.workloads import generate_bank, generate_pocketdata

from conftest import print_table

#: The executor benchmarks' workload: ≥ 200k statements, clustered with
#: the paper's best-quality strategy (spectral + Hamming, §6.1) whose
#: O(n_distinct²) affinity/eigen cost is flat in K — so a K-sweep
#: parallelizes evenly — and shrinks quadratically under sharding.
SCALE_TOTAL = 250_000
SWEEP_TEMPLATES = 1_500  # n² cost: keeps one spectral fit ~5 s
SHARD_TEMPLATES = 4_000  # big enough that one flat pass hurts
SWEEP_KS = [2, 4, 8, 16]
SWEEP_JOBS = 4
#: Wall-clock target for 4 process workers (enforced on ≥ 4 cores).
TARGET_SPEEDUP = 2.5


@pytest.fixture(scope="module")
def sweep_log():
    """US-Bank-like encoded log for the parallel K-sweep benchmark."""
    return generate_bank(
        total=SCALE_TOTAL, n_templates=SWEEP_TEMPLATES, seed=0
    ).to_query_log()


@pytest.fixture(scope="module")
def shard_log():
    """Wider bank log for the shard-and-merge benchmark."""
    return generate_bank(
        total=SCALE_TOTAL, n_templates=SHARD_TEMPLATES, seed=0
    ).to_query_log()


def _run(total: int, n_distinct: int, seed: int = 0):
    workload = generate_pocketdata(total=total, n_distinct=n_distinct, seed=seed)
    log = workload.to_query_log()
    start = time.perf_counter()
    compressed = LogRCompressor(n_clusters=8, seed=0, n_init=3).compress(log)
    seconds = time.perf_counter() - start
    raw_bytes = sum(len(text) * count for text, count in workload.entries)
    report = compressed.compression_report(raw_bytes)
    return seconds, report


def test_scale_in_total_entries(benchmark):
    benchmark.pedantic(lambda: _run(20_000, 200), rounds=1, iterations=1)
    rows = []
    timings = []
    for total in (20_000, 80_000, 320_000):
        seconds, report = _run(total, 200)
        timings.append(seconds)
        rows.append(
            [total, seconds, report["compression_ratio"], report["error_bits"]]
        )
    print_table(
        "Scale: total entries grow, distinct fixed at 200",
        ["total", "seconds", "ratio", "error"],
        rows,
    )
    # Multiplicities are weights: 16x the entries costs < 4x the time.
    assert timings[-1] < 4 * max(timings[0], 1e-3)
    # Compression ratio improves with log size (same artifact, more raw).
    assert rows[-1][2] > rows[0][2]


def test_scale_in_distinct_queries(benchmark):
    benchmark.pedantic(lambda: _run(50_000, 100, seed=1), rounds=1, iterations=1)
    rows = []
    for n_distinct in (100, 200, 400):
        seconds, report = _run(50_000, n_distinct, seed=1)
        rows.append(
            [n_distinct, seconds, report["artifact_bytes"], report["error_bits"]]
        )
    print_table(
        "Scale: distinct queries grow, total fixed at 50k",
        ["distinct", "seconds", "artifact bytes", "error"],
        rows,
    )
    # The artifact grows with the distinct structure, not the raw count.
    assert rows[-1][2] >= rows[0][2]


def test_parallel_sweep_speedup(benchmark, sweep_log):
    """Process-executor K-sweep vs the serial loop (bit-identical)."""
    benchmark.pedantic(
        lambda: compress_sweep(sweep_log, [2], n_init=2, seed=0),
        rounds=1, iterations=1,
    )
    start = time.perf_counter()
    serial = compress_sweep(
        sweep_log, SWEEP_KS, method="spectral", metric="hamming", seed=0
    )
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = compress_sweep(
        sweep_log, SWEEP_KS, method="spectral", metric="hamming", seed=0,
        jobs=SWEEP_JOBS,
    )
    parallel_seconds = time.perf_counter() - start

    cores = available_jobs()
    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    rows = [
        [k, s.error, s.verbosity, s.seconds, p.seconds]
        for k, s, p in zip(SWEEP_KS, serial, parallel)
    ]
    rows.append(["total", "-", "-", serial_seconds, parallel_seconds])
    print_table(
        f"Parallel sweep: serial vs {SWEEP_JOBS} process workers "
        f"(speedup {speedup:.2f}x on {cores} cores, "
        f"{SCALE_TOTAL} statements, {sweep_log.n_distinct} distinct)",
        ["K", "error", "verbosity", "serial s", "parallel s"],
        rows,
    )
    # Bit-identical Error/Verbosity at equal seed, any worker count.
    for ours, theirs in zip(serial, parallel):
        assert ours.error == theirs.error
        assert ours.verbosity == theirs.verbosity
    if cores >= SWEEP_JOBS:
        assert speedup >= TARGET_SPEEDUP, (
            f"expected >= {TARGET_SPEEDUP}x on {cores} cores, got {speedup:.2f}x"
        )


def test_sharded_compression_speedup(benchmark, shard_log):
    """Shard-and-merge: process workers vs serial, plus the Error bound."""
    benchmark.pedantic(
        lambda: compress_sharded(shard_log, n_shards=2, n_clusters=2,
                                 n_init=2, seed=0),
        rounds=1, iterations=1,
    )
    shards, per_shard_k = 4, 8
    start = time.perf_counter()
    serial = compress_sharded(
        shard_log, n_shards=shards, n_clusters=per_shard_k,
        method="spectral", metric="hamming", seed=0,
    )
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = compress_sharded(
        shard_log, n_shards=shards, n_clusters=per_shard_k,
        method="spectral", metric="hamming", seed=0,
        jobs=SWEEP_JOBS,
    )
    parallel_seconds = time.perf_counter() - start

    # Error-bound reference: one flat pass at the same total K.  The
    # spectral affinity is O(n_distinct²), so sharding is superlinear:
    # even the *serial* sharded path beats this wall clock handily.
    start = time.perf_counter()
    single = LogRCompressor(
        n_clusters=shards * per_shard_k, method="spectral", metric="hamming",
        seed=0,
    ).compress(shard_log)
    single_seconds = time.perf_counter() - start

    cores = available_jobs()
    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    print_table(
        f"Shard-and-merge: {shards} shards x K={per_shard_k} "
        f"(speedup {speedup:.2f}x on {cores} cores, "
        f"{SCALE_TOTAL} statements, {shard_log.n_distinct} distinct)",
        ["path", "seconds", "error", "verbosity", "components"],
        [
            ["sharded serial", serial_seconds, serial.error,
             serial.total_verbosity, serial.mixture.n_components],
            [f"sharded {SWEEP_JOBS} procs", parallel_seconds, parallel.error,
             parallel.total_verbosity, parallel.mixture.n_components],
            [f"single pass K={shards * per_shard_k}", single_seconds,
             single.error, single.total_verbosity,
             single.mixture.n_components],
        ],
    )
    # Bit-identical across worker counts.
    assert serial.error == parallel.error
    assert serial.total_verbosity == parallel.total_verbosity
    assert (serial.labels == parallel.labels).all()
    # Documented bound: sharding keeps rows from competing across
    # shards, so its Error can exceed the equal-K single pass — but
    # stays within 2x + 0.5 bits of it (measured: at or *below* the
    # single pass here, because per-shard spectral embeddings separate
    # local structure more cleanly), and always below the
    # unpartitioned (K=1) encoding.
    naive = LogRCompressor(n_clusters=1).compress(shard_log)
    assert serial.error <= naive.error + 1e-9
    assert serial.error <= 2.0 * single.error + 0.5
    if cores >= SWEEP_JOBS:
        assert speedup >= TARGET_SPEEDUP, (
            f"expected >= {TARGET_SPEEDUP}x on {cores} cores, got {speedup:.2f}x"
        )
