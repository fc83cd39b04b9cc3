"""Ingestion-throughput benchmark: the fingerprint-cached fast path.

Running the full pure-Python lex → parse → normalize → regularize →
extract pipeline on every statement is the cold path.  Real query logs
are overwhelmingly repeated templates (PocketData: 629,582 entries over
605 distinct feature vectors), so the fingerprint cache
(:mod:`repro.core.featurecache`) — the library's only statement
encoder — lets repeated templates skip the parser entirely.  This bench
measures statements/sec through
:class:`repro.service.ingest.IncrementalIngestor` and
:func:`repro.workloads.logio.load_log` against a bench-local cold
reference (:func:`_cold_ingest`, :func:`_cold_load_log`: the plain
extractor on every statement):

* **warm vs cold on a realistic workload** — a 250k-statement US-Bank-
  like log (>90% template repetition): the cached path must be ≥5×
  the cold parse path, and the resulting ``QueryLog`` must be
  byte-identical (matrix, counts, vocabulary order).
* **adversarial low-repetition workload** — every statement a fresh
  template, so the cache never hits: the fast path must not cost more
  than a bounded constant factor (fingerprinting is ~12× cheaper than
  parsing, so the measured overhead is small).

Run with::

    pytest benchmarks/bench_ingest.py -s            # full (slow CI)
    python benchmarks/bench_ingest.py --smoke       # fast CI gate

The printed tables are archived under ``benchmarks/results/``.
"""

from __future__ import annotations

import sys
import time
from functools import partial

import numpy as np

from repro.core.compress import LogRCompressor
from repro.core.log import LogBuilder
from repro.service.ingest import IncrementalIngestor
from repro.sql import AligonExtractor, SqlError
from repro.workloads import generate_bank
from repro.workloads.logio import load_log

from conftest import print_table, record_bench

#: Warm-over-cold throughput gate on the >90%-repetition workload.
SPEEDUP_TARGET = 5.0
#: Smoke-mode gate (tiny sizes leave less repetition to exploit).
SMOKE_SPEEDUP_TARGET = 3.0
#: On the zero-repetition workload the cache cannot win; it must not
#: lose more than this factor either (fingerprint + probe overhead).
ADVERSARIAL_MIN_RATIO = 0.5

#: Full-scale sizes (the ISSUE's 250k-statement bank workload).
BANK_TOTAL = 250_000
BANK_TEMPLATES = 1_200
#: Cold parsing is the thing being avoided, so it is timed on a slice
#: and reported as statements/sec (rates are size-independent here:
#: every cold statement pays the same parse).
COLD_SLICE = 20_000
SEED_SLICE = 20_000
EQUALITY_SLICE = 8_000


def _is_procedure(statement: str) -> bool:
    upper = statement.lstrip().upper()
    return upper.startswith("EXEC ") or upper.startswith("CALL ")


def _cold_ingest(ingestor, statements):
    """Cold reference for ``ingest_statements``: extract every statement,
    skip procedures and failures, merge with ``ingest_feature_sets``."""
    extractor = AligonExtractor(remove_constants=True)
    feature_sets = []
    for statement in statements:
        if _is_procedure(statement):
            continue
        try:
            feature_sets.append(extractor.extract_merged(statement))
        except SqlError:
            continue
    return ingestor.ingest_feature_sets(feature_sets)


def _cold_load_log(statements):
    """Cold reference for ``load_log``: the plain extractor behind a
    raw-string memo, with no fingerprint layer."""
    extractor = AligonExtractor(remove_constants=True)
    builder = LogBuilder()
    memo: dict[str, frozenset | None] = {}
    for statement in statements:
        if _is_procedure(statement):
            continue
        if statement not in memo:
            try:
                memo[statement] = extractor.extract_merged(statement)
            except SqlError:
                memo[statement] = None
        features = memo[statement]
        if features is not None:
            builder.add(features)
    return builder.build()


def _seeded_ingestor(seed_statements, cold: bool = False):
    """A profile compressed from *seed_statements*, ready to ingest."""
    log = _cold_load_log(seed_statements) if cold else load_log(seed_statements)[0]
    compressed = LogRCompressor(n_clusters=8, seed=0).compress(log)
    return IncrementalIngestor(
        compressed, log, staleness_threshold=float("inf")
    )


def _ingest_rate(ingest, statements, batch_size: int = 1_000) -> float:
    start = time.perf_counter()
    for i in range(0, len(statements), batch_size):
        ingest(statements[i : i + batch_size])
    return len(statements) / (time.perf_counter() - start)


def _load_rate(load, statements) -> float:
    start = time.perf_counter()
    load(statements)
    return len(statements) / (time.perf_counter() - start)


def _repetition_rate(statements) -> float:
    """Fraction of statements whose *template* repeats an earlier one."""
    from repro.sql.fingerprint import fingerprint

    keys = {fingerprint(s) for s in statements}
    keys.discard(None)
    return 1.0 - len(keys) / len(statements)


def _adversarial_statements(n: int) -> list[str]:
    """Every statement a fresh template: the cache never hits."""
    return [
        f"SELECT col_{i}, extra_{i} FROM tab_{i % 97} "
        f"WHERE key_{i} = {i} AND flag_{i} > {i % 13}"
        for i in range(n)
    ]


def run_bank_bench(
    total: int = BANK_TOTAL,
    n_templates: int = BANK_TEMPLATES,
    seed_slice: int = SEED_SLICE,
    cold_slice: int = COLD_SLICE,
    target: float = SPEEDUP_TARGET,
) -> float:
    workload = generate_bank(total=total, n_templates=n_templates, seed=0)
    statements = list(workload.statements(shuffle=True, seed=1))
    seed_statements = statements[:seed_slice]
    traffic = statements[seed_slice:]
    repetition = _repetition_rate(traffic)

    cold = _seeded_ingestor(seed_statements, cold=True)
    cold_rate = _ingest_rate(partial(_cold_ingest, cold), traffic[:cold_slice])
    warm = _seeded_ingestor(seed_statements)
    warm_rate = _ingest_rate(warm.ingest_statements, traffic)
    stats = warm.parse_cache_stats["rows"]
    speedup = warm_rate / cold_rate

    load_cold = _load_rate(_cold_load_log, statements[:cold_slice])
    load_warm = _load_rate(load_log, statements)

    print_table(
        "Bench ingest: fingerprint cache on the bank workload",
        ["path", "statements", "stmts/sec", "speedup", "repetition", "hit rate"],
        [
            ["ingest cold (no cache)", cold_slice, cold_rate, 1.0,
             repetition, float("nan")],
            ["ingest warm (fingerprint)", len(traffic), warm_rate, speedup,
             repetition, stats["hit_rate"]],
            ["load_log cold", cold_slice, load_cold, 1.0, repetition,
             float("nan")],
            ["load_log warm", len(statements), load_warm,
             load_warm / load_cold, repetition, float("nan")],
        ],
    )
    record_bench(
        "ingest_bank",
        {
            "ingest_cold_stmts_per_sec": cold_rate,
            "ingest_warm_stmts_per_sec": warm_rate,
            "ingest_speedup": speedup,
            "load_cold_stmts_per_sec": load_cold,
            "load_warm_stmts_per_sec": load_warm,
            "repetition_rate": repetition,
            "row_cache_hit_rate": stats["hit_rate"],
        },
        total_statements=total,
    )
    assert repetition >= 0.90, (
        f"bench workload repetition {repetition:.2%} is not the >=90% regime "
        "the target is defined for"
    )
    assert speedup >= target, (
        f"warm-cache ingest speedup {speedup:.1f}x below the {target:.0f}x target"
    )
    return speedup


def run_adversarial_bench(total: int = 30_000) -> float:
    statements = _adversarial_statements(total)
    seed_statements = statements[: max(500, total // 10)]
    traffic = statements[len(seed_statements) :]

    cold = _seeded_ingestor(seed_statements, cold=True)
    cold_rate = _ingest_rate(partial(_cold_ingest, cold), traffic)
    warm = _seeded_ingestor(seed_statements)
    warm_rate = _ingest_rate(warm.ingest_statements, traffic)
    stats = warm.parse_cache_stats["rows"]
    ratio = warm_rate / cold_rate

    print_table(
        "Bench ingest: adversarial zero-repetition workload",
        ["path", "statements", "stmts/sec", "warm/cold", "hit rate"],
        [
            ["ingest cold (no cache)", len(traffic), cold_rate, 1.0, float("nan")],
            ["ingest warm (fingerprint)", len(traffic), warm_rate, ratio,
             stats["hit_rate"]],
        ],
    )
    record_bench(
        "ingest_adversarial",
        {
            "ingest_cold_stmts_per_sec": cold_rate,
            "ingest_warm_stmts_per_sec": warm_rate,
            "warm_over_cold_ratio": ratio,
        },
        total_statements=total,
    )
    assert stats["hits"] == 0, "adversarial workload must never hit the cache"
    assert ratio >= ADVERSARIAL_MIN_RATIO, (
        f"cache overhead on all-miss traffic is {1/ratio:.2f}x; must stay "
        f"under {1/ADVERSARIAL_MIN_RATIO:.1f}x"
    )
    return ratio


def run_equality_check(total: int = EQUALITY_SLICE) -> None:
    """Cached and cold ingestion must produce byte-identical artifacts."""
    workload = generate_bank(
        total=total, n_templates=min(300, total // 4), seed=0, include_noise=True
    )
    statements = list(workload.statements(shuffle=True, seed=1))
    seed_statements, traffic = statements[: total // 4], statements[total // 4 :]
    warm = _seeded_ingestor(seed_statements)
    warm.ingest_statements(traffic)
    cold = _seeded_ingestor(seed_statements, cold=True)
    _cold_ingest(cold, traffic)
    warm_log, cold_log = warm.log, cold.log
    assert np.array_equal(warm_log.matrix, cold_log.matrix)
    assert np.array_equal(warm_log.counts, cold_log.counts)
    assert list(warm_log.vocabulary) == list(cold_log.vocabulary)
    assert warm.compressed.error == cold.compressed.error
    print("equality: cached == cold (matrix, counts, vocabulary, Error)")


# ----------------------------------------------------------------------
# pytest entry points (full scale, slow CI)
# ----------------------------------------------------------------------
def test_warm_cache_speedup():
    run_bank_bench()


def test_adversarial_overhead():
    run_adversarial_bench()


def test_cached_ingest_byte_identical():
    run_equality_check()


# ----------------------------------------------------------------------
# script entry point (``--smoke`` for the fast CI job)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    if smoke:
        speedup = run_bank_bench(
            total=12_000,
            n_templates=300,
            seed_slice=2_000,
            cold_slice=4_000,
            target=SMOKE_SPEEDUP_TARGET,
        )
        ratio = run_adversarial_bench(total=2_000)
        run_equality_check(total=2_000)
    else:
        speedup = run_bank_bench()
        ratio = run_adversarial_bench()
        run_equality_check()
    print(
        f"bench ingest: PASS (warm {speedup:.1f}x cold, "
        f"adversarial warm/cold {ratio:.2f})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
