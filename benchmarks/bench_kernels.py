"""Microbenchmark: packed-bitset kernels vs the dense reference scans.

The summarizer's hot path is pattern containment: `pattern_marginal`
per mined pattern, and level-wise support counting inside the Apriori
miner.  This bench times both operations on TPC-H-like and SDSS-like
workloads (constants kept, so every parameter variant is a distinct
query — the shape where scan cost actually bites) and asserts

* bit-exact agreement between the packed kernels and the dense
  reference, and
* the ≥5× speedup target for the packed kernels over dense.

The dense side is a bench-local copy of the dense formulas the library
used before the packed kernels became its only containment path: one
``Pattern.matches`` row scan per pattern for marginals, and Apriori
levels (same candidate generator) with per-candidate dense supports
for mining.

Run with::

    pytest benchmarks/bench_kernels.py -s           # full (slow CI)
    python benchmarks/bench_kernels.py --smoke      # fast CI gate

The printed tables are archived under ``benchmarks/results/`` and the
machine-readable record as ``results/BENCH_kernels.json``.
"""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest

from repro.core.mining import _generate_candidates, frequent_patterns
from repro.core.pattern import Pattern
from repro.workloads.sdss import generate_sdss
from repro.workloads.tpch import generate_tpch

from conftest import print_table, record_bench

#: Mining parameters for the timed runs: low support so the candidate
#: lattice (and therefore support counting) dominates, as it does at
#: production scale.
MIN_SUPPORT = 0.02
MAX_SIZE = 3
REPS = 5
#: packed-over-dense gate (unchanged from the original bench).
SPEEDUP_TARGET = 5.0

#: Full-scale workload sizes (pytest / slow CI).
TPCH_TOTAL = 240_000
TPCH_VARIANTS = 600
SDSS_TOTAL = 100_000
SDSS_DISTINCT = 1_500
#: Smoke-mode sizes (fast CI gate).
SMOKE_TPCH_TOTAL = 30_000
SMOKE_TPCH_VARIANTS = 150


def make_tpch_log(total: int = TPCH_TOTAL, variants: int = TPCH_VARIANTS):
    """TPC-H-like log, constants kept: every variant a distinct row."""
    return generate_tpch(
        total=total, variants_per_template=variants, seed=0
    ).to_query_log(remove_constants=False)


def make_sdss_log(total: int = SDSS_TOTAL, n_distinct: int = SDSS_DISTINCT):
    """SDSS-like analytic log, constants kept."""
    return generate_sdss(total=total, n_distinct=n_distinct, seed=0).to_query_log(
        scheme="makiyama", remove_constants=False
    )


@pytest.fixture(scope="module")
def tpch_log():
    return make_tpch_log()


@pytest.fixture(scope="module")
def sdss_log():
    return make_sdss_log()


def dense_marginal(log, pattern: Pattern) -> float:
    """``p(Q ⊇ b | L)`` by a dense row scan plus a weighted sum."""
    return int(log.counts[pattern.matches(log.matrix)].sum()) / log.total


def dense_frequent_patterns(log, min_support: float, max_size: int):
    """Weighted Apriori with dense supports (the miner's old dense path).

    Integer count arithmetic keeps supports exact: a query contains an
    itemset iff the row-wise min over its columns is 1, so the weighted
    support is an integer dot product divided once by |L|.
    """
    counts, total = log.counts, log.total
    dense_matrix = log.matrix.astype(np.int64)
    marginals = (counts @ dense_matrix) / total
    frequent_items = np.flatnonzero(marginals >= min_support)
    level_items = frequent_items[:, None].astype(np.int64)
    level_supports = marginals[frequent_items]
    results = [
        (Pattern(row), float(support))
        for row, support in zip(level_items, level_supports)
    ]
    size = 1
    while level_items.shape[0] and size < max_size:
        size += 1
        candidates = _generate_candidates(level_items, log.n_features)
        if candidates.shape[0] == 0:
            break
        supports = np.array(
            [
                float(counts @ dense_matrix[:, list(items)].min(axis=1)) / total
                for items in candidates
            ]
        )
        keep = supports >= min_support
        level_items = candidates[keep]
        level_supports = supports[keep]
        results.extend(
            (Pattern(row), float(support))
            for row, support in zip(level_items, level_supports)
        )
    results.sort(key=lambda pair: (-pair[1], len(pair[0])))
    return results


def _time(fn, reps=REPS) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_packed_vs_dense(name: str, log, reps: int = REPS) -> list[list]:
    """Rows of [workload, op, patterns, distinct, packed ms, dense ms, x]."""
    patterns = [p for p, _ in frequent_patterns(log, MIN_SUPPORT, MAX_SIZE)]
    log.packed_columns  # pre-build the caches outside the timed region
    log._byte_tally

    t_packed, got_packed = _time(lambda: log.pattern_marginals(patterns), reps)
    t_dense, got_dense = _time(
        lambda: np.array([dense_marginal(log, p) for p in patterns]), reps
    )
    assert np.array_equal(got_packed, got_dense), "marginals disagree"
    marginal_speedup = t_dense / t_packed

    m_packed, mined_packed = _time(
        lambda: frequent_patterns(log, MIN_SUPPORT, MAX_SIZE), reps
    )
    m_dense, mined_dense = _time(
        lambda: dense_frequent_patterns(log, MIN_SUPPORT, MAX_SIZE), reps
    )
    assert mined_packed == mined_dense, "mined patterns disagree"
    mining_speedup = m_dense / m_packed

    return [
        [name, "pattern_marginals", len(patterns), log.n_distinct,
         t_packed * 1e3, t_dense * 1e3, marginal_speedup],
        [name, "frequent_patterns", len(patterns), log.n_distinct,
         m_packed * 1e3, m_dense * 1e3, mining_speedup],
    ]


def _record(rows: list[list], **extra) -> None:
    timings = {}
    for row in rows:
        timings[f"{row[0]}_{row[1]}_packed_ms"] = row[4]
        timings[f"{row[0]}_{row[1]}_dense_ms"] = row[5]
        timings[f"{row[0]}_{row[1]}_speedup"] = row[6]
    record_bench("kernels", timings, **extra)


def _assert_targets(rows: list[list]) -> None:
    for row in rows:
        assert row[-1] >= SPEEDUP_TARGET, (
            f"{row[0]} {row[1]}: packed speedup {row[-1]:.1f}x "
            f"below the {SPEEDUP_TARGET:.0f}x target"
        )


def _print_table(rows: list[list]) -> None:
    print_table(
        "Bench kernels: packed-bitset vs dense containment",
        ["workload", "operation", "patterns", "distinct", "packed ms",
         "dense ms", "speedup"],
        rows,
    )


# ----------------------------------------------------------------------
# pytest entry point (full scale, slow CI)
# ----------------------------------------------------------------------
def test_kernel_speedup(tpch_log, sdss_log):
    rows = run_packed_vs_dense("tpch", tpch_log) + run_packed_vs_dense(
        "sdss", sdss_log
    )
    _print_table(rows)
    _record(rows, mode="full")
    _assert_targets(rows)


# ----------------------------------------------------------------------
# script entry point (``--smoke`` for the fast CI job)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--smoke" in argv:
        log = make_tpch_log(total=SMOKE_TPCH_TOTAL, variants=SMOKE_TPCH_VARIANTS)
        rows = run_packed_vs_dense("tpch", log, reps=3)
        mode = "smoke"
    else:
        rows = run_packed_vs_dense("tpch", make_tpch_log()) + run_packed_vs_dense(
            "sdss", make_sdss_log()
        )
        mode = "full"
    _print_table(rows)
    _record(rows, mode=mode)
    _assert_targets(rows)
    worst = min(row[-1] for row in rows)
    print(
        f"bench kernels: PASS (packed >={worst:.1f}x dense, "
        f"target {SPEEDUP_TARGET:.0f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
