"""Out-of-core proof bench: spill-mode encoding under a bounded heap.

The columnar store's claim, measured rather than argued: **peak heap
is O(chunk budget), not O(log).**  The same synthetic encoded stream
(≥4× the chunk budget in distinct rows) is fed to an in-memory
``LogBuilder`` and to a spilling one; ``tracemalloc`` peaks are
compared.  The spill path must stay well under the flat path, and the
two logs must be bit-identical.

Run with::

    pytest benchmarks/bench_colstore.py -s          # full (slow CI)
    python benchmarks/bench_colstore.py --smoke     # fast CI gate

The printed tables are archived under ``benchmarks/results/`` and the
machine-readable record as ``results/BENCH_colstore.json``.
"""

from __future__ import annotations

import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core.log import LogBuilder
from repro.core.vocabulary import Vocabulary

from conftest import print_table, record_bench

#: The flat builder's peak heap must exceed the spilling builder's by
#: at least this factor (the stream is ≥8× the chunk budget, so the
#: separation is structural, not noise).
MEMORY_RATIO_TARGET = 2.0

#: Full-scale shape (slow CI): 8× the chunk budget in distinct rows.
FULL_ROWS = 65_536
FULL_CHUNK = 8_192
#: Smoke shape (fast CI gate), same 8× ratio.
SMOKE_ROWS = 8_192
SMOKE_CHUNK = 1_024

N_FEATURES = 96


def _stream(n_rows: int, n_features: int = N_FEATURES):
    """Deterministic stream of (frozenset, count) encoded rows.

    A production-shaped template mix: a small pool of hot templates
    recurs throughout (so duplicate mass spans spill runs and the
    k-way merge really sums counts), while the long tail of one-off
    variants keeps the distinct-row count — the thing that fills RAM —
    proportional to the stream length.
    """
    rng = np.random.default_rng(7)
    hot = [
        frozenset(rng.choice(n_features, size=5, replace=False).tolist())
        for _ in range(64)
    ]
    for _ in range(n_rows):
        if rng.random() < 0.25:
            indices = hot[int(rng.integers(len(hot)))]
        else:
            size = int(rng.integers(3, 9))
            indices = frozenset(
                rng.choice(n_features, size=size, replace=False).tolist()
            )
        yield indices, int(rng.integers(1, 4))


def _feed(builder: LogBuilder, n_rows: int) -> int:
    """Feed the stream under tracemalloc; returns the peak heap bytes."""
    tracemalloc.start()
    try:
        for indices, count in _stream(n_rows):
            builder.add_encoded(indices, count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def run_memory_bench(
    n_rows: int, chunk_rows: int, workdir: Path, target: float = MEMORY_RATIO_TARGET
) -> dict[str, float]:
    assert n_rows >= 4 * chunk_rows, "stream must exceed 4x the chunk budget"
    vocabulary = Vocabulary(range(N_FEATURES))

    flat = LogBuilder(vocabulary)
    flat_peak = _feed(flat, n_rows)
    reference = flat.build()

    spilling = LogBuilder(
        Vocabulary(range(N_FEATURES)),
        spill_dir=workdir / "runs",
        spill_rows=chunk_rows,
    )
    spill_peak = _feed(spilling, n_rows)
    tracemalloc.start()
    try:
        columnar = spilling.build_columnar(workdir / "log", chunk_rows=chunk_rows)
        _, merge_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    materialized = columnar.to_query_log()
    assert np.array_equal(materialized.matrix, reference.matrix)
    assert np.array_equal(materialized.counts, reference.counts)
    assert list(materialized.vocabulary) == list(reference.vocabulary)

    ratio = flat_peak / max(spill_peak, 1)
    print_table(
        "Bench colstore: peak heap, flat vs spill-mode encoding",
        ["path", "rows", "chunk budget", "chunks", "peak MiB", "flat/spill"],
        [
            ["flat (in-memory dict)", n_rows, "-", 1, flat_peak / 2**20, 1.0],
            ["spill (bounded bag)", n_rows, chunk_rows, columnar.n_chunks,
             spill_peak / 2**20, ratio],
            ["k-way merge finalize", n_rows, chunk_rows, columnar.n_chunks,
             merge_peak / 2**20, flat_peak / max(merge_peak, 1)],
        ],
    )
    assert columnar.n_chunks >= 4, "log did not span >=4 chunks"
    assert ratio >= target, (
        f"spill-mode peak heap only {ratio:.1f}x under the flat path "
        f"(target >={target:.1f}x): the out-of-core bound regressed"
    )
    return {
        "flat_peak_bytes": float(flat_peak),
        "spill_peak_bytes": float(spill_peak),
        "merge_peak_bytes": float(merge_peak),
        "flat_over_spill": ratio,
        "n_chunks": float(columnar.n_chunks),
    }


def run_all(n_rows: int, chunk_rows: int, mode: str) -> None:
    with tempfile.TemporaryDirectory(prefix="bench-colstore-") as tmp:
        workdir = Path(tmp)
        timings = run_memory_bench(n_rows, chunk_rows, workdir)
    record_bench(
        "colstore", timings, mode=mode, rows=n_rows, chunk_rows=chunk_rows
    )
    print(
        f"bench colstore: PASS (spill peak {timings['flat_over_spill']:.1f}x "
        "under flat)"
    )


# ----------------------------------------------------------------------
# pytest entry point (full scale, slow CI)
# ----------------------------------------------------------------------
def test_out_of_core_memory_bound():
    run_all(FULL_ROWS, FULL_CHUNK, mode="full")


# ----------------------------------------------------------------------
# script entry point (``--smoke`` for the fast CI job)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--smoke" in argv:
        run_all(SMOKE_ROWS, SMOKE_CHUNK, mode="smoke")
    else:
        run_all(FULL_ROWS, FULL_CHUNK, mode="full")
    return 0


if __name__ == "__main__":
    sys.exit(main())
