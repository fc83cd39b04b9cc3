"""Shared fixtures and reporting helpers for the benchmark suite.

Every module regenerates one table or figure of the paper at laptop
scale: workload sizes are scaled down (documented per bench and in
EXPERIMENTS.md) but the *shapes* — who wins, by what factor, where the
trends bend — are the reproduction targets.

Run with::

    pytest benchmarks/ --benchmark-only

The printed series (visible with ``-s``; also echoed into the captured
output section on failure) are the rows the paper plots.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess

import numpy as np
import pytest

from repro.workloads import generate_bank, generate_pocketdata
from repro.workloads.datasets import income_like, mushroom_like

#: Laptop-scale sizes.  Paper scale: PocketData 629,582 / Bank 1,244,243
#: log entries; Income 777,493 / Mushroom 8,124 tuples.
POCKET_TOTAL = 60_000
POCKET_DISTINCT = 400
BANK_TOTAL = 80_000
BANK_TEMPLATES = 320
MUSHROOM_TUPLES = 4_000
INCOME_TUPLES = 20_000


@pytest.fixture(scope="session")
def pocket_log():
    """PocketData-like encoded log (stable machine workload)."""
    return generate_pocketdata(
        total=POCKET_TOTAL, n_distinct=POCKET_DISTINCT, seed=0
    ).to_query_log()


@pytest.fixture(scope="session")
def bank_log():
    """US-Bank-like encoded log (diverse mixed workload)."""
    return generate_bank(
        total=BANK_TOTAL, n_templates=BANK_TEMPLATES, seed=0
    ).to_query_log()


@pytest.fixture(scope="session")
def mushroom():
    """Mushroom-like categorical dataset (Table 2 column 2)."""
    return mushroom_like(n_tuples=MUSHROOM_TUPLES, seed=0)


@pytest.fixture(scope="session")
def income():
    """Census-Income-like categorical dataset (Table 2 column 1)."""
    return income_like(n_tuples=INCOME_TUPLES, seed=0)


#: Regenerated series are also archived here so they survive pytest's
#: output capture (one file per table/figure, overwritten per run).
RESULTS_DIR = __import__("pathlib").Path(__file__).parent / "results"


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Print an aligned results table and archive it under results/."""
    widths = [
        max(len(str(headers[i])), *(len(_fmt(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    lines = [f"=== {title} ==="]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        lines.append("  ".join(_fmt(cell).ljust(w) for cell, w in zip(row, widths)))
    text = "\n".join(lines)
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    slug = "".join(c if c.isalnum() else "_" for c in title.split(":")[0]).strip("_")
    path = RESULTS_DIR / f"{slug.lower()}.txt"
    # First write of a session truncates so re-runs do not accumulate.
    mode = "a" if path in _WRITTEN_THIS_SESSION else "w"
    _WRITTEN_THIS_SESSION.add(path)
    with path.open(mode, encoding="utf-8") as handle:
        handle.write(text + "\n\n")


_WRITTEN_THIS_SESSION: set = set()

#: Format tag stamped on machine-readable benchmark records.
BENCH_FORMAT = "logr-bench-v1"


def record_bench(name: str, timings: dict, **extra) -> None:
    """Archive one bench's numbers as ``results/BENCH_<name>.json``.

    One schema for every ``bench_*.py`` module, so CI can collect the
    files as artifacts and runs stay diffable across commits:
    ``format`` / ``name`` / provenance (``git_rev``, ``git_dirty``,
    ``cpu_count``, ``python``, ``numpy``) / ``timings`` (flat
    str→float map — seconds, rates, or factors, named explicitly) plus
    any *extra* context fields.
    """
    payload = {
        "format": BENCH_FORMAT,
        "name": name,
        **_provenance(),
        "timings": {key: float(value) for key, value in timings.items()},
        **extra,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell != 0 and (abs(cell) >= 1e5 or abs(cell) < 1e-3):
            return f"{cell:.3e}"
        return f"{cell:.4g}"
    if isinstance(cell, (np.floating,)):
        return _fmt(float(cell))
    return str(cell)


def _provenance() -> dict:
    """Where a record was taken: commit, tree state, machine, versions.

    The commit is ``GITHUB_SHA`` when CI sets it, else ``git rev-parse
    HEAD``; ``git_dirty`` flags uncommitted changes outside
    ``results/`` (which every bench run rewrites).  Both are
    ``"unknown"`` / ``None`` outside a git checkout.
    """
    root = RESULTS_DIR.parent.parent
    rev, dirty = os.environ.get("GITHUB_SHA"), None
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
        if head.returncode == 0:
            rev = rev or head.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain", "--", ".",
                 f":!{RESULTS_DIR.relative_to(root)}"],
                cwd=root, capture_output=True, text=True, timeout=10,
            )
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "git_rev": rev or "unknown",
        "git_dirty": dirty,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
