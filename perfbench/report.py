"""Summarize the benchmark's run history.

    python3 perfbench/report.py [--last N] [--rev REV]

For each workload, over its last N untraced full-size runs of one
revision, prints each end-to-end metric's median, quartiles and spread
(the quartile distance as a share of the median, as the acceptance rule
computes it) next to the metric's bound; then the tracing overhead, the
median of the traced runs minus that of the untraced ones (both as raw
wall time: the traced run does not scale its timings).  Records
taken on a machine with another ``cpu_count`` are not comparable and
are left out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
HISTORY = HERE / "results" / "history.jsonl"


def load(rev: str | None) -> list[dict]:
    records = [json.loads(line) for line in HISTORY.read_text(encoding="utf-8").splitlines()]
    comparable = [r for r in records if r["cpu_count"] == os.cpu_count()]
    if len(comparable) < len(records):
        print(f"skipped {len(records) - len(comparable)} non-comparable records "
              f"(cpu_count != {os.cpu_count()})")
    if rev is None and comparable:
        rev = comparable[-1]["git_rev"]
    return [r for r in comparable if r["git_rev"] == rev and r["scale"] == 1.0]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--last", type=int, default=10)
    parser.add_argument("--rev", default=None)
    args = parser.parse_args()
    benchmark = json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    records = load(args.rev)
    status = 0
    for workload in [w["name"] for w in benchmark["workloads"]]:
        mine = [r for r in records if r["workload"] == workload and r["correct"]]
        untraced = [r for r in mine if r["trace"] == 0][-args.last:]
        traced = [r for r in mine if r["trace"] == 1][-args.last:]
        if not untraced:
            continue
        seeds = sorted({r["seed"] for r in untraced})
        print(f"\n{workload}: {len(untraced)} untraced runs (seeds {seeds}), "
              f"{len(traced)} traced")
        print(f"  {'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
              f"{'bound':>7}{'traced-untraced':>17}")
        for metric, bound in bounds.items():
            median, q1, q3, share = spread([r["metrics"][metric] for r in untraced])
            overhead = ""
            if traced:  # the traced run is unprobed: compare raw wall times
                untraced_raw = statistics.median(
                    r["unsteady"].get("wall", {}).get(metric, r["metrics"][metric])
                    for r in untraced)
                traced_raw = statistics.median(r["metrics"][metric] for r in traced)
                overhead = f"{traced_raw - untraced_raw:+.4g}"
            flag = " !" if share > bound else (" ~" if share > bound / 3 else "")
            if metric != "setup_s" and share > bound:
                status = 1
            print(f"  {metric:<22}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{share:>9.3f}{bound:>7}{overhead:>17}{flag}")
        samples = [r["samples"] for r in untraced]
        print("  samples per run: score", min(s["score"] for s in samples),
              "to", max(s["score"] for s in samples), "/ ingest",
              min(s["ingest"] for s in samples), "to", max(s["ingest"] for s in samples))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
