"""Speed probe: ``python3 perfbench/probe.py OUT`` times a fixed task forever.

About every ``PERIOD`` seconds it runs a fixed pure-Python task and
appends ``start cpu_seconds`` to OUT: the task's start on the
``CLOCK_MONOTONIC`` clock the benchmark times with, and the CPU time it
took (0.35-0.6 ms on a 2-vCPU Xeon VM).  Run on the same CPU as the
program, that time follows the CPU's speed from moment to moment: on a
shared VM the host's other guests slow a vCPU by up to ~2x in spells of
seconds to minutes, and a build beside the probe slowed with it
(correlation 0.90 over 13 builds, against ~0.5 for a probe on the other
vCPU).  :mod:`run` scales its timings by the probe's median over the
same interval.
"""

from __future__ import annotations

import sys
import time

#: Seconds the probe sleeps between two tasks (a ~2-3% duty cycle).
PERIOD = 0.02


def task() -> int:
    counts: dict[int, int] = {}
    for i in range(3000):
        key = i % 700
        counts[key] = counts.get(key, 0) + i
    return len(counts)


def main(path: str) -> None:
    with open(path, "w", encoding="utf-8", buffering=1) as out:
        while True:
            start, cpu = time.monotonic(), time.thread_time()
            task()
            # CPU time, not wall time: the scheduler may preempt the probe
            # for the program it shares the CPU with, and that wait is
            # not the CPU's speed.
            out.write(f"{start:.6f} {time.thread_time() - cpu:.9f}\n")
            time.sleep(PERIOD)


if __name__ == "__main__":
    main(sys.argv[1])
