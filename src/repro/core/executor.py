"""Serial and process-pool execution for the staged compression pipeline.

The paper's §6 pipeline is embarrassingly parallel across partitions,
across K candidates of a sweep, and across shards of a huge log — but
only if the parallelism is *deterministic*: results must be
bit-identical to the serial loop at any worker count, or parallel runs
stop being reproductions.  Three rules make that hold everywhere this
module is used:

1. ``Executor.map`` preserves task order (task *i*'s result is slot
   *i*, however the workers interleave);
2. tasks never share mutable state — each task payload is a pure,
   picklable value (spawn-safe: worker processes re-import the library
   and receive the payload by value, so ``fork`` and ``spawn`` start
   methods produce the same results);
3. randomness is *pre-spawned*: the caller derives one child generator
   per task (in task order) before submitting, so the stream a task
   consumes depends only on the root seed and the task's index, never
   on which worker ran it or what ran before it.

``SerialExecutor`` is the reference semantics; ``ProcessExecutor`` is
a drop-in replacement that must never change a result, only the wall
clock.  ``jobs`` is the only parallelism setting: :func:`executor_for`
gives the serial loop for one worker and a process pool otherwise.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

from .._clock import Stopwatch
from .._rng import ensure_rng
from ..obs import metrics as _metrics

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "executor_for",
    "spawn_generators",
    "available_jobs",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

# Telemetry only (see repro.obs): each concrete ``map`` reports its
# batch through here after the results are already materialized, so the
# submit→complete latency is observed without touching task scheduling.
_MAP_TASKS = _metrics.counter(
    "logr_executor_tasks_total",
    "Tasks submitted through Executor.map, by backend.",
    labelnames=("kind",),
)
_MAP_SECONDS = _metrics.histogram(
    "logr_executor_map_seconds",
    "Submit-to-complete wall seconds per Executor.map batch, by backend.",
    labelnames=("kind",),
)


def _observe_map(kind: str, n_tasks: int, seconds: float) -> None:
    """Record one completed ``map`` batch (telemetry only)."""
    _MAP_TASKS.inc(n_tasks, kind=kind)
    _MAP_SECONDS.observe(seconds, kind=kind)


class Executor:
    """Order-preserving ``map`` over independent task payloads.

    Contract: ``map(fn, tasks)`` returns ``[fn(t) for t in tasks]`` —
    same values, same order — regardless of backend or worker count.
    Implementations may run tasks concurrently but must not reorder
    results or share state between tasks.
    """

    #: Backend name, ``"serial"`` or ``"process"`` (labels telemetry).
    kind: str = "serial"
    #: Maximum concurrent workers this executor will use.
    jobs: int = 1

    def map(self, fn: Callable[[_T], _R], tasks: Sequence[_T]) -> list[_R]:
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (idempotent; serial is a no-op)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(jobs={self.jobs})"


class SerialExecutor(Executor):
    """The reference backend: a plain in-process loop."""

    kind = "serial"
    jobs = 1

    def map(self, fn: Callable[[_T], _R], tasks: Sequence[_T]) -> list[_R]:
        watch = Stopwatch()
        results = [fn(task) for task in tasks]
        _observe_map(self.kind, len(tasks), watch.elapsed())
        return results


class ProcessExecutor(Executor):
    """Process-pool backend: true parallelism for Python-heavy stages.

    Task functions must be module-level (picklable by reference) and
    payloads picklable by value — the spawn-safety contract.  The pool
    is created on the first ``map`` and reused until :meth:`close`.  Its
    start method is the platform default (``fork`` on Linux, cheap)
    when the creating process runs a single thread, and ``spawn`` when
    other threads are alive (a server's handler threads): forking while
    another thread holds a lock can deadlock the child.  Results are
    bit-identical either way because tasks carry their randomness with
    them.
    """

    kind = "process"

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self._pool: ProcessPoolExecutor | None = None

    def map(self, fn: Callable[[_T], _R], tasks: Sequence[_T]) -> list[_R]:
        if self._pool is None:
            context = (
                multiprocessing.get_context("spawn")
                if threading.active_count() > 1
                else None
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=context
            )
        watch = Stopwatch()
        results = list(self._pool.map(fn, tasks))
        _observe_map(self.kind, len(tasks), watch.elapsed())
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def executor_for(jobs: int) -> Executor:
    """The executor for *jobs* workers: serial for 1, a process pool above.

    One worker has nothing to parallelize, and the serial loop avoids
    pool start-up.  Open the result in a ``with`` block so the pool is
    shut down when the work is done.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return SerialExecutor() if jobs == 1 else ProcessExecutor(jobs)


def available_jobs() -> int:
    """Worker count the current machine can actually run concurrently."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def spawn_generators(
    seed: int | np.random.Generator | None, n: int
) -> list[np.random.Generator]:
    """*n* child generators, one per task, in task order.

    The per-task semantics match ``compress_to_error``'s documented
    ``_fresh_child`` spawning: with an integer (or ``None``) seed every
    task gets an *identically seeded* fresh generator, so task *i* is
    bit-identical to running its stage alone with ``seed=seed``; with a
    ``Generator`` the children are spawned off it in task order
    (``seed.spawn(n)``), giving independent streams that depend only on
    the generator's state and the task index.  Either way the result is
    invariant under worker count and backend.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(seed, np.random.Generator):
        return list(seed.spawn(n))
    return [ensure_rng(seed) for _ in range(n)]
