"""Telemetry stopwatch: the single sanctioned wall-clock read point.

The determinism-bearing layers (``core/``, ``cluster/``, ``baselines/``,
``sql/``) must never read the wall clock directly — a timestamp that
leaks into summary *content* makes artifacts differ run to run, which
breaks the executor/worker-count bit-identity guarantees the property
tests witness.  ``reprolint`` rule DET02 enforces that statically.

Duration *telemetry* is still wanted (``CompressedLog.build_seconds``,
per-stage pipeline timings, baseline ``fit_seconds``), so this module —
exempt from DET02 exactly like :mod:`repro._rng` is exempt from DET01 —
provides the one audited access point.  The contract for callers:

* a :class:`Stopwatch` value may only feed reporting/telemetry fields
  (``*_seconds`` attributes, timing dicts, log lines);
* it must never influence control flow, clustering, encoding, or any
  serialized summary content.

Keeping every wall-clock read behind this module means auditing the
invariant is a one-file job plus a mechanical lint, instead of a grep
over the whole tree.
"""

from __future__ import annotations

import time

__all__ = ["Stopwatch"]


class Stopwatch:
    """Elapsed wall seconds for telemetry fields.

    ``elapsed()`` is the total since construction; ``lap()`` is the
    split since the previous ``lap()`` (or construction), for per-stage
    timing dicts.
    """

    __slots__ = ("_start", "_last")

    def __init__(self) -> None:
        self._start = time.perf_counter()
        self._last = self._start

    def elapsed(self) -> float:
        """Seconds since construction."""
        return time.perf_counter() - self._start

    def lap(self) -> float:
        """Seconds since the previous :meth:`lap` (or construction)."""
        now = time.perf_counter()
        split = now - self._last
        self._last = now
        return split
