"""The ``reprolint`` rule set — one module per invariant family.

Every rule documents, in its class docstring: the invariant it encodes,
why the repository needs it, and the property/concurrency test that
*dynamically* witnesses the same invariant.  The lint is the cheap,
total check (every line, every CI run, milliseconds); the witness test
is the expensive behavioral one that proves the invariant matters.
"""

from __future__ import annotations

from ..engine import Rule
from .concurrency import (
    BlockingCallInAsync,
    GuardedByDiscipline,
    SpawnUnsafeCallable,
)
from .determinism import (
    UnorderedIterationOutput,
    UnseededRandomness,
    WallClockRead,
)
from .numerics import FloatEquality
from .observability import DynamicTelemetryName

__all__ = [
    "UnseededRandomness",
    "WallClockRead",
    "UnorderedIterationOutput",
    "SpawnUnsafeCallable",
    "GuardedByDiscipline",
    "BlockingCallInAsync",
    "FloatEquality",
    "DynamicTelemetryName",
    "default_rules",
    "RULE_CLASSES",
]

#: All shipped rules, in rule-id order.
RULE_CLASSES: tuple[type[Rule], ...] = (
    UnseededRandomness,  # DET01
    WallClockRead,  # DET02
    UnorderedIterationOutput,  # DET03
    SpawnUnsafeCallable,  # PAR01
    GuardedByDiscipline,  # LOCK01
    BlockingCallInAsync,  # ASYNC01
    FloatEquality,  # FLOAT01
    DynamicTelemetryName,  # OBS01
)


def default_rules(select: "frozenset[str] | None" = None) -> list[Rule]:
    """Fresh instances of the shipped rules (optionally id-filtered)."""
    rules = [cls() for cls in RULE_CLASSES]
    if select is not None:
        rules = [rule for rule in rules if rule.rule_id in select]
    return rules
