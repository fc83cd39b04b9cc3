"""Developer tooling: ``reprolint``, the repository's invariant analyzer.

The repo's hardest guarantees — bit-identical results across executors
and worker counts, spawn-safe executor payloads, and the
service layer's snapshot/lock discipline — are witnessed dynamically by
property and concurrency tests, but those are slow and probabilistic.
This package adds the cheap, total complement: a stdlib-``ast`` static
analyzer whose rules each encode one invariant and run on every file in
milliseconds, wired into CI ahead of the test matrix.

Run it as ``python -m repro.devtools.lint [paths] --format=text|json``;
see :mod:`repro.devtools.lint` for the suppression syntax and
:mod:`repro.devtools.rules` for the rule table.
"""

from __future__ import annotations

# NOTE: the CLI module (.lint) is deliberately NOT imported here — it is
# executed as ``python -m repro.devtools.lint`` and importing it from the
# package __init__ would trigger runpy's double-import warning.
from .engine import FileContext, LintError, Rule, Suppression, Violation, lint_source
from .rules import RULE_CLASSES, default_rules

__all__ = [
    "FileContext",
    "LintError",
    "Rule",
    "Suppression",
    "Violation",
    "lint_source",
    "RULE_CLASSES",
    "default_rules",
]
