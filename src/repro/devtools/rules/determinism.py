"""Determinism rules: DET01 (randomness), DET02 (wall clock), DET03 (ordering).

The repository's hardest guarantee is bit-identity: the same input must
produce byte-identical artifacts from the serial loop and from a
process pool of any worker count.  Three classes of bug silently
break it — an unseeded RNG, a wall-clock value leaking into summary
content, and iteration order of an unordered container reaching
serialized output.  Each is cheap to catch at the AST and
expensive to catch dynamically.
"""

from __future__ import annotations

import ast
from pathlib import PurePath

from ..engine import FileContext, Rule, Violation

__all__ = ["UnseededRandomness", "WallClockRead", "UnorderedIterationOutput"]

#: Layers whose computation must be a pure function of (input, seed).
DETERMINISM_LAYERS = frozenset({"core", "cluster", "baselines", "sql"})

#: Explicitly-seeded numpy constructors DET01 never flags.
_SEEDED_CONSTRUCTORS = frozenset(
    {
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Wall-clock reads DET02 flags (calls *or* bare references passed as values).
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class UnseededRandomness(Rule):
    """DET01 — all randomness must flow through ``repro._rng.ensure_rng``.

    Invariant: every stochastic component takes an explicit seed or
    ``numpy.random.Generator`` and spawns children for sub-tasks, so a
    run is reproducible end to end.  The stdlib ``random`` module and
    numpy's *global* state (``np.random.seed``, ``np.random.rand``,
    argless ``default_rng()``) are process-wide mutable state: one call
    anywhere perturbs every later draw, across threads and test order.

    Witnessed dynamically by ``tests/test_rng.py`` and the worker-count
    determinism properties in ``tests/core/test_executor.py`` /
    ``tests/core/test_compress_pipeline.py``.
    """

    rule_id = "DET01"
    invariant = (
        "no unseeded/global randomness outside _rng.py; thread a seeded "
        "numpy Generator (ensure_rng / Generator.spawn) instead"
    )
    witness = "tests/test_rng.py"

    def applies_to(self, path: PurePath) -> bool:
        return path.name != "_rng.py"

    def check(self, ctx: FileContext) -> list[Violation]:
        found = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.imports.resolve(node.func)
            if qual is None:
                continue
            if qual.startswith("random."):
                found.append(
                    ctx.violation(
                        node,
                        self.rule_id,
                        f"stdlib `{qual}` draws from process-global state; "
                        "thread a seeded numpy Generator "
                        "(repro._rng.ensure_rng) instead",
                    )
                )
            elif qual.startswith("numpy.random."):
                tail = qual[len("numpy.random."):]
                if tail in _SEEDED_CONSTRUCTORS:
                    continue
                if tail == "default_rng":
                    if node.args or node.keywords:
                        continue  # explicitly seeded: fine
                    message = (
                        "argless `default_rng()` seeds from OS entropy; "
                        "pass a seed or use repro._rng.ensure_rng"
                    )
                else:
                    message = (
                        f"`{qual}` uses numpy's global RNG state; "
                        "use a seeded Generator from repro._rng.ensure_rng"
                    )
                found.append(ctx.violation(node, self.rule_id, message))
        return found


class WallClockRead(Rule):
    """DET02 — determinism-bearing layers never read the wall clock.

    Invariant: ``core/``, ``cluster/``, ``baselines/`` and ``sql/``
    compute pure functions of (input, seed); a wall-clock value that
    reaches summary content makes artifacts differ run to run, which the
    golden-fixture byte-stability tests would only catch long after the
    fact.  Duration *telemetry* is allowed — but only through
    :class:`repro._clock.Stopwatch`, the one audited read point, never a
    direct ``time.*`` / ``datetime.*`` read.  ``repro/obs/`` is exempt
    alongside ``_clock.py``: it is the audited telemetry sink (metrics,
    spans) whose values never reach serialized artifacts.

    Witnessed dynamically by ``tests/core/test_golden_artifacts.py``
    (byte-stable artifact round trips).
    """

    rule_id = "DET02"
    invariant = (
        "no wall-clock reads (time.*, datetime.now, perf_counter) in "
        "core/, cluster/, baselines/, sql/; telemetry goes through "
        "repro._clock.Stopwatch"
    )
    witness = "tests/core/test_golden_artifacts.py"

    def applies_to(self, path: PurePath) -> bool:
        # _clock.py is the audited read point; repro/obs/ is the audited
        # telemetry sink built on it (timestamps never reach artifacts).
        if path.name in {"_clock.py", "_rng.py"} or "obs" in path.parts:
            return False
        return any(part in DETERMINISM_LAYERS for part in path.parts)

    def check(self, ctx: FileContext) -> list[Violation]:
        found = []
        for node in ast.walk(ctx.tree):
            # Flag the *reference*, not just calls: `timer=time.time`
            # passed as a value is the same leak one step removed.
            if not isinstance(node, ast.Attribute):
                continue
            qual = ctx.imports.resolve(node)
            if qual in _WALL_CLOCK:
                found.append(
                    ctx.violation(
                        node,
                        self.rule_id,
                        f"wall-clock read `{qual}` in a determinism-bearing "
                        "layer; route duration telemetry through "
                        "repro._clock.Stopwatch",
                    )
                )
        for node in ast.walk(ctx.tree):
            # `from time import perf_counter` then a bare reference.
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                qual = ctx.imports.resolve(node)
                if qual in _WALL_CLOCK:
                    found.append(
                        ctx.violation(
                            node,
                            self.rule_id,
                            f"wall-clock read `{qual}` in a "
                            "determinism-bearing layer; route duration "
                            "telemetry through repro._clock.Stopwatch",
                        )
                    )
        return found


class UnorderedIterationOutput(Rule):
    """DET03 — unordered iteration must not feed ordered output.

    Invariant: ``set`` / ``dict.keys()`` iteration order depends on
    insertion history and (for ``str`` keys) ``PYTHONHASHSEED``; the
    moment it reaches a list, a joined string, or any serialized
    payload, two identical runs can produce different bytes.  Every
    such flow must pass through ``sorted(...)`` (the codebase's
    convention is ``sorted(..., key=repr)`` for mixed-type features).

    The check is intentionally shallow: it flags a set-producing
    expression (``set(...)``, ``frozenset(...)``, a set comprehension,
    ``*.keys()``) — or a local name assigned one — appearing directly
    as the iterable of ``list()`` / ``tuple()`` / ``*.join()`` or of a
    comprehension feeding them, without an interposed ``sorted()``.
    Literal sets of constants are exempt per the rule's charter
    (their order is still arbitrary, but they never encode data).

    Witnessed dynamically by the cached-vs-cold byte-identity
    properties in ``tests/service/test_ingest_cache.py`` and the
    artifact round trips in ``tests/core/test_golden_artifacts.py``.
    """

    rule_id = "DET03"
    invariant = (
        "iteration over a set/dict.keys() of non-literal origin must be "
        "wrapped in sorted() before feeding list/join/serialized output"
    )
    witness = "tests/service/test_ingest_cache.py"

    _SINK_BUILTINS = frozenset({"list", "tuple"})

    def check(self, ctx: FileContext) -> list[Violation]:
        found: list[Violation] = []
        self._check_scope(ctx, ctx.tree, found)
        for node in ast.walk(ctx.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                self._check_scope(ctx, node, found)
        return found

    # -- helpers ---------------------------------------------------------
    def _is_set_producing(self, node: ast.AST, ctx: FileContext) -> bool:
        if isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Call):
            qual = ctx.imports.resolve(node.func)
            if qual in {"set", "frozenset"}:
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "keys"
                and not node.args
            ):
                return True
        return False

    def _tainted_names(self, scope: ast.AST, ctx: FileContext) -> set[str]:
        """Names assigned a set-producing expression in this scope."""
        tainted: set[str] = set()
        for node in self._scope_nodes(scope):
            value = None
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            if value is None:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if self._is_set_producing(value, ctx):
                    tainted.add(target.id)
                else:
                    tainted.discard(target.id)  # reassigned: last write wins
        return tainted

    def _scope_nodes(self, scope: ast.AST):
        """Walk *scope* without descending into nested function scopes."""
        body = scope.body if hasattr(scope, "body") else []
        stack = list(body)
        while stack:
            node = stack.pop(0)
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def _check_scope(
        self, ctx: FileContext, scope: ast.AST, found: list[Violation]
    ) -> None:
        tainted = self._tainted_names(scope, ctx)

        def is_unordered(expr: ast.AST) -> bool:
            if self._is_set_producing(expr, ctx):
                return True
            return isinstance(expr, ast.Name) and expr.id in tainted

        for node in self._scope_nodes(scope):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.imports.resolve(node.func)
            candidates: list[ast.expr] = []
            if qual in self._SINK_BUILTINS and len(node.args) == 1:
                candidates.append(node.args[0])
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and len(node.args) == 1
            ):
                candidates.append(node.args[0])
            for candidate in candidates:
                if is_unordered(candidate):
                    found.append(
                        ctx.violation(
                            candidate,
                            self.rule_id,
                            "unordered set/dict-keys iteration feeds "
                            "ordered output; wrap the iterable in "
                            "sorted(...)",
                        )
                    )
                elif isinstance(candidate, (ast.GeneratorExp, ast.ListComp)):
                    first = candidate.generators[0].iter
                    if is_unordered(first):
                        found.append(
                            ctx.violation(
                                first,
                                self.rule_id,
                                "comprehension over an unordered "
                                "set/dict-keys feeds ordered output; "
                                "iterate sorted(...) instead",
                            )
                        )
