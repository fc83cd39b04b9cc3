"""Concurrency rules: PAR01 (spawn-pickle hazards), LOCK01 (lock
discipline), ASYNC01 (no blocking calls on the event loop).

Three invariants from the parallel/service layers:

* every payload handed to an executor must survive a spawn-start
  process boundary — lambdas, nested functions and bound methods do
  not pickle by reference (PR 3's ``core/executor.py`` contract);
* the service layer's shared mutable state follows
  lock-free-snapshot / lock-guarded-mutation discipline: attributes
  declared ``# guarded-by: <lock>`` may only be touched inside
  ``with self.<lock>:`` (PR 2/4's server/store/windows contract);
* ``async def`` bodies in the service layer never call blocking
  primitives — one stalled coroutine freezes every connection on the
  event loop (the ``repro.service.aserver`` contract).
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePath

from ..engine import FileContext, Rule, Violation

__all__ = ["SpawnUnsafeCallable", "GuardedByDiscipline", "BlockingCallInAsync"]

#: Executor/pool entry points whose first argument is the mapped callable.
_EXECUTOR_METHODS = frozenset(
    {"map", "submit", "imap", "imap_unordered", "starmap", "apply_async"}
)

_GUARDED_BY_RE = re.compile(r"#.*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")
_HOLDS_RE = re.compile(r"#\s*holds:\s*([A-Za-z0-9_,\s]+)")


class SpawnUnsafeCallable(Rule):
    """PAR01 — executor payloads must pickle by reference.

    Invariant: the process executor uses the ``spawn`` start method
    whenever other threads are alive (fork duplicates their held
    locks), and spawn pickles the mapped callable *by qualified name*.  A lambda, a function nested
    inside another function, or a bound instance method (``self.fn``)
    either fails to pickle outright or drags the whole enclosing object
    graph across the process boundary.  Only module-level functions
    (plus picklable payload tuples) are spawn-safe — which is exactly
    how every pipeline stage ships its work today.

    The check flags a callable argument to ``*.map`` / ``*.submit``
    (and the other pool entry points) that is provably unsafe: a
    ``lambda``, a name bound to a nested ``def`` in an enclosing
    function scope, or a ``self.<method>`` reference — including any
    of those wrapped in ``functools.partial``.  Names it cannot resolve
    (parameters, module-level functions) pass.

    Witnessed dynamically by the spawn-executor determinism tests in
    ``tests/core/test_executor.py`` (process executor × worker counts).
    """

    rule_id = "PAR01"
    invariant = (
        "callables handed to Executor.map/submit must be module-level "
        "(spawn-picklable); no lambdas, nested defs, or bound methods"
    )
    witness = "tests/core/test_executor.py"

    def check(self, ctx: FileContext) -> list[Violation]:
        found: list[Violation] = []
        self._walk(ctx, ctx.tree, [], found)
        return found

    # -- helpers ---------------------------------------------------------
    def _local_defs(self, fn: ast.AST) -> set[str]:
        """Function names bound directly in *fn*'s scope."""
        names: set[str] = set()
        stack = list(getattr(fn, "body", []))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
                continue  # its internals are a different scope
            if isinstance(node, ast.ClassDef):
                continue
            stack.extend(ast.iter_child_nodes(node))
        return names

    def _walk(
        self,
        ctx: FileContext,
        node: ast.AST,
        scopes: list[set[str]],
        found: list[Violation],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes = scopes + [self._local_defs(node)]
        elif isinstance(node, ast.Call):
            self._check_call(ctx, node, scopes, found)
        for child in ast.iter_child_nodes(node):
            self._walk(ctx, child, scopes, found)

    def _check_call(
        self,
        ctx: FileContext,
        node: ast.Call,
        scopes: list[set[str]],
        found: list[Violation],
    ) -> None:
        if not (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _EXECUTOR_METHODS
            and node.args
        ):
            return
        self._check_callable(ctx, node.args[0], scopes, found)

    def _check_callable(
        self,
        ctx: FileContext,
        candidate: ast.expr,
        scopes: list[set[str]],
        found: list[Violation],
    ) -> None:
        if isinstance(candidate, ast.Lambda):
            found.append(
                ctx.violation(
                    candidate,
                    self.rule_id,
                    "lambda handed to an executor cannot be pickled under "
                    "the spawn start method; hoist it to a module-level "
                    "function taking a payload tuple",
                )
            )
        elif isinstance(candidate, ast.Name) and any(
            candidate.id in scope for scope in scopes
        ):
            found.append(
                ctx.violation(
                    candidate,
                    self.rule_id,
                    f"nested function `{candidate.id}` handed to an "
                    "executor cannot be pickled under spawn; hoist it to "
                    "module level",
                )
            )
        elif (
            isinstance(candidate, ast.Attribute)
            and isinstance(candidate.value, ast.Name)
            and candidate.value.id == "self"
        ):
            found.append(
                ctx.violation(
                    candidate,
                    self.rule_id,
                    f"bound method `self.{candidate.attr}` handed to an "
                    "executor pickles the whole instance (or fails under "
                    "spawn); use a module-level function over an explicit "
                    "payload",
                )
            )
        elif isinstance(candidate, ast.Call):
            qual = ctx.imports.resolve(candidate.func)
            if qual == "functools.partial" and candidate.args:
                self._check_callable(ctx, candidate.args[0], scopes, found)


class GuardedByDiscipline(Rule):
    """LOCK01 — ``# guarded-by:`` attributes stay inside their lock.

    Invariant: the service layer separates lock-free snapshot *reads*
    (an atomic reference load of an immutable object) from lock-guarded
    *mutation* of live state.  The mutable side is declared in source:
    an attribute assignment carrying ``# guarded-by: <lockname>``
    registers ``<receiver>.<attr>`` as owned by ``<receiver>.
    <lockname>``.  Every other read or write of that attribute in the
    file must then sit lexically inside ``with <receiver>.<lockname>:``
    on the *same receiver name* (multi-item ``with`` forms count) —
    ``self._cache`` under ``with self._cache_lock:``, but equally a
    record type's fields (``slot.pending`` under ``with slot.lock:``)
    declared in one class and driven from another.  Two sanctioned
    escapes:

    * ``__init__`` is exempt — construction happens-before publication;
    * a function whose ``def`` line carries ``# holds: <lockname>``
      documents a caller-holds-the-lock contract and is treated as if
      its whole body were inside the ``with`` (for any receiver of
      that lock name).

    The rule is self-scoping: files with no ``guarded-by`` declarations
    are untouched.  It is a lexical race detector, not an escape
    analysis — aliasing a guarded attribute out of the lock region
    defeats it — but it catches the overwhelmingly common bug: a new
    code path touching registered state with no lock in sight.

    Witnessed dynamically by the torn-read concurrency tests in
    ``tests/service/test_server.py`` (and the slow soak variants).
    """

    rule_id = "LOCK01"
    invariant = (
        "attributes declared `# guarded-by: <lock>` are only accessed "
        "inside `with <receiver>.<lock>:` on the same receiver (or "
        "under a `# holds: <lock>` caller-contract)"
    )
    witness = "tests/service/test_server.py"

    def check(self, ctx: FileContext) -> list[Violation]:
        # File-global registry: guarded fields may be declared in one
        # class (a slot/record type) and accessed from another (its
        # owning pool/service), so declarations merge across the file.
        registry: dict[str, str] = {}
        declaration_lines: set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                class_registry, lines = self._registry(ctx, node)
                registry.update(class_registry)
                declaration_lines.update(lines)
        if not registry:
            return []
        found: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                self._check_class(
                    ctx, node, registry, declaration_lines, found
                )
        return found

    # -- helpers ---------------------------------------------------------
    def _registry(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> tuple[dict[str, str], set[int]]:
        """``attr -> lockname`` declarations in *cls*, plus their lines."""
        registry: dict[str, str] = {}
        lines: set[int] = set()
        for node in ast.walk(cls):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            comment = ctx.comments.get(node.lineno, "") or ctx.comments.get(
                getattr(node, "end_lineno", node.lineno), ""
            )
            match = _GUARDED_BY_RE.search(comment)
            if match is None:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    registry[target.attr] = match.group(1)
                    lines.add(node.lineno)
                    lines.add(getattr(node, "end_lineno", node.lineno))
        return registry, lines

    def _held_on_def(self, ctx: FileContext, fn: ast.AST) -> set[tuple[str, str]]:
        """Locks declared held by a ``# holds:`` def-line contract.

        Holds-contracts are receiver-agnostic (the wildcard ``"*"``):
        the caller asserts *that lock name* is held, whichever object
        carries it.
        """
        held: set[tuple[str, str]] = set()
        start = fn.lineno
        end = fn.body[0].lineno if getattr(fn, "body", None) else start
        for line in range(start, end + 1):
            match = _HOLDS_RE.search(ctx.comments.get(line, ""))
            if match is not None:
                held.update(
                    ("*", name.strip())
                    for name in match.group(1).split(",")
                    if name.strip()
                )
        return held

    def _with_locks(self, item: ast.withitem) -> tuple[str, str] | None:
        """The ``(receiver, lock)`` a ``with`` item acquires, if any."""
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            expr = expr.func
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            return (expr.value.id, expr.attr)
        return None

    def _check_class(
        self,
        ctx: FileContext,
        cls: ast.ClassDef,
        registry: dict[str, str],
        declaration_lines: set[int],
        found: list[Violation],
    ) -> None:
        for node in cls.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name == "__init__":
                continue  # construction happens-before publication
            held = self._held_on_def(ctx, node)
            for statement in node.body:
                self._visit(
                    ctx, statement, registry, declaration_lines, held, found
                )

    def _visit(
        self,
        ctx: FileContext,
        node: ast.AST,
        registry: dict[str, str],
        declaration_lines: set[int],
        held: set[tuple[str, str]],
        found: list[Violation],
    ) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = set(held)
            for item in node.items:
                self._visit(
                    ctx,
                    item.context_expr,
                    registry,
                    declaration_lines,
                    held,
                    found,
                )
                lock = self._with_locks(item)
                if lock is not None:
                    inner.add(lock)
            for statement in node.body:
                self._visit(
                    ctx, statement, registry, declaration_lines, inner, found
                )
            return
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.attr in registry
            and node.lineno not in declaration_lines
        ):
            receiver = node.value.id
            lock = registry[node.attr]
            if (receiver, lock) not in held and ("*", lock) not in held:
                found.append(
                    ctx.violation(
                        node,
                        self.rule_id,
                        f"`{receiver}.{node.attr}` is declared `# guarded-by: "
                        f"{lock}` but is accessed outside `with "
                        f"{receiver}.{lock}:` (annotate the def with `# holds: "
                        f"{lock}` if the caller holds it)",
                    )
                )
        for child in ast.iter_child_nodes(node):
            self._visit(
                ctx, child, registry, declaration_lines, held, found
            )


#: Fully-qualified callables that block the calling thread.  Resolved
#: through the import map, so aliases (`from time import sleep`) and
#: module renames (`import requests as rq`) are still caught.
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "socket.socket",
        "socket.create_connection",
        "socket.getaddrinfo",
        "urllib.request.urlopen",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "open",
        "io.open",
    }
)

#: Any call into these packages blocks (sync HTTP clients).
_BLOCKING_MODULES = ("requests",)

#: Sync file-I/O helper methods (``Path.read_text`` & friends): flagged
#: by attribute name, since instance receivers have no import alias.
_BLOCKING_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)


class BlockingCallInAsync(Rule):
    """ASYNC01 — service-layer coroutines never block the event loop.

    Invariant: the asyncio front end (``repro.service.aserver``) runs
    every connection on ONE event loop thread; a single blocking call
    inside an ``async def`` — ``time.sleep``, a raw ``socket``
    connect, a sync HTTP client, direct file I/O — stalls every other
    connection for its full duration, silently converting the
    concurrent server back into a serial one.  Blocking work belongs
    behind ``await``: ``asyncio.sleep``, asyncio streams, or
    ``loop.run_in_executor`` for sync handlers (which is exactly how
    the server dispatches store I/O and recompression today).

    The check walks ``async def`` bodies in ``service/`` files and
    flags calls whose import-resolved target is a known blocking
    primitive (the table above), any ``requests.*`` call, the ``open``
    builtin, or a ``read_text``/``write_text``-style sync file helper.
    Nested ``def``/``async def`` bodies are separate execution
    contexts (executor payloads, handlers) and are not attributed to
    the enclosing coroutine.

    Witnessed dynamically by the concurrency tests in
    ``tests/service/test_aserver.py`` (batching under concurrent load,
    backpressure, shutdown drain) — all of which deadlock or time out
    if the loop blocks.
    """

    rule_id = "ASYNC01"
    invariant = (
        "async def bodies in service/ never call blocking primitives "
        "(time.sleep, raw sockets, sync HTTP, sync file I/O); use the "
        "asyncio equivalent or loop.run_in_executor"
    )
    witness = "tests/service/test_aserver.py"

    def applies_to(self, path: PurePath) -> bool:
        return "service" in path.parts

    def check(self, ctx: FileContext) -> list[Violation]:
        found: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                for statement in node.body:
                    self._visit(ctx, statement, found)
        return found

    # -- helpers ---------------------------------------------------------
    def _visit(
        self, ctx: FileContext, node: ast.AST, found: list[Violation]
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # a different execution context (outer walk re-visits)
        if isinstance(node, ast.Call):
            self._check_call(ctx, node, found)
        for child in ast.iter_child_nodes(node):
            self._visit(ctx, child, found)

    def _check_call(
        self, ctx: FileContext, node: ast.Call, found: list[Violation]
    ) -> None:
        qual = ctx.imports.resolve(node.func)
        if qual is not None:
            root = qual.split(".", 1)[0]
            if qual in _BLOCKING_CALLS or root in _BLOCKING_MODULES:
                found.append(
                    ctx.violation(
                        node,
                        self.rule_id,
                        f"blocking call `{qual}` inside `async def` stalls "
                        "the whole event loop; await the asyncio "
                        "equivalent or dispatch via loop.run_in_executor",
                    )
                )
                return
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _BLOCKING_METHODS
        ):
            found.append(
                ctx.violation(
                    node,
                    self.rule_id,
                    f"sync file I/O `.{node.func.attr}(...)` inside "
                    "`async def` blocks the event loop; dispatch it via "
                    "loop.run_in_executor",
                )
            )
