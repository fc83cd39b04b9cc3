"""Numeric-hygiene rules: FLOAT01 (exact float equality in core/).

Summary algebra (merge, scale, subtract, consolidate) is floating-point
throughout; the property tests assert equality *up to tolerance*
(``np.isclose`` / ``atol``).  An exact ``==`` between float expressions
inside ``core/`` is either a bug waiting for a rounding mode to change,
or an intentional exact-identity fast path — which must say so in a
suppression justification.
"""

from __future__ import annotations

import ast
from pathlib import PurePath

from ..engine import FileContext, Rule, Violation

__all__ = ["FloatEquality"]


class FloatEquality(Rule):
    """FLOAT01 — no ``==`` / ``!=`` between float-typed expressions.

    Invariant: numeric comparisons in ``core/`` use tolerances
    (``np.isclose``, explicit ``atol``) or inequalities; exact equality
    on floats silently flips when an accumulation order, a BLAS build,
    or a kernel rewrite changes the low bits.  The check is heuristic —
    it flags comparisons where an operand is provably float-typed (a
    float literal, a ``float(...)`` / ``np.float64(...)`` call, or an
    arithmetic expression containing one) — so it cannot see every
    float comparison, but it has no false negatives on the common
    ``x == 0.0`` shape.

    Witnessed dynamically by the tolerance-based algebra laws in
    ``tests/core/test_mixture_algebra.py``.
    """

    rule_id = "FLOAT01"
    invariant = (
        "no ==/!= between float-typed expressions in core/ numeric "
        "code; compare with np.isclose or an explicit tolerance"
    )
    witness = "tests/core/test_mixture_algebra.py"

    _FLOAT_CALLS = frozenset(
        {"float", "numpy.float64", "numpy.float32", "numpy.float16"}
    )

    def applies_to(self, path: PurePath) -> bool:
        return "core" in path.parts

    def check(self, ctx: FileContext) -> list[Violation]:
        found = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_floaty(left, ctx) or self._is_floaty(right, ctx):
                    found.append(
                        ctx.violation(
                            node,
                            self.rule_id,
                            "exact ==/!= on a float-typed expression; use "
                            "np.isclose / an explicit tolerance (or justify "
                            "an exact-identity fast path in a suppression)",
                        )
                    )
                    break
        return found

    def _is_floaty(self, node: ast.AST, ctx: FileContext) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.UnaryOp):
            return self._is_floaty(node.operand, ctx)
        if isinstance(node, ast.BinOp):
            return self._is_floaty(node.left, ctx) or self._is_floaty(
                node.right, ctx
            )
        if isinstance(node, ast.Call):
            return ctx.imports.resolve(node.func) in self._FLOAT_CALLS
        return False
