"""Recursive-descent parser for the SQL subset used in query logs.

The grammar covers ``SELECT`` statements with explicit and implicit
joins, derived tables, boolean predicate trees (AND/OR/NOT, IN,
BETWEEN, LIKE, IS NULL, EXISTS), grouping/having, ordering, LIMIT /
OFFSET, and ``UNION [ALL]`` — everything the feature extraction scheme
of Aligon et al. (and our regularizer) needs.

Parenthesized predicates vs. parenthesized arithmetic are disambiguated
with token-index backtracking: the parser snapshots its position,
attempts the predicate production, and rewinds on failure.  A failed
attempt is remembered by position, so nested ambiguous parentheses are
re-parsed as arithmetic without retrying each inner predicate (which
made backtracking exponential in the nesting depth).

Nesting is capped at :data:`MAX_NESTING` levels, so any input raises
:class:`~repro.sql.errors.ParseError` rather than overflowing Python's
recursion limit here or in the AST walkers downstream.

Usage::

    from repro.sql import parse
    stmt = parse("SELECT _id FROM Messages WHERE status = ?")
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

from . import ast
from .errors import ParseError
from .lexer import tokenize
from .tokens import Token, TokenKind

__all__ = ["Parser", "parse", "parse_many"]

_COMPARISON_OPS = frozenset({"=", "!=", "<", "<=", ">", ">="})

#: Deepest nesting a statement may have.  Each parenthesis, subquery,
#: CASE, CAST, function call, NOT or unary sign opens one level.  A
#: level costs at most 14 Python frames in this parser (a CASE nested
#: in a WHEN condition) and at most 3 in each AST walker (normalize,
#: regularize, extract), so a statement at the cap needs ~700 frames,
#: leaving a server handler thread's own stack room under the default
#: recursion limit of 1000.
MAX_NESTING = 50

_T = TypeVar("_T")


class Parser:
    """Parses one token stream into a :class:`repro.sql.ast.Statement`."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._index = 0
        self._param_count = 0
        self._depth = 0
        # Token indices where a parenthesized predicate failed to parse.
        self._failed_predicates: set[int] = set()

    # ------------------------------------------------------------------
    # token-stream helpers
    # ------------------------------------------------------------------
    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _error(self, message: str) -> ParseError:
        token = self._current
        return ParseError(message, token.position, token.value or "<eof>")

    def _advance(self) -> Token:
        token = self._current
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _accept_keyword(self, *names: str) -> Token | None:
        if self._current.is_keyword(*names):
            return self._advance()
        return None

    def _expect_keyword(self, name: str) -> Token:
        if not self._current.is_keyword(name):
            raise self._error(f"expected {name}")
        return self._advance()

    def _accept_punct(self, value: str) -> bool:
        if self._current.is_punct(value):
            self._advance()
            return True
        return False

    def _expect_punct(self, value: str) -> None:
        if not self._accept_punct(value):
            raise self._error(f"expected {value!r}")

    def _snapshot(self) -> tuple[int, int, int]:
        return self._index, self._param_count, self._depth

    def _rewind(self, snapshot: tuple[int, int, int]) -> None:
        self._index, self._param_count, self._depth = snapshot

    def _nested(self, parse: Callable[..., _T], *args: Any) -> _T:
        """Run *parse* one nesting level deeper.

        Called only where the grammar recurses, so flat statements pay
        nothing for the count.  Past :data:`MAX_NESTING` the statement
        is rejected outright: the error leaves the depth above the cap,
        which tells the backtracking in
        :meth:`_parse_predicate_primary` not to retry another way.
        """
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise self._error(f"nesting deeper than {MAX_NESTING} levels")
        result = parse(*args)
        self._depth -= 1
        return result

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def parse_statement(self) -> ast.Statement:
        """Parse one statement; trailing ``;`` and EOF are consumed."""
        statement = self._parse_set_expression()
        self._accept_punct(";")
        if self._current.kind is not TokenKind.EOF:
            raise self._error("unexpected trailing input")
        return statement

    def _parse_set_expression(self) -> ast.Statement:
        first = self._parse_select()
        selects = [first]
        is_all = False
        while self._accept_keyword("UNION"):
            if self._accept_keyword("ALL"):
                is_all = True
            else:
                self._accept_keyword("DISTINCT")
            selects.append(self._parse_select())
        if len(selects) == 1:
            return first
        return ast.Union(tuple(selects), all=is_all)

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def _parse_select(self) -> ast.Select:
        self._expect_keyword("SELECT")
        distinct = False
        if self._accept_keyword("DISTINCT"):
            distinct = True
        else:
            self._accept_keyword("ALL")
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())

        from_items: tuple[ast.TableRef, ...] = ()
        if self._accept_keyword("FROM"):
            refs = [self._parse_table_ref()]
            while self._accept_punct(","):
                refs.append(self._parse_table_ref())
            from_items = tuple(refs)

        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_predicate()

        group_by: tuple[ast.Expr, ...] = ()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            exprs = [self._parse_expression()]
            while self._accept_punct(","):
                exprs.append(self._parse_expression())
            group_by = tuple(exprs)

        having = None
        if self._accept_keyword("HAVING"):
            having = self._parse_predicate()

        order_by: tuple[ast.OrderItem, ...] = ()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            keys = [self._parse_order_item()]
            while self._accept_punct(","):
                keys.append(self._parse_order_item())
            order_by = tuple(keys)

        limit = offset = None
        if self._accept_keyword("LIMIT"):
            limit = self._parse_integer("LIMIT")
            if self._accept_keyword("OFFSET"):
                offset = self._parse_integer("OFFSET")

        return ast.Select(
            items=tuple(items),
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_integer(self, clause: str) -> int:
        token = self._current
        if token.kind is not TokenKind.NUMBER:
            raise self._error(f"expected integer after {clause}")
        self._advance()
        try:
            return int(token.value)
        except ValueError as exc:
            raise self._error(f"{clause} must be an integer") from exc

    def _parse_select_item(self) -> ast.SelectItem:
        if self._current.is_operator("*"):
            self._advance()
            return ast.SelectItem(ast.Star())
        # ``table.*``
        if self._current.kind is TokenKind.IDENT:
            snapshot = self._snapshot()
            name = self._advance().value
            if self._accept_punct("."):
                if self._current.is_operator("*"):
                    self._advance()
                    return ast.SelectItem(ast.Star(table=name))
            self._rewind(snapshot)
        expr = self._parse_expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier("alias")
        elif self._current.kind is TokenKind.IDENT:
            alias = self._advance().value
        return ast.SelectItem(expr, alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self._parse_expression()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expr, descending)

    def _expect_identifier(self, what: str) -> str:
        if self._current.kind is not TokenKind.IDENT:
            raise self._error(f"expected {what}")
        return self._advance().value

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------
    def _parse_table_ref(self) -> ast.TableRef:
        left = self._parse_table_primary()
        while True:
            join_type = self._peek_join_type()
            if join_type is None:
                return left
            right = self._parse_table_primary()
            condition = None
            if self._accept_keyword("ON"):
                condition = self._parse_predicate()
            left = ast.Join(left, right, join_type, condition)

    def _peek_join_type(self) -> str | None:
        """Consume a join prefix and return its type, or ``None``."""
        if self._accept_keyword("JOIN"):
            return ast.JoinType.INNER
        if self._accept_keyword("INNER"):
            self._expect_keyword("JOIN")
            return ast.JoinType.INNER
        if self._accept_keyword("CROSS"):
            self._expect_keyword("JOIN")
            return ast.JoinType.CROSS
        for name, join_type in (
            ("LEFT", ast.JoinType.LEFT),
            ("RIGHT", ast.JoinType.RIGHT),
            ("FULL", ast.JoinType.FULL),
        ):
            if self._accept_keyword(name):
                self._accept_keyword("OUTER")
                self._expect_keyword("JOIN")
                return join_type
        return None

    def _parse_table_primary(self) -> ast.TableRef:
        if self._accept_punct("("):
            if self._current.is_keyword("SELECT"):
                select = self._nested(self._parse_select)
                self._expect_punct(")")
                alias = self._parse_optional_alias()
                return ast.SubqueryTable(select, alias)
            ref = self._nested(self._parse_table_ref)
            self._expect_punct(")")
            return ref
        name = self._expect_identifier("table name")
        # Allow schema-qualified names: keep the dotted form as the name.
        while self._accept_punct("."):
            name = f"{name}.{self._expect_identifier('table name part')}"
        alias = self._parse_optional_alias()
        return ast.NamedTable(name, alias)

    def _parse_optional_alias(self) -> str | None:
        if self._accept_keyword("AS"):
            return self._expect_identifier("alias")
        if self._current.kind is TokenKind.IDENT:
            return self._advance().value
        return None

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def _parse_predicate(self) -> ast.Predicate:
        return self._parse_or()

    def _parse_or(self) -> ast.Predicate:
        operands = [self._parse_and()]
        while self._accept_keyword("OR"):
            operands.append(self._parse_and())
        if len(operands) == 1:
            return operands[0]
        return ast.Or(tuple(operands))

    def _parse_and(self) -> ast.Predicate:
        operands = [self._parse_not()]
        while self._accept_keyword("AND"):
            operands.append(self._parse_not())
        if len(operands) == 1:
            return operands[0]
        return ast.And(tuple(operands))

    def _parse_not(self) -> ast.Predicate:
        if self._accept_keyword("NOT"):
            return ast.Not(self._nested(self._parse_not))
        return self._parse_predicate_primary()

    def _parse_predicate_primary(self) -> ast.Predicate:
        if self._current.is_keyword("EXISTS"):
            self._advance()
            self._expect_punct("(")
            subquery = self._nested(self._parse_select)
            self._expect_punct(")")
            return ast.Exists(subquery)
        if self._current.is_keyword("TRUE", "FALSE"):
            value = self._advance().value == "TRUE"
            # A bare boolean may still be compared: ``TRUE = TRUE`` is
            # not produced by our logs, so keep it simple.
            return ast.BoolLiteral(value)
        if (
            self._current.is_punct("(")
            and self._index not in self._failed_predicates
        ):
            # Try a parenthesized predicate first; rewind to parse as a
            # parenthesized arithmetic expression on failure.
            snapshot = self._snapshot()
            self._advance()
            try:
                inner = self._nested(self._parse_or)
                self._expect_punct(")")
            except ParseError:
                if self._depth > MAX_NESTING:
                    raise
                self._rewind(snapshot)
                self._failed_predicates.add(self._index)
            else:
                return inner
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Predicate:
        left = self._parse_expression()
        token = self._current
        if token.kind is TokenKind.OPERATOR and token.value in _COMPARISON_OPS:
            self._advance()
            right = self._parse_expression()
            return ast.Comparison(token.value, left, right)
        if self._accept_keyword("IS"):
            negated = bool(self._accept_keyword("NOT"))
            self._expect_keyword("NULL")
            return ast.IsNull(left, negated)
        negated = bool(self._accept_keyword("NOT"))
        if self._accept_keyword("IN"):
            return self._parse_in_tail(left, negated)
        if self._accept_keyword("BETWEEN"):
            low = self._parse_expression()
            self._expect_keyword("AND")
            high = self._parse_expression()
            return ast.Between(left, low, high, negated)
        if self._accept_keyword("LIKE"):
            pattern = self._parse_expression()
            return ast.Like(left, pattern, negated)
        if negated:
            raise self._error("expected IN, BETWEEN, or LIKE after NOT")
        raise self._error("expected a predicate")

    def _parse_in_tail(self, operand: ast.Expr, negated: bool) -> ast.Predicate:
        self._expect_punct("(")
        if self._current.is_keyword("SELECT"):
            subquery = self._nested(self._parse_select)
            self._expect_punct(")")
            return ast.InSubquery(operand, subquery, negated)
        items = [self._parse_expression()]
        while self._accept_punct(","):
            items.append(self._parse_expression())
        self._expect_punct(")")
        return ast.InList(operand, tuple(items), negated)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _parse_expression(self) -> ast.Expr:
        return self._parse_concat()

    def _parse_concat(self) -> ast.Expr:
        left = self._parse_additive()
        while self._current.is_operator("||"):
            self._advance()
            right = self._parse_additive()
            left = ast.BinaryOp("||", left, right)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._current.is_operator("+", "-"):
            op = self._advance().value
            right = self._parse_multiplicative()
            left = ast.BinaryOp(op, left, right)
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self._current.is_operator("*", "/", "%"):
            op = self._advance().value
            right = self._parse_unary()
            left = ast.BinaryOp(op, left, right)
        return left

    def _parse_unary(self) -> ast.Expr:
        if self._current.is_operator("-", "+"):
            op = self._advance().value
            return ast.UnaryOp(op, self._nested(self._parse_unary))
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._current
        if token.kind is TokenKind.NUMBER:
            self._advance()
            value: int | float
            try:
                value = int(token.value)
            except ValueError:
                value = float(token.value)
            return ast.Literal(value)
        if token.kind is TokenKind.STRING:
            self._advance()
            return ast.Literal(token.value)
        if token.kind is TokenKind.PARAM:
            self._advance()
            self._param_count += 1
            return ast.Parameter(self._param_count)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("CASE"):
            return self._nested(self._parse_case)
        if token.is_keyword("CAST"):
            return self._nested(self._parse_cast)
        if token.kind is TokenKind.IDENT:
            return self._parse_name_or_call()
        if token.is_punct("("):
            self._advance()
            expr = self._nested(self._parse_expression)
            self._expect_punct(")")
            return expr
        raise self._error("expected an expression")

    def _parse_case(self) -> ast.Expr:
        self._expect_keyword("CASE")
        whens: list[ast.WhenClause] = []
        while self._accept_keyword("WHEN"):
            condition = self._parse_predicate()
            self._expect_keyword("THEN")
            result = self._parse_expression()
            whens.append(ast.WhenClause(condition, result))
        if not whens:
            raise self._error("CASE requires at least one WHEN")
        else_result = None
        if self._accept_keyword("ELSE"):
            else_result = self._parse_expression()
        self._expect_keyword("END")
        return ast.CaseExpr(tuple(whens), else_result)

    def _parse_cast(self) -> ast.Expr:
        self._expect_keyword("CAST")
        self._expect_punct("(")
        operand = self._parse_expression()
        self._expect_keyword("AS")
        type_name = self._expect_identifier("type name")
        # Optional type arguments such as VARCHAR(32).
        if self._accept_punct("("):
            args = [self._parse_integer("type argument")]
            while self._accept_punct(","):
                args.append(self._parse_integer("type argument"))
            self._expect_punct(")")
            type_name = f"{type_name}({','.join(str(a) for a in args)})"
        self._expect_punct(")")
        return ast.CastExpr(operand, type_name)

    def _parse_name_or_call(self) -> ast.Expr:
        name = self._advance().value
        if self._accept_punct("("):
            return self._nested(self._parse_call_tail, name)
        if self._accept_punct("."):
            column = self._expect_identifier("column name")
            return ast.ColumnRef(column, table=name)
        return ast.ColumnRef(name)

    def _parse_call_tail(self, name: str) -> ast.Expr:
        distinct = bool(self._accept_keyword("DISTINCT"))
        if self._accept_punct(")"):
            return ast.FuncCall(name, (), distinct)
        args: list[ast.Expr] = []
        if self._current.is_operator("*"):
            self._advance()
            args.append(ast.Star())
        else:
            args.append(self._parse_expression())
        while self._accept_punct(","):
            args.append(self._parse_expression())
        self._expect_punct(")")
        return ast.FuncCall(name, tuple(args), distinct)


def parse(text: str) -> ast.Statement:
    """Parse a single SQL statement from *text*."""
    return Parser(tokenize(text)).parse_statement()


def parse_many(texts: list[str] | tuple[str, ...]) -> list[ast.Statement]:
    """Parse each string in *texts*, propagating the first error."""
    return [parse(text) for text in texts]
