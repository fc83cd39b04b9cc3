"""Fuzzing the SQL front end: hostile text is unparseable, never a crash.

Every caller of the front end — ``load_log``, the ingestors, the
monitor behind ``/score`` — catches :class:`~repro.sql.errors.SqlError`
and counts the statement as unparseable.  Any other exception escaping
``fingerprint``, the extractor or the feature cache takes the whole
log load or request batch down with it.  Three input families:
arbitrary printable text, soup of the grammar's own tokens, and
statements nested up to well past the parser's cap through random
chains of its recursive productions.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.featurecache import FeatureCache
from repro.sql import AligonExtractor
from repro.sql.errors import SqlError
from repro.sql.fingerprint import fingerprint
from repro.sql.parser import MAX_NESTING
from repro.workloads.logio import EmptyLogError, load_log

_TOKENS = [
    "SELECT", "DISTINCT", "ALL", "FROM", "WHERE", "GROUP", "BY", "HAVING",
    "ORDER", "ASC", "DESC", "LIMIT", "OFFSET", "UNION", "JOIN", "INNER",
    "LEFT", "OUTER", "CROSS", "ON", "AS", "AND", "OR", "NOT", "IN",
    "EXISTS", "BETWEEN", "LIKE", "IS", "NULL", "TRUE", "FALSE", "CASE",
    "WHEN", "THEN", "ELSE", "END", "CAST", "EXEC", "CALL",
    "a", "b", "t", "u", "t.a", "count", "f", "\"q\"",
    "0", "1", "2.5", "'x'", "''", "?",
    "(", ")", ",", ".", ";", "*", "+", "-", "/", "%", "||",
    "=", "!=", "<>", "<", "<=", ">", ">=",
    "--", "/*", "*/", "\n",
]

printable_text = st.text(
    alphabet=st.characters(min_codepoint=9, max_codepoint=0x2FF), max_size=120
)
token_soup = st.lists(st.sampled_from(_TOKENS), max_size=40).map(" ".join)

#: Wrappers around a predicate, around an expression, and around a
#: whole statement: each opens one or more nesting levels.
_PREDICATE_NESTS = [
    "NOT {}",
    "({})",
    "EXISTS (SELECT a FROM t WHERE {})",
    "a IN (SELECT a FROM t WHERE {})",
    "CASE WHEN {} THEN 1 END = 1",
    "({}) OR b = 2",
    "b = 2 AND ({})",
]
_EXPRESSION_NESTS = [
    "({})",
    "- {}",
    "f({})",
    "CAST({} AS int)",
    "CASE WHEN a = 1 THEN {} ELSE 0 END",
    "1 + ({})",
]
_STATEMENT_NESTS = ["SELECT a FROM ({}) x", "SELECT * FROM ({}) AS y"]


def _nest(draw, core: str, wrappers: list[str]) -> str:
    """Wrap *core* in a random chain of up to 4x the cap of *wrappers*."""
    depth = draw(st.integers(0, 4 * MAX_NESTING))
    chain = draw(st.lists(st.sampled_from(wrappers), min_size=depth, max_size=depth))
    for wrapper in chain:
        core = wrapper.format(core)
    return core


@st.composite
def nested_statements(draw):
    """A statement nested through expressions, then predicates, then
    FROM subqueries — each chain up to well past the parser's cap."""
    expression = _nest(
        draw, draw(st.sampled_from(["a", "1", "?", "'s'", "count(*)"])),
        _EXPRESSION_NESTS,
    )
    predicate = _nest(
        draw,
        expression + draw(st.sampled_from([" = 1", " IN (1, 2)", " IS NULL"])),
        _PREDICATE_NESTS,
    )
    return _nest(draw, "SELECT a FROM t WHERE " + predicate, _STATEMENT_NESTS)


hostile_sql = st.one_of(printable_text, token_soup, nested_statements())


def _returns_or_raises_sql_error(fn, statement):
    try:
        fn(statement)
    except SqlError:
        pass


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(statement=hostile_sql)
def test_front_end_returns_or_raises_sql_error(statement):
    extractor = AligonExtractor(remove_constants=True)
    _returns_or_raises_sql_error(fingerprint, statement)
    _returns_or_raises_sql_error(extractor.extract, statement)
    _returns_or_raises_sql_error(FeatureCache(extractor).lookup, statement)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(statements=st.lists(hostile_sql, max_size=4))
def test_load_log_returns_or_raises_empty_log_error(statements):
    try:
        log, report = load_log(statements)
    except EmptyLogError:
        return
    assert report.total_statements == len(statements)
    assert report.usable == log.total
