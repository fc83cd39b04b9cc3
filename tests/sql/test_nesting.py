"""The parser's nesting cap: deep statements are unparseable, not crashes.

Recursive descent spends Python frames per nesting level, so without a
cap a few hundred nested parentheses (a ~500-byte statement) overflow
the recursion limit with ``RecursionError`` — which no caller catches,
since every one of them expects :class:`~repro.sql.errors.SqlError`.
"""

from __future__ import annotations

import pytest

from repro.sql import AligonExtractor, parse
from repro.sql.errors import ParseError
from repro.sql.parser import MAX_NESTING, Parser
from repro.workloads.logio import load_log

#: One statement per recursive production, nested *depth* levels deep.
SHAPES = {
    "where-parens": lambda d: "SELECT a FROM t WHERE " + "(" * d + "a = 1" + ")" * d,
    "in-subquery": lambda d: (
        "SELECT a FROM t WHERE "
        + "a IN (SELECT a FROM t WHERE " * d
        + "a = 1"
        + ")" * d
    ),
    "exists": lambda d: (
        "SELECT a FROM t WHERE "
        + "EXISTS (SELECT a FROM t WHERE " * d
        + "a = 1"
        + ")" * d
    ),
    "select-parens": lambda d: "SELECT " + "(" * d + "a" + ")" * d + " FROM t",
    "case-then": lambda d: (
        "SELECT " + "CASE WHEN a = 1 THEN " * d + "1" + " END" * d + " FROM t"
    ),
    "case-when": lambda d: (
        "SELECT "
        + "CASE WHEN " * d
        + "a = 1"
        + " THEN 1 END = 1" * (d - 1)
        + " THEN 1 END FROM t"
    ),
    "from-subquery": lambda d: (
        "SELECT a FROM " + "(SELECT a FROM " * d + "t" + ") x" * d
    ),
    "table-parens": lambda d: "SELECT a FROM " + "(" * d + "t" + ")" * d,
    "function-call": lambda d: "SELECT " + "f(" * d + "a" + ")" * d + " FROM t",
    "cast": lambda d: "SELECT " + "CAST(" * d + "a" + " AS int)" * d + " FROM t",
    "not": lambda d: "SELECT a FROM t WHERE " + "NOT " * d + "a = 1",
    "unary-minus": lambda d: "SELECT " + "- " * d + "a FROM t",
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestNestingCap:
    def test_depth_1000_raises_parse_error(self, shape):
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse(SHAPES[shape](1000))

    def test_one_past_the_cap_raises_parse_error(self, shape):
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse(SHAPES[shape](MAX_NESTING + 1))

    def test_at_the_cap_still_extracts(self, shape):
        features = AligonExtractor(remove_constants=True).extract_merged(
            SHAPES[shape](MAX_NESTING)
        )
        assert features


def test_load_log_counts_a_deep_statement_as_unparseable():
    deep = SHAPES["where-parens"](1000)
    log, report = load_log(["SELECT a FROM t", deep, "SELECT b FROM u"])
    assert report.parsed == 2
    assert report.unparseable == 1
    assert log.total == 2


def test_ambiguous_parentheses_do_not_backtrack_exponentially(monkeypatch):
    """``(CASE WHEN (CASE WHEN … END) = 1 …`` is read as a predicate
    first at every level and re-read as arithmetic; a failed predicate
    attempt is remembered, so the work grows polynomially with depth
    (retrying each level from scratch made it ~2^depth)."""
    calls = 0
    parse_or = Parser._parse_or

    def counting(self):
        nonlocal calls
        calls += 1
        return parse_or(self)

    monkeypatch.setattr(Parser, "_parse_or", counting)
    depth = 12
    statement = (
        "SELECT a FROM t WHERE "
        + "(CASE WHEN " * depth
        + "a = 1"
        + " THEN 1 END) = 1" * depth
    )
    parse(statement)
    assert calls < 20 * depth
