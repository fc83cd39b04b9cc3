"""Token model for the SQL lexer.

The lexer produces a flat list of :class:`Token` objects.  Token kinds
are deliberately coarse — the recursive-descent parser in
:mod:`repro.sql.parser` disambiguates keywords by value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["TokenKind", "Token", "KEYWORDS"]


class TokenKind(enum.Enum):
    """Lexical categories recognised by :func:`repro.sql.lexer.tokenize`."""

    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    PARAM = "param"  # a positional JDBC-style parameter: ``?``
    OPERATOR = "operator"
    PUNCT = "punct"  # ( ) , . ;
    EOF = "eof"


#: Reserved words.  Matching is case-insensitive; the lexer stores the
#: upper-cased form in :attr:`Token.value` for KEYWORD tokens.
KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "HAVING",
        "LIMIT", "OFFSET", "AS", "ON", "AND", "OR", "NOT", "IN",
        "BETWEEN", "LIKE", "IS", "NULL", "DISTINCT", "ALL", "UNION",
        "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER", "CROSS",
        "ASC", "DESC", "CASE", "WHEN", "THEN", "ELSE", "END", "EXISTS",
        "CAST", "TRUE", "FALSE", "INTERSECT", "EXCEPT",
    }
)


@dataclass(frozen=True)
class Token:
    """One lexical token.

    Attributes:
        kind: the :class:`TokenKind` category.
        value: normalized text (keywords upper-cased, identifiers kept
            verbatim, strings without their quotes).
        position: byte offset of the token start in the source text.
        line: 1-based source line.
        column: 1-based source column.
    """

    kind: TokenKind
    value: str
    position: int = 0
    line: int = 1
    column: int = 1

    def is_keyword(self, *names: str) -> bool:
        """True when this token is one of the given keywords."""
        return self.kind is TokenKind.KEYWORD and self.value in names

    def is_punct(self, value: str) -> bool:
        """True when this token is the given punctuation character."""
        return self.kind is TokenKind.PUNCT and self.value == value

    def is_operator(self, *values: str) -> bool:
        """True when this token is one of the given operator spellings."""
        return self.kind is TokenKind.OPERATOR and self.value in values

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind.value}:{self.value}"
