"""The SQL lexical grammar and the tokenizer that folds over it.

Supports the SQL subset used by the query logs the paper analyses:
identifiers (bare, ``"quoted"``, and ``` `backtick` ``` styles), string
and numeric literals, JDBC ``?`` parameters, line (``--``) and block
(``/* */``) comments, and the usual operator/punctuation set.

:data:`TOKEN_RE` states that grammar once.  :func:`tokenize` folds its
matches into :class:`~repro.sql.tokens.Token` objects and
:func:`repro.sql.fingerprint.fingerprint` folds the same matches into a
template key, so the two always agree on where every token ends.

The tokenizer is strict: any unconsumable character raises
:class:`repro.sql.errors.LexError`, which log loaders treat as "query
not parseable by a standard SQL parser" (the paper drops 13M such
statements from the US Bank log).
"""

from __future__ import annotations

import re

from .errors import LexError
from .tokens import KEYWORDS, Token, TokenKind

__all__ = ["TOKEN_RE", "tokenize", "unquote"]

#: One alternation per lexical rule, tried in order at each offset:
#: trivia (whitespace, ``--`` and ``/* */`` comments) first, then words,
#: numbers (including ``.5`` forms, but never consuming the first dot of
#: ``1..2``), strings and quoted identifiers with doubled-quote escapes,
#: the two-character operators before the one-character ones, ``?`` and
#: punctuation.  ``ucomment`` catches an unterminated ``/*`` so it fails
#: instead of lexing as the operators ``/`` ``*``.  The quoted forms are
#: possessive: an unterminated one leaves its opening quote unmatched.
TOKEN_RE = re.compile(
    r"""
      (?P<trivia>[ \t\r\n]+|--[^\n]*|/\*(?:[^*]|\*(?!/))*+\*/)
    | (?P<ucomment>/\*)
    | (?P<word>[A-Za-z_][A-Za-z0-9_$\#]*)
    | (?P<number>(?:[0-9]+(?:\.(?!\.)[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
    | (?P<string>'(?:[^']|'')*+')
    | (?P<quoted>"(?:[^"]|"")*+"|`(?:[^`]|``)*+`)
    | (?P<operator><>|<=|>=|!=|\|\||[=<>+\-*/%])
    | (?P<param>\?)
    | (?P<punct>[(),.;])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    """Tokenize *text* and return the token list (EOF-terminated).

    Lines and columns are 1-based and count every newline consumed,
    including those inside strings, quoted identifiers and comments.
    An unterminated string, quoted identifier or block comment is
    reported at the end of *text*; any other character outside the
    grammar at its own offset.
    """
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0  # line_start: offset of the line's first character
    position = 0
    for m in TOKEN_RE.finditer(text):
        start = m.start()
        if start != position:
            raise _unmatched(text, position)
        position = m.end()
        kind = m.lastgroup
        value = m.group()
        if kind != "trivia":
            column = start - line_start + 1
            if kind == "word":
                upper = value.upper()
                if upper in KEYWORDS:
                    append(Token(TokenKind.KEYWORD, upper, start, line, column))
                else:
                    append(Token(TokenKind.IDENT, value, start, line, column))
            elif kind == "punct":
                append(Token(TokenKind.PUNCT, value, start, line, column))
            elif kind == "operator":
                operator = "!=" if value == "<>" else value
                append(Token(TokenKind.OPERATOR, operator, start, line, column))
            elif kind == "number":
                append(Token(TokenKind.NUMBER, value, start, line, column))
            elif kind == "string":
                append(Token(TokenKind.STRING, unquote(value), start, line, column))
            elif kind == "quoted":
                append(Token(TokenKind.IDENT, unquote(value), start, line, column))
            elif kind == "param":
                append(Token(TokenKind.PARAM, value, start, line, column))
            else:  # ucomment
                raise _error(text, "unterminated block comment", len(text))
        if "\n" in value:
            line += value.count("\n")
            line_start = start + value.rindex("\n") + 1
    if position != len(text):
        raise _unmatched(text, position)
    append(Token(TokenKind.EOF, "", position, line, position - line_start + 1))
    return tokens


def unquote(literal: str) -> str:
    """The text of a matched string or quoted identifier: its quotes
    dropped and each doubled quote inside undone."""
    quote = literal[0]
    return literal[1:-1].replace(quote + quote, quote)


def _unmatched(text: str, position: int) -> LexError:
    """The error for the character at *position*, which no rule matches.

    An opening quote is unmatched only when its literal never closes,
    and the error then points at the end of *text*, where a scan for the
    closing quote would give up.
    """
    char = text[position]
    if char == "'":
        return _error(text, "unterminated string literal", len(text))
    if char == '"' or char == "`":
        return _error(text, "unterminated quoted identifier", len(text))
    return _error(text, f"unexpected character {char!r}", position)


def _error(text: str, message: str, position: int) -> LexError:
    """A :class:`LexError` at *position*, with its line and column."""
    line = text.count("\n", 0, position) + 1
    return LexError(message, position, line, position - text.rfind("\n", 0, position))
