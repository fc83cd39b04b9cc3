"""``tokenize`` is pinned to a character-loop tokenizer, the test oracle.

:func:`repro.sql.lexer.tokenize` folds the matches of one regex.  The
oracle below reads the same grammar one character at a time, with its
own operator tables, so the two are independent statements of it.  On
every input they must build equal token lists (kind, value, position,
line, column) or raise equal errors (message, position, line, column):
a ``LexError`` reaches ``load_log``'s error samples.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.errors import LexError
from repro.sql.lexer import tokenize
from repro.sql.tokens import KEYWORDS, Token, TokenKind

#: Operators longer than one character, tried longest-first.
MULTI_CHAR_OPERATORS = ("<>", "<=", ">=", "!=", "||")

#: Single characters that map directly to a token.
SINGLE_CHAR_TOKENS = {
    "(": TokenKind.PUNCT,
    ")": TokenKind.PUNCT,
    ",": TokenKind.PUNCT,
    ".": TokenKind.PUNCT,
    ";": TokenKind.PUNCT,
    "=": TokenKind.OPERATOR,
    "<": TokenKind.OPERATOR,
    ">": TokenKind.OPERATOR,
    "+": TokenKind.OPERATOR,
    "-": TokenKind.OPERATOR,
    "*": TokenKind.OPERATOR,
    "/": TokenKind.OPERATOR,
    "%": TokenKind.OPERATOR,
    "?": TokenKind.PARAM,
}

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset("0123456789$#")
_DIGITS = frozenset("0123456789")


class CharacterLoopLexer:
    """Single-pass tokenizer over a SQL string, one character at a time."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def tokens(self) -> list[Token]:
        """Tokenize the whole input, appending a trailing EOF token."""
        out: list[Token] = []
        while True:
            token = self._next_token()
            out.append(token)
            if token.kind is TokenKind.EOF:
                return out

    def _error(self, message: str) -> LexError:
        return LexError(message, self.pos, self.line, self.column)

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index >= len(self.text):
            return ""
        return self.text[index]

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos >= len(self.text):
                return
            if self.text[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _skip_trivia(self) -> None:
        """Skip whitespace and comments."""
        while self.pos < len(self.text):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "-" and self._peek(1) == "-":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.text):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise self._error("unterminated block comment")
            else:
                return

    def _next_token(self) -> Token:
        self._skip_trivia()
        position, line, column = self.pos, self.line, self.column
        ch = self._peek()
        if not ch:
            return Token(TokenKind.EOF, "", position, line, column)
        if ch in _IDENT_START:
            return self._lex_word(position, line, column)
        if ch in _DIGITS:
            return self._lex_number(position, line, column)
        if ch == ".":
            # Could be a qualified-name dot or the start of ``.5``.
            if self._peek(1) in _DIGITS:
                return self._lex_number(position, line, column)
            self._advance()
            return Token(TokenKind.PUNCT, ".", position, line, column)
        if ch == "'":
            return self._lex_string(position, line, column)
        if ch == '"' or ch == "`":
            return self._lex_quoted_ident(ch, position, line, column)
        for op in MULTI_CHAR_OPERATORS:
            if self.text.startswith(op, self.pos):
                self._advance(len(op))
                value = "!=" if op == "<>" else op
                return Token(TokenKind.OPERATOR, value, position, line, column)
        if ch in SINGLE_CHAR_TOKENS:
            self._advance()
            return Token(SINGLE_CHAR_TOKENS[ch], ch, position, line, column)
        raise self._error(f"unexpected character {ch!r}")

    def _lex_word(self, position: int, line: int, column: int) -> Token:
        start = self.pos
        while self._peek() in _IDENT_CONT:
            self._advance()
        word = self.text[start : self.pos]
        upper = word.upper()
        if upper in KEYWORDS:
            return Token(TokenKind.KEYWORD, upper, position, line, column)
        return Token(TokenKind.IDENT, word, position, line, column)

    def _lex_number(self, position: int, line: int, column: int) -> Token:
        start = self.pos
        while self._peek() in _DIGITS:
            self._advance()
        if self._peek() == "." and self._peek(1) != ".":
            self._advance()
            while self._peek() in _DIGITS:
                self._advance()
        if self._peek() in ("e", "E"):
            lookahead = 1
            if self._peek(1) in ("+", "-"):
                lookahead = 2
            if self._peek(lookahead) in _DIGITS:
                self._advance(lookahead)
                while self._peek() in _DIGITS:
                    self._advance()
        return Token(TokenKind.NUMBER, self.text[start : self.pos], position, line, column)

    def _lex_string(self, position: int, line: int, column: int) -> Token:
        self._advance()  # opening quote
        parts: list[str] = []
        while True:
            ch = self._peek()
            if not ch:
                raise self._error("unterminated string literal")
            if ch == "'":
                if self._peek(1) == "'":  # escaped quote ''
                    parts.append("'")
                    self._advance(2)
                    continue
                self._advance()
                return Token(TokenKind.STRING, "".join(parts), position, line, column)
            parts.append(ch)
            self._advance()

    def _lex_quoted_ident(self, quote: str, position: int, line: int, column: int) -> Token:
        self._advance()  # opening quote
        parts: list[str] = []
        while True:
            ch = self._peek()
            if not ch:
                raise self._error("unterminated quoted identifier")
            if ch == quote:
                if self._peek(1) == quote:
                    parts.append(quote)
                    self._advance(2)
                    continue
                self._advance()
                return Token(TokenKind.IDENT, "".join(parts), position, line, column)
            parts.append(ch)
            self._advance()


def outcome(lex, text: str):
    """Every token's fields, or the error's message and location."""
    try:
        tokens = lex(text)
    except LexError as exc:
        return ("LexError", str(exc), exc.position, exc.line, exc.column)
    return [(t.kind, t.value, t.position, t.line, t.column) for t in tokens]


def oracle(text: str) -> list[Token]:
    return CharacterLoopLexer(text).tokens()


#: Pieces of the grammar and its edges: literals with newlines inside,
#: escapes, the number/dot forms, unterminated openers, ``\r\n``, and
#: characters outside the grammar.
_PIECES = [
    "SELECT", "from", "a", "x9$#", "_", "e", "E",
    "0", "42", "1.5e2", "2.5E-3", "1..2", ".5", "1.", "1e", "1e+", "7e+2", ".",
    "'", "''", "'it''s'", "'a\nb'", "'\n'",
    '"', '""', '"q\nx"', '"we""ird"', "`", "``", "`b\nt`", "`tick``ed`",
    "--", "-- c\n", "/*", "*/", "/**/", "/* c\n */", "/*/",
    "<>", "<=", ">=", "!=", "||", "=", "<", ">", "+", "-", "*", "/", "%",
    "?", "(", ")", ",", ";",
    " ", "\t", "\n", "\r\n", "\r",
    "!", "|", "^", ":", "[", "@", "é", "\x00", "\x0b", "\x1f",
]

grammar_soup = st.lists(
    st.one_of(st.sampled_from(_PIECES), st.characters()), max_size=30
).map("".join)


@given(text=grammar_soup)
@settings(max_examples=1000, deadline=None)
def test_tokenize_matches_the_character_loop(text):
    assert outcome(tokenize, text) == outcome(oracle, text)


def test_generator_statements_match_the_character_loop():
    """Every distinct statement of the workload generators, parse noise too."""
    from repro.workloads import (
        generate_bank,
        generate_pocketdata,
        generate_sdss,
        generate_sqlshare,
        generate_tpch,
    )

    workloads = [
        generate_bank(total=20_000, seed=12, include_noise=True),
        generate_pocketdata(total=5_000, seed=12),
        generate_sqlshare(seed=12),
        generate_sdss(seed=12),
        generate_tpch(seed=12),
    ]
    statements = sorted({text for workload in workloads for text, _ in workload.entries})
    assert len(statements) > 7_000
    errors = 0
    for text in statements:
        expected = outcome(oracle, text)
        assert outcome(tokenize, text) == expected, text
        errors += expected[0] == "LexError"
    assert errors  # the bank noise includes statements that fail to lex
