"""Unit tests for the SQL tokenizer."""

import pytest

from repro.sql.errors import LexError
from repro.sql.lexer import tokenize
from repro.sql.tokens import TokenKind


def kinds(text):
    return [t.kind for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_keywords_are_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.kind is TokenKind.KEYWORD for t in tokens[:-1])

    def test_identifiers_keep_case(self):
        assert values("Messages _id x9$") == ["Messages", "_id", "x9$"]

    def test_eof_is_appended(self):
        assert tokenize("")[-1].kind is TokenKind.EOF
        assert tokenize("SELECT")[-1].kind is TokenKind.EOF

    def test_parameter_token(self):
        tokens = tokenize("status = ?")
        assert tokens[2].kind is TokenKind.PARAM

    def test_punctuation(self):
        tokens = tokenize("(a, b.c);")
        puncts = [t.value for t in tokens if t.kind is TokenKind.PUNCT]
        assert puncts == ["(", ",", ".", ")", ";"]


class TestNumbers:
    @pytest.mark.parametrize(
        "text", ["0", "42", "3.14", ".5", "1e6", "2.5E-3", "7e+2"]
    )
    def test_numeric_forms(self, text):
        tokens = tokenize(text)
        assert tokens[0].kind is TokenKind.NUMBER
        assert tokens[0].value == text

    def test_number_then_dot_dot_is_not_consumed(self):
        tokens = tokenize("1 . x")
        assert [t.kind for t in tokens[:-1]] == [
            TokenKind.NUMBER,
            TokenKind.PUNCT,
            TokenKind.IDENT,
        ]

    def test_e_without_digits_is_identifier_suffix(self):
        tokens = tokenize("12e")
        assert tokens[0].kind is TokenKind.NUMBER
        assert tokens[0].value == "12"
        assert tokens[1].kind is TokenKind.IDENT


class TestStrings:
    def test_simple_string(self):
        token = tokenize("'hello'")[0]
        assert token.kind is TokenKind.STRING
        assert token.value == "hello"

    def test_escaped_quote(self):
        token = tokenize("'it''s'")[0]
        assert token.value == "it's"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize("'oops")

    def test_quoted_identifier(self):
        token = tokenize('"My Table"')[0]
        assert token.kind is TokenKind.IDENT
        assert token.value == "My Table"

    def test_backtick_identifier(self):
        token = tokenize("`weird``name`")[0]
        assert token.kind is TokenKind.IDENT
        assert token.value == "weird`name"


class TestOperators:
    @pytest.mark.parametrize("op", ["=", "<", ">", "<=", ">=", "!=", "||", "+", "-", "*", "/", "%"])
    def test_operator_forms(self, op):
        token = tokenize(f"a {op} b")[1]
        assert token.kind is TokenKind.OPERATOR
        assert token.value == op

    def test_angle_bracket_inequality_normalizes(self):
        token = tokenize("a <> b")[1]
        assert token.value == "!="


class TestTrivia:
    def test_line_comment(self):
        assert values("a -- comment\n b") == ["a", "b"]

    def test_block_comment(self):
        assert values("a /* x \n y */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_positions_track_lines(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[1].column == 3

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError):
            tokenize("a ^ b")


class TestPositions:
    """Lines and columns count every newline consumed, not only trivia's."""

    @pytest.mark.parametrize(
        "text,value,position,line,column",
        [
            ("'a\nb' c", "c", 6, 2, 4),  # inside a string literal
            ('"x\ny" z', "z", 6, 2, 4),  # inside a quoted identifier
            ("`p\nq` r", "r", 6, 2, 4),  # inside a backtick identifier
            ("a /* x \n y */ b", "b", 14, 2, 7),  # inside a block comment
            ("x -- c\n  y", "y", 9, 2, 3),  # ending a line comment
            ("a\r\nb", "b", 3, 2, 1),  # \r is a column, \n the new line
        ],
    )
    def test_token_after_a_newline(self, text, value, position, line, column):
        token = tokenize(text)[-2]
        assert (token.value, token.position, token.line, token.column) == (
            value, position, line, column,
        )

    def test_literal_spanning_lines_keeps_its_start(self):
        token = tokenize("a\n 'b\nc'")[1]
        assert (token.value, token.position, token.line, token.column) == ("b\nc", 3, 2, 2)

    def test_eof_sits_after_the_last_character(self):
        eof = tokenize("a\n'b\nc' ")[-1]
        assert (eof.kind, eof.position, eof.line, eof.column) == (TokenKind.EOF, 8, 3, 4)

    @pytest.mark.parametrize(
        "text,message,position,line,column",
        [
            # Unterminated literals and comments are reported at the end
            # of the text, where a scan for their closing delimiter ends.
            ("a 'b\nc", "unterminated string literal", 6, 2, 2),
            ('a "b\ncd', "unterminated quoted identifier", 7, 2, 3),
            ("a\n`b", "unterminated quoted identifier", 4, 2, 3),
            ("a /* x\n y", "unterminated block comment", 9, 2, 3),
            # Any other character outside the grammar at its own offset.
            ("a\n  ^ b", "unexpected character '^'", 4, 2, 3),
        ],
    )
    def test_lex_error_location(self, text, message, position, line, column):
        with pytest.raises(LexError) as caught:
            tokenize(text)
        error = caught.value
        assert str(error) == f"{message} (line {line}, column {column})"
        assert (error.position, error.line, error.column) == (position, line, column)
