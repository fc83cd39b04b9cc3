"""Lexer-level statement fingerprinting for the ingestion fast path.

Query logs are overwhelmingly repeated *templates*: the paper's
PocketData log has 629,582 entries but only 605 distinct feature
vectors, and the US Bank log collapses from 188,184 distinct statements
to 1,712 once constants are removed (§7, Table 1).  Running the full
lex → parse → normalize → regularize → extract pipeline on every
arriving statement therefore wastes almost all of its work re-deriving
a result the system has already computed.

:func:`fingerprint` computes a stable *template key* for a raw SQL
string in a single regex-driven pass over the same lexical grammar as
:class:`repro.sql.lexer.Lexer` — identifiers, string/number literals,
JDBC ``?`` parameters, line and block comments, the shared keyword and
operator tables — without building token objects, an AST, or features.
Two statements receive the same fingerprint exactly when they lex to
the same token stream modulo

* whitespace and comments (skipped, like the lexer's trivia), and
* literal values (masked, matching the "Constant Removal" preparation),

which is precisely the equivalence class under which the downstream
feature extraction is constant: same fingerprint ⇒ same extracted
feature set (with ``remove_constants=True``).  A bounded cache keyed by
fingerprint (:mod:`repro.core.featurecache`) then makes repeated
templates bypass the parser entirely.

Safety properties the masking preserves:

* ``LIMIT`` / ``OFFSET`` counts are **not** masked — the normalizer
  deliberately keeps them (they are structural, not data; see
  :func:`repro.sql.normalize.parameterize`) and they surface verbatim
  in subquery ``FROM`` features, so masking them could alias statements
  with different feature sets.
* Token *kinds* are tagged in the key, so a quoted identifier spelled
  like a keyword (``"SELECT"``) can never collide with the keyword.
* Anything the lexer would reject (unexpected characters, unterminated
  strings/comments) fingerprints to ``None``; the cache memoizes such
  statements by raw string and classifies the failure exactly.

Case is *not* folded: ``SELECT A`` and ``select a`` get different
fingerprints even though normalization folds identifier case later.
That direction is safe — distinct keys for equal feature sets only cost
cache hits, never correctness — and keeps the fingerprint a pure
function of the token stream.
"""

from __future__ import annotations

import re

from .tokens import KEYWORDS

__all__ = ["fingerprint", "NUMBER_MASK", "STRING_MASK"]

#: Masked-literal placeholders (NUL-prefixed so no lexed token value,
#: which never contains a control character, can collide with them).
NUMBER_MASK = "\x00N"
STRING_MASK = "\x00S"

#: One alternation per lexical rule, mirroring ``Lexer`` exactly:
#: trivia first, then words, numbers (including ``.5`` forms, but never
#: consuming the first dot of ``1..2`` — the lexer's qualified-name
#: guard), strings/quoted identifiers with doubled-quote escapes, the
#: multi-char operators longest-first, and the single-char table.  The
#: ``ucomment`` branch catches an unterminated ``/*`` so it fails the
#: fingerprint instead of degenerating into ``/`` ``*`` operator tokens.
_TOKEN_RE = re.compile(
    r"""
      (?P<trivia>[ \t\r\n]+|--[^\n]*)
    | (?P<bcomment>/\*(?:[^*]|\*(?!/))*\*/)
    | (?P<ucomment>/\*)
    | (?P<word>[A-Za-z_][A-Za-z0-9_$\#]*)
    | (?P<number>(?:[0-9]+(?:\.(?!\.)[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
    | (?P<string>'(?:[^']|'')*')
    | (?P<dquoted>"(?:[^"]|"")*")
    | (?P<bquoted>`(?:[^`]|``)*`)
    | (?P<operator><>|<=|>=|!=|\|\||[=<>+\-*/%])
    | (?P<param>\?)
    | (?P<punct>[(),.;])
    """,
    re.VERBOSE,
)

#: Keywords after which a NUMBER token is structural, not a data
#: constant, and must stay verbatim in the key (see module docstring).
_UNMASKED_NUMBER_CONTEXT = frozenset({"K:LIMIT", "K:OFFSET"})


def _escape(value: str) -> str:
    """Injectively escape the key's control characters.

    Quoted identifiers and string literals may contain the token
    separator (``\\x1f``) or the mask prefix (``\\x00``) verbatim; left
    unescaped, a crafted identifier could forge another statement's key
    and poison the feature cache with wrong features.  Bare words,
    numbers, keywords, and operators cannot contain these characters,
    so only the quoted/string branches pay the (guarded) replace.
    """
    if "\x00" in value or "\x1f" in value:
        return value.replace("\x00", "\x00z").replace("\x1f", "\x00u")
    return value


def fingerprint(sql: str, mask_literals: bool = True) -> str | None:
    """A stable template key for *sql*, or ``None`` when it cannot lex.

    With ``mask_literals=True`` (the default, matching the extractors'
    ``remove_constants=True``) number and string literals are replaced
    by placeholders so constant-variants of one template share a key.
    With ``mask_literals=False`` literal values are kept verbatim —
    required when features are extracted *with* constants, where two
    statements differing only in a literal have different feature sets.

    The key is an opaque string; its only contract is that equal keys
    imply equal downstream extraction results for the matching
    ``remove_constants`` setting.
    """
    out: list[str] = []
    previous = ""
    position = 0
    length = len(sql)
    match = _TOKEN_RE.match
    while position < length:
        m = match(sql, position)
        if m is None:
            return None  # a character the lexer would reject
        position = m.end()
        kind = m.lastgroup
        if kind == "trivia" or kind == "bcomment":
            continue
        if kind == "ucomment":
            return None  # unterminated block comment
        if kind == "word":
            value = m.group()
            upper = value.upper()
            if upper in KEYWORDS:
                token = "K:" + upper
            else:
                token = "i:" + value
        elif kind == "number":
            if mask_literals and previous not in _UNMASKED_NUMBER_CONTEXT:
                token = NUMBER_MASK
            else:
                token = "n:" + m.group()
        elif kind == "string":
            if mask_literals:
                token = STRING_MASK
            else:
                token = "s:" + _escape(m.group()[1:-1].replace("''", "'"))
        elif kind == "dquoted":
            token = "i:" + _escape(m.group()[1:-1].replace('""', '"'))
        elif kind == "bquoted":
            token = "i:" + _escape(m.group()[1:-1].replace("``", "`"))
        elif kind == "operator":
            value = m.group()
            token = "o:" + ("!=" if value == "<>" else value)
        elif kind == "param":
            token = "?"
        else:  # punct
            token = "p:" + m.group()
        out.append(token)
        previous = token
    return "\x1f".join(out)
