"""Tokenizer for the SQL subset.

Produces a flat list of :class:`Token` objects.  Keywords are
case-insensitive and normalized to upper case; identifiers keep their
spelling.  Only the lexemes the grammar needs are recognized: integers
(optionally signed, with ``_`` separators), identifiers (dotted names
are produced as separate tokens), parentheses, commas, semicolons,
``*`` and the comparison operators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import TokenizeError

KEYWORDS = {
    "ANALYZE",
    "AND",
    "AVG",
    "BETWEEN",
    "BY",
    "COUNT",
    "CREATE",
    "DELETE",
    "EXPLAIN",
    "FLUSH",
    "FROM",
    "INSERT",
    "INTO",
    "MAX",
    "MIN",
    "ORDER",
    "SELECT",
    "SET",
    "SHOW",
    "SUM",
    "TABLE",
    "UPDATE",
    "UPDATES",
    "VALUES",
    "VIEWS",
    "WHERE",
}

#: Aggregate function keywords (subset of :data:`KEYWORDS`).
AGGREGATES = {"COUNT", "SUM", "MIN", "MAX", "AVG"}


class TokenType(Enum):
    """Lexical category of a token."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    SYMBOL = "symbol"
    END = "end"


@dataclass(frozen=True)
class Token:
    """One lexeme with its source offset."""

    type: TokenType
    value: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        """Whether this token is one of the given keywords."""
        return self.type is TokenType.KEYWORD and self.value in names

    def is_symbol(self, *symbols: str) -> bool:
        """Whether this token is one of the given symbols."""
        return self.type is TokenType.SYMBOL and self.value in symbols


#: One token per match, after any whitespace and ``--`` line comments:
#: a symbol (longest first), a number or a word with an ASCII first
#: character, ``other`` for any other character, or no group at the
#: end of the text.  ``\s`` and ``\w`` are exactly ``str.isspace`` and
#: ``str.isalnum() or "_"``.
_TOKEN = re.compile(
    r"(?:\s+|--[^\n]*\n?)*"
    r"(?:(?P<symbol><=|>=|<>|!=|[(),;*=<>.])"
    r"|(?P<number>-?[0-9][0-9_]*)"
    r"|(?P<word>[A-Za-z_]\w*)"
    r"|(?P<other>.))?",
    re.DOTALL,
)
_WORD_TAIL = re.compile(r"\w*")


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; the result always ends with an END token."""
    tokens: list[Token] = []
    n = len(text)
    pos = 0
    while True:
        match = _TOKEN.match(text, pos)
        kind = match.lastgroup
        if kind is None:
            break
        start, pos = match.span(kind)
        if kind == "other":
            # A non-ASCII digit or letter starts a token too.
            ch = text[start]
            if ch.isdigit() or (ch == "-" and pos < n and text[pos].isdigit()):
                kind = "number"
            elif ch.isalpha():
                kind, pos = "word", _WORD_TAIL.match(text, pos).end()
            else:
                raise TokenizeError(f"unexpected character {ch!r}", start)
        if kind == "number":
            while pos < n and (text[pos].isdigit() or text[pos] == "_"):
                pos += 1  # non-ASCII digits continue a number
            literal = text[start:pos].replace("_", "")
            tokens.append(Token(TokenType.NUMBER, literal, start))
        elif kind == "word":
            word = text[start:pos]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, start))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, word, start))
        else:
            tokens.append(Token(TokenType.SYMBOL, text[start:pos], start))
    tokens.append(Token(TokenType.END, "", n))
    return tokens
