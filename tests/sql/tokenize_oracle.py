"""The character-at-a-time SQL tokenizer, kept as the parity oracle.

This is how ``repro.sql.tokens.tokenize`` walked its input before one
compiled pattern replaced the loop: one Python step per character,
trying every symbol at each position.  ``tests/sql/test_tokens.py``
requires both to produce the same tokens, positions and errors.
"""

from __future__ import annotations

from repro.sql.errors import TokenizeError
from repro.sql.tokens import KEYWORDS, Token, TokenType

_SYMBOLS = ("<=", ">=", "<>", "!=", "(", ")", ",", ";", "*", "=", "<", ">", ".")


def oracle_tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; the result always ends with an END token."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and text.startswith("--", i):
            # line comment
            end = text.find("\n", i)
            i = n if end == -1 else end + 1
            continue

        symbol = next((s for s in _SYMBOLS if text.startswith(s, i)), None)
        if symbol is not None:
            tokens.append(Token(TokenType.SYMBOL, symbol, i))
            i += len(symbol)
            continue

        if ch.isdigit() or (
            ch == "-" and i + 1 < n and text[i + 1].isdigit()
        ):
            start = i
            i += 1
            while i < n and (text[i].isdigit() or text[i] == "_"):
                i += 1
            literal = text[start:i].replace("_", "")
            tokens.append(Token(TokenType.NUMBER, literal, start))
            continue

        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, start))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, word, start))
            continue

        raise TokenizeError(f"unexpected character {ch!r}", i)

    tokens.append(Token(TokenType.END, "", n))
    return tokens
