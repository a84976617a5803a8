"""Unit tests for the SQL tokenizer.

:func:`test_pattern_matches_the_character_loop` holds the one-pattern
tokenizer to the character loop it replaced (:mod:`tests.sql.tokenize_oracle`)
over random SQL-ish strings: same tokens, positions and errors.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.errors import TokenizeError
from repro.sql.tokens import KEYWORDS, Token, TokenType, tokenize

from .tokenize_oracle import oracle_tokenize


def kinds(text):
    return [(t.type, t.value) for t in tokenize(text)]


class TestTokenize:
    def test_keywords_are_case_insensitive(self):
        tokens = tokenize("select From WHERE")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])

    def test_identifiers_keep_case(self):
        tokens = tokenize("myTable _col2")
        assert tokens[0] == Token(TokenType.IDENTIFIER, "myTable", 0)
        assert tokens[1].value == "_col2"

    def test_numbers(self):
        tokens = tokenize("42 -17 1_000_000")
        assert [t.value for t in tokens[:-1]] == ["42", "-17", "1000000"]
        assert all(t.type is TokenType.NUMBER for t in tokens[:-1])

    def test_symbols(self):
        tokens = tokenize("( ) , ; * = < > <= >= .")
        values = [t.value for t in tokens[:-1]]
        assert values == ["(", ")", ",", ";", "*", "=", "<", ">", "<=", ">=", "."]
        assert all(t.type is TokenType.SYMBOL for t in tokens[:-1])

    def test_two_char_symbols_win(self):
        tokens = tokenize("a<=1")
        assert tokens[1].value == "<="

    def test_comments_skipped(self):
        tokens = tokenize("SELECT -- the projection\n a")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "a"]

    def test_end_token_always_present(self):
        assert tokenize("")[-1].type is TokenType.END
        assert tokenize("a")[-1].type is TokenType.END

    def test_positions_recorded(self):
        tokens = tokenize("ab  cd")
        assert tokens[0].position == 0
        assert tokens[1].position == 4

    def test_bad_character_rejected(self):
        with pytest.raises(TokenizeError) as info:
            tokenize("a @ b")
        assert info.value.position == 2

    def test_full_statement(self):
        tokens = tokenize("SELECT a FROM t WHERE a BETWEEN 1 AND 2;")
        assert tokens[-2].value == ";"
        assert len(tokens) == 12  # 10 lexemes + ';' + END

    def test_helpers(self):
        token = tokenize("SELECT")[0]
        assert token.is_keyword("SELECT", "FROM")
        assert not token.is_keyword("FROM")
        assert not token.is_symbol("*")


#: Lexeme-shaped fragments plus the characters where the predicates the
#: loop used (``isspace``, ``isdigit``, ``isalpha``, ``isalnum``) and the
#: ASCII rules part ways: Unicode spaces, non-decimal digits (``²``),
#: non-ASCII decimal digits and letters, numerics that are neither
#: (``½``, ``Ⅻ``), and characters no rule accepts.
_FRAGMENTS = sorted(KEYWORDS) + [
    "t", "x_1", "_", "__a9", "0", "42", "1_000", "-", "--", "-7", "--c\n",
    "<=", ">=", "<>", "!=", "!", "(", ")", ",", ";", "*", "=", "<", ">", ".",
    " ", "\t", "\n", "\x0b", "\x1c", "\u00a0", "\u2003", "\u3000",
    "\u00b2", "\u00b9", "\u2460", "\u0663", "\uff11", "\u00bd", "\u216b",
    "\u00df", "\u01c5", "\u00e9", "\u4e00", "\u0301", "@", "#", "\"", "'",
]


@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(_FRAGMENTS), st.characters()), max_size=24
    ).map("".join)
)
def test_pattern_matches_the_character_loop(text):
    try:
        expected = oracle_tokenize(text)
    except TokenizeError as exc:
        with pytest.raises(TokenizeError) as info:
            tokenize(text)
        assert str(info.value) == str(exc)
        assert info.value.position == exc.position
    else:
        assert tokenize(text) == expected
