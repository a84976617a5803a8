"""Fuzz tests for the SQL front-end.

Two properties: (1) arbitrary text never crashes the parser with
anything but a typed SqlError; (2) generated well-formed statements
parse, execute, and produce results consistent with a numpy model.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AdaptiveConfig
from repro.sql import Session, SqlError, parse
from repro.sql.nodes import SelectStatement


@settings(max_examples=300, deadline=None)
@given(text=st.text(max_size=80))
def test_parser_total_on_arbitrary_text(text):
    """Any input either parses or raises a typed SqlError."""
    try:
        parse(text)
    except SqlError:
        pass


@settings(max_examples=200, deadline=None)
@given(
    text=st.text(
        alphabet=st.sampled_from(
            list("SELECTFROMWHEREANDBETWEEN()*,;=<>.0123456789abc _")
        ),
        max_size=60,
    )
)
def test_parser_total_on_sql_like_text(text):
    """SQL-shaped garbage is handled just as gracefully."""
    try:
        parse(text)
    except SqlError:
        pass


_comparison = st.one_of(
    st.tuples(st.just("BETWEEN"), st.integers(0, 500), st.integers(0, 500)),
    st.tuples(st.just("="), st.integers(0, 1000)),
    st.tuples(st.sampled_from(["<", ">", "<=", ">="]), st.integers(0, 1000)),
)


def _render_comparison(column, comp):
    if comp[0] == "BETWEEN":
        lo, hi = sorted(comp[1:])
        return f"{column} BETWEEN {lo} AND {hi}"
    return f"{column} {comp[0]} {comp[1]}"


@pytest.fixture(scope="module")
def fuzz_session():
    with Session(AdaptiveConfig(max_views=8)) as sess:
        sess.execute("CREATE TABLE f (a, b)")
        rng = np.random.default_rng(17)
        rows = ", ".join(
            f"({int(x)}, {int(y)})"
            for x, y in zip(
                rng.integers(0, 1000, 600), rng.integers(0, 1000, 600)
            )
        )
        sess.execute(f"INSERT INTO f VALUES {rows}")
        sess.execute("SELECT COUNT(a) FROM f")  # merge the inserted rows
        a = sess.db.table("f").column("a").values()
        b = sess.db.table("f").column("b").values()
        yield sess, a, b


@settings(max_examples=80, deadline=None)
@given(
    comps=st.lists(
        st.tuples(st.sampled_from(["a", "b"]), _comparison), min_size=1, max_size=3
    )
)
def test_generated_selects_match_model(fuzz_session, comps):
    """Random conjunctive COUNT queries agree with numpy."""
    sess, a, b = fuzz_session
    where = " AND ".join(_render_comparison(col, comp) for col, comp in comps)
    sql = f"SELECT COUNT(a) FROM f WHERE {where}"

    statement = parse(sql)
    assert isinstance(statement, SelectStatement)
    mask = np.ones(a.size, dtype=bool)
    for predicate in statement.predicates.values():
        column = a if predicate.column == "a" else b
        mask &= (column >= predicate.lo) & (column <= predicate.hi)

    assert sess.execute(sql).scalar() == int(mask.sum())
