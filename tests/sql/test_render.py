"""Round-trip tests: parse(render(ast)) == ast for generated statements."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.nodes import (
    Aggregate,
    CreateTableStatement,
    ExplainStatement,
    FlushStatement,
    InsertStatement,
    RangePredicate,
    SelectStatement,
    ShowViewsStatement,
    UpdateStatement,
)
from repro.sql.parser import parse
from .render import render_statement
from repro.vm.constants import MAX_VALUE, MIN_VALUE

_name = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    # exclude words that tokenize as keywords
    lambda s: s.upper()
    not in {
        "AND", "AVG", "BETWEEN", "BY", "COUNT", "CREATE", "EXPLAIN",
        "FLUSH", "FROM", "INSERT", "INTO", "MAX", "MIN", "ORDER",
        "SELECT", "SET", "SHOW", "SUM", "TABLE", "UPDATE", "UPDATES",
        "VALUES", "VIEWS", "WHERE",
    }
)

_value = st.integers(-(10**12), 10**12)


@st.composite
def _predicate(draw):
    column = draw(_name)
    shape = draw(st.sampled_from(["between", "eq", "ge", "le"]))
    if shape == "between":
        lo = draw(_value)
        hi = draw(st.integers(lo, 10**12))
        return RangePredicate(column=column, lo=lo, hi=hi)
    if shape == "eq":
        v = draw(_value)
        return RangePredicate(column=column, lo=v, hi=v)
    if shape == "ge":
        return RangePredicate(column=column, lo=draw(_value), hi=MAX_VALUE)
    return RangePredicate(column=column, lo=MIN_VALUE, hi=draw(_value))


@st.composite
def _predicates(draw):
    preds = draw(st.lists(_predicate(), max_size=3))
    return {p.column: p for p in {p.column: p for p in preds}.values()}


@st.composite
def _select(draw):
    table = draw(_name)
    statement = SelectStatement(table=table)
    if draw(st.booleans()):
        statement.aggregates = draw(
            st.lists(
                st.builds(
                    Aggregate,
                    function=st.sampled_from(["COUNT", "SUM", "MIN", "MAX", "AVG"]),
                    column=_name,
                ),
                min_size=1,
                max_size=3,
            )
        )
    else:
        kind = draw(st.sampled_from(["star", "columns"]))
        if kind == "star":
            statement.columns = ["*"]
        else:
            statement.columns = draw(st.lists(_name, min_size=1, max_size=3))
    statement.predicates = draw(_predicates())
    statement.order_by_rowid = draw(st.booleans()) and not statement.is_aggregate
    return statement


@settings(max_examples=200, deadline=None)
@given(statement=_select())
def test_select_roundtrip(statement):
    rendered = render_statement(statement)
    reparsed = parse(rendered)
    assert isinstance(reparsed, SelectStatement)
    assert reparsed.table == statement.table
    assert reparsed.columns == statement.columns
    assert reparsed.aggregates == statement.aggregates
    assert reparsed.order_by_rowid == statement.order_by_rowid
    assert set(reparsed.predicates) == set(statement.predicates)
    for column, predicate in statement.predicates.items():
        assert reparsed.predicates[column].lo == predicate.lo
        assert reparsed.predicates[column].hi == predicate.hi


@settings(max_examples=100, deadline=None)
@given(
    table=_name,
    columns=st.lists(_name, min_size=1, max_size=4, unique=True),
)
def test_create_roundtrip(table, columns):
    statement = CreateTableStatement(table=table, columns=columns)
    assert parse(render_statement(statement)) == statement


@settings(max_examples=100, deadline=None)
@given(
    table=_name,
    rows=st.lists(
        st.tuples(_value, _value), min_size=1, max_size=5
    ),
)
def test_insert_roundtrip(table, rows):
    statement = InsertStatement(table=table, rows=[tuple(r) for r in rows])
    assert parse(render_statement(statement)) == statement


@settings(max_examples=100, deadline=None)
@given(table=_name, column=_name, value=_value, predicates=_predicates())
def test_update_roundtrip(table, column, value, predicates):
    statement = UpdateStatement(
        table=table, column=column, value=value, predicates=predicates
    )
    reparsed = parse(render_statement(statement))
    assert isinstance(reparsed, UpdateStatement)
    assert (reparsed.table, reparsed.column, reparsed.value) == (
        table, column, value,
    )
    assert set(reparsed.predicates) == set(predicates)


def test_other_statements_roundtrip():
    for statement in (
        FlushStatement(table="t"),
        ShowViewsStatement(table="t", column="c"),
    ):
        assert parse(render_statement(statement)) == statement
    explain = ExplainStatement(select=SelectStatement(table="t", columns=["*"]))
    reparsed = parse(render_statement(explain))
    assert isinstance(reparsed, ExplainStatement)
    assert reparsed.select.table == "t"


def test_unconstrained_predicate_dropped():
    from .render import render_predicates

    pred = RangePredicate(column="a")  # [-inf, inf]
    assert render_predicates({"a": pred}) == ""
