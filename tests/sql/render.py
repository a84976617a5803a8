"""Rendering statement ASTs back to SQL text.

The inverse of :mod:`repro.sql.parser`, kept for the parser's
round-trip tests: ``parse(render_statement(ast)) == ast``.
"""

from __future__ import annotations

from repro.sql.errors import SqlError
from repro.sql.nodes import (
    CreateTableStatement,
    DeleteStatement,
    ExplainStatement,
    FlushStatement,
    InsertStatement,
    RangePredicate,
    SelectStatement,
    ShowViewsStatement,
    Statement,
    UpdateStatement,
)
from repro.vm.constants import MAX_VALUE, MIN_VALUE


def render_predicates(predicates: dict[str, RangePredicate]) -> str:
    """Render a WHERE conjunction (empty string when unconstrained)."""
    parts = []
    for predicate in predicates.values():
        lo_open = predicate.lo == MIN_VALUE
        hi_open = predicate.hi == MAX_VALUE
        if lo_open and hi_open:
            continue
        if predicate.lo == predicate.hi:
            parts.append(f"{predicate.column} = {predicate.lo}")
        elif lo_open:
            parts.append(f"{predicate.column} <= {predicate.hi}")
        elif hi_open:
            parts.append(f"{predicate.column} >= {predicate.lo}")
        else:
            parts.append(
                f"{predicate.column} BETWEEN {predicate.lo} AND {predicate.hi}"
            )
    return " AND ".join(parts)


def render_select(statement: SelectStatement) -> str:
    """Render a SELECT statement."""
    if statement.is_aggregate:
        select_list = ", ".join(
            f"{a.function}({a.column})" for a in statement.aggregates
        )
    else:
        select_list = ", ".join(statement.columns)
    sql = f"SELECT {select_list} FROM {statement.table}"
    where = render_predicates(statement.predicates)
    if where:
        sql += f" WHERE {where}"
    if statement.order_by_rowid:
        sql += " ORDER BY rowid"
    return sql


def render_statement(statement: Statement) -> str:
    """Render any supported statement back to SQL text."""
    if isinstance(statement, SelectStatement):
        return render_select(statement)
    if isinstance(statement, CreateTableStatement):
        columns = ", ".join(statement.columns)
        return f"CREATE TABLE {statement.table} ({columns})"
    if isinstance(statement, InsertStatement):
        rows = ", ".join(
            "(" + ", ".join(str(v) for v in row) + ")" for row in statement.rows
        )
        return f"INSERT INTO {statement.table} VALUES {rows}"
    if isinstance(statement, UpdateStatement):
        sql = f"UPDATE {statement.table} SET {statement.column} = {statement.value}"
        where = render_predicates(statement.predicates)
        if where:
            sql += f" WHERE {where}"
        return sql
    if isinstance(statement, DeleteStatement):
        sql = f"DELETE FROM {statement.table}"
        where = render_predicates(statement.predicates)
        if where:
            sql += f" WHERE {where}"
        return sql
    if isinstance(statement, FlushStatement):
        return f"FLUSH UPDATES {statement.table}"
    if isinstance(statement, ShowViewsStatement):
        return f"SHOW VIEWS {statement.table}.{statement.column}"
    if isinstance(statement, ExplainStatement):
        mode = "EXPLAIN ANALYZE" if statement.analyze else "EXPLAIN"
        return f"{mode} {render_select(statement.select)}"
    raise SqlError(f"cannot render {type(statement).__name__}")
