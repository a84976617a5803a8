"""Executor: interprets parsed statements against the adaptive engine.

A :class:`Session` is a client of one
:class:`~repro.core.facade.AdaptiveDatabase` and keeps no table state of
its own: reads are ``db.query`` (through a
:class:`~repro.core.query.QueryEngine`, which owns no storage),
``CREATE TABLE`` is ``db.create_table`` of empty columns, ``INSERT`` is
one all-or-nothing ``db.insert_rows``, ``UPDATE`` is ``db.update``, ``DELETE`` is
``db.delete_rows``, ``FLUSH`` is ``db.flush_updates`` and ``EXPLAIN`` is
``db.explain`` plus a histogram of the live column.  So every range
predicate warms the column's one adaptive view layer exactly like the
paper's query sequences do, every SQL write is journaled when the
database is durable, and every session on a database sees the same
tables.  Rows staged by ``db.insert`` (SQL ``INSERT`` included) merge
before a statement touches their table, so every selected rowid is
projectable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.config import AdaptiveConfig
from ..core.facade import AdaptiveDatabase
from ..core.introspect import inspect_view_index, render_index_report
from ..core.query import QueryEngine, exact_sum
from ..storage.statistics import ColumnHistogram
from ..vm.constants import MAX_VALUE, MIN_VALUE
from .errors import ExecutionError
from .nodes import (
    Aggregate,
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
from .parser import parse


@dataclass
class ResultTable:
    """Tabular result of one statement."""

    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    #: Informational message (DDL/DML statements).
    message: str = ""

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalar(self):
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError("result is not a single scalar")
        return self.rows[0][0]

    def pretty(self) -> str:
        """Render as an aligned ASCII table."""
        from ..bench.reporting import format_table

        if not self.columns:
            return self.message
        return format_table(self.columns, [list(row) for row in self.rows])


#: Planner tiers: ``adaptive`` answers predicates through the adaptive
#: view layer (warming views as a side-product); ``fullscan`` pins every
#: predicate to the always-correct full-view scan — the degraded tier
#: admission control downgrades to under memory pressure.
PLANNER_TIERS = ("adaptive", "fullscan")


class Session:
    """An interactive SQL session over an adaptive database."""

    def __init__(
        self,
        config: AdaptiveConfig | None = None,
        db: AdaptiveDatabase | None = None,
        observe: bool = False,
        planner: str = "adaptive",
    ) -> None:
        """Without ``db`` the session creates (and on :meth:`close`
        closes) its own database from ``config``; a passed ``db`` stays
        open.  ``observe=True`` attaches an observer to the session's
        own database: statements get trace spans and metrics (see
        :mod:`repro.obs`).  Ignored when an existing ``db`` is passed —
        its own observation setting wins.
        """
        self._owns_db = db is None
        self.db = db if db is not None else AdaptiveDatabase(config, observe=observe)
        self.set_planner(planner)

    # -- public API -------------------------------------------------------

    @property
    def observer(self):
        """The database's observer, or None when observation is off."""
        return self.db.observer

    def set_planner(self, planner: str) -> None:
        """Switch the planner tier for subsequent statements."""
        if planner not in PLANNER_TIERS:
            raise ValueError(
                f"unknown planner tier {planner!r}; expected one of "
                f"{PLANNER_TIERS}"
            )
        self.planner = planner

    def execute(self, sql: str | Statement) -> ResultTable:
        """Execute one statement, parsing it first when given as text.

        A caller that already parsed the text (the server does, to
        classify the statement) hands the statement over as it is.
        """
        statement = parse(sql) if isinstance(sql, str) else sql
        obs = self.db.observer
        if obs is None:
            return self._dispatch(statement)
        kind = type(statement).__name__.removesuffix("Statement").upper()
        with obs.span("statement", kind=kind):
            result = self._dispatch(statement)
        obs.on_statement(kind)
        return result

    def close(self) -> None:
        """Close the database when the session created it."""
        if self._owns_db:
            self.db.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, statement: Statement) -> ResultTable:
        if isinstance(statement, SelectStatement):
            return self._execute_select(statement)
        if isinstance(statement, CreateTableStatement):
            return self._execute_create(statement)
        if isinstance(statement, InsertStatement):
            return self._execute_insert(statement)
        if isinstance(statement, UpdateStatement):
            return self._execute_update(statement)
        if isinstance(statement, DeleteStatement):
            return self._execute_delete(statement)
        if isinstance(statement, FlushStatement):
            return self._execute_flush(statement)
        if isinstance(statement, ShowViewsStatement):
            return self._execute_show_views(statement)
        if isinstance(statement, ExplainStatement):
            return self._execute_explain(statement)
        raise ExecutionError(f"unsupported statement: {statement!r}")

    # -- DDL / DML ------------------------------------------------------------

    def _execute_create(self, statement: CreateTableStatement) -> ResultTable:
        empty = np.empty(0, dtype=np.int64)
        try:
            self.db.create_table(
                statement.table, {name: empty for name in statement.columns}
            )
        except ValueError as exc:  # the name is taken
            raise ExecutionError(str(exc)) from exc
        return ResultTable(columns=[], message=f"table {statement.table} created")

    def _execute_insert(self, statement: InsertStatement) -> ResultTable:
        # One all-or-nothing facade call: a statement refused by
        # validation or the log's size cap journals and stages nothing.
        try:
            self.db.insert_rows(statement.table, statement.rows)
        except (KeyError, ValueError) as exc:
            raise ExecutionError(str(exc)) from exc
        return ResultTable(columns=[], message=f"{len(statement.rows)} rows inserted")

    def _engine(self, table_name: str) -> QueryEngine:
        """The engine over one table, whose rows ``db.insert`` staged
        are merged first (a no-op when none are)."""
        try:
            engine = QueryEngine(self.db, table_name)
        except KeyError as exc:
            raise ExecutionError(str(exc)) from exc
        self.db.flush_inserts(table_name)
        return engine

    def _execute_update(self, statement: UpdateStatement) -> ResultTable:
        engine = self._engine(statement.table)
        table = engine.table
        if statement.column not in table.columns:
            raise ExecutionError(f"no such column: {statement.column!r}")
        rowids = self._filter_rows(engine, statement.predicates)
        for row in rowids.tolist():
            self.db.update(table.name, statement.column, row, statement.value)
        return ResultTable(columns=[], message=f"{rowids.size} rows updated")

    def _execute_delete(self, statement: DeleteStatement) -> ResultTable:
        engine = self._engine(statement.table)
        rowids = self._filter_rows(engine, statement.predicates)
        deleted = self.db.delete_rows(statement.table, rowids)
        return ResultTable(columns=[], message=f"{deleted} rows deleted")

    def _execute_flush(self, statement: FlushStatement) -> ResultTable:
        table = self._engine(statement.table).table
        total_added = total_removed = 0
        for column_name in table.column_names:
            if not len(table.pending_updates(column_name)):
                continue
            stats = self.db.flush_updates(table.name, column_name)
            total_added += stats.pages_added
            total_removed += stats.pages_removed
        return ResultTable(
            columns=[],
            message=(
                f"views realigned: +{total_added} pages, -{total_removed} pages"
            ),
        )

    # -- queries ----------------------------------------------------------------

    def _filter_rows(
        self, engine: QueryEngine, predicates: dict[str, RangePredicate]
    ) -> np.ndarray:
        table = engine.table
        for predicate in predicates.values():
            if predicate.column not in table.columns:
                raise ExecutionError(f"no such column: {predicate.column!r}")
            if predicate.empty:
                return np.empty(0, dtype=np.int64)
        if not predicates:
            return table.tombstones.filter_live(
                np.arange(table.num_rows, dtype=np.int64)
            )
        # each predicate's selection is already tombstone-filtered
        return engine.select_conjunction(
            {p.column: (p.lo, p.hi) for p in predicates.values()},
            full_scan=self.planner == "fullscan",
        )

    def _execute_select(self, statement: SelectStatement) -> ResultTable:
        engine = self._engine(statement.table)
        table = engine.table
        if statement.is_aggregate:
            return self._execute_aggregates(engine, statement)

        columns = statement.columns
        if columns == ["*"]:
            columns = table.column_names
        for name in columns:
            if name not in table.columns:
                raise ExecutionError(f"no such column: {name!r}")

        rowids = self._filter_rows(engine, statement.predicates)
        if statement.order_by_rowid:
            rowids = np.sort(rowids)
        projected = engine.fetch(rowids, columns)
        rows = list(
            zip(*(projected[name].tolist() for name in columns))
        ) if columns else []
        return ResultTable(columns=list(columns), rows=rows)

    def _execute_aggregates(
        self, engine: QueryEngine, statement: SelectStatement
    ) -> ResultTable:
        rowids = self._filter_rows(engine, statement.predicates)
        values_by_column: dict[str, np.ndarray] = {}

        def column_values(name: str) -> np.ndarray:
            if name not in values_by_column:
                values_by_column[name] = engine.fetch(rowids, [name])[name]
            return values_by_column[name]

        row: list[object] = []
        for aggregate in statement.aggregates:
            if aggregate.column != "*" and aggregate.column not in engine.table.columns:
                raise ExecutionError(f"no such column: {aggregate.column!r}")
            row.append(_compute_aggregate(aggregate, rowids, column_values))
        return ResultTable(
            columns=[a.label for a in statement.aggregates], rows=[tuple(row)]
        )

    # -- introspection ------------------------------------------------------------

    def _execute_show_views(self, statement: ShowViewsStatement) -> ResultTable:
        engine = self._engine(statement.table)
        if statement.column not in engine.table.columns:
            raise ExecutionError(f"no such column: {statement.column!r}")
        layer = self.db.layer(statement.table, statement.column)
        report = inspect_view_index(layer.view_index)
        return ResultTable(columns=[], message=render_index_report(report))

    def _execute_explain(self, statement: ExplainStatement) -> ResultTable:
        select = statement.select
        engine = self._engine(select.table)
        lines = [f"SELECT on {select.table}:"]
        if not select.predicates:
            lines.append("  no predicate: full scan of every projected column")
        for predicate in select.predicates.values():
            if predicate.column not in engine.table.columns:
                raise ExecutionError(f"no such column: {predicate.column!r}")
            column = engine.table.column(predicate.column)
            lo = max(predicate.lo, MIN_VALUE)
            hi = min(predicate.hi, MAX_VALUE)
            estimate = ColumnHistogram(column).estimate(lo, hi)
            report = self.db.explain(
                select.table, predicate.column, lo, hi, analyze=statement.analyze
            )
            lines.append("")
            lines.append(report.render())
            lines.append(f"estimated: {estimate.describe()}")
        return ResultTable(columns=[], message="\n".join(lines))


def _compute_aggregate(
    aggregate: Aggregate, rowids: np.ndarray, column_values
) -> object:
    if aggregate.function == "COUNT":
        return int(rowids.size)
    values = column_values(aggregate.column)
    if values.size == 0:
        return None
    if aggregate.function == "SUM":
        return exact_sum(values)
    if aggregate.function == "MIN":
        return int(values.min())
    if aggregate.function == "MAX":
        return int(values.max())
    if aggregate.function == "AVG":
        return float(values.mean())
    raise ExecutionError(f"unknown aggregate {aggregate.function!r}")
