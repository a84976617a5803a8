"""Executor: interprets parsed statements against the adaptive engine.

A :class:`Session` owns an :class:`~repro.core.facade.AdaptiveDatabase`
and one :class:`~repro.core.query.QueryEngine` per table.  Statements
run through the fused storage/indexing design: every range predicate is
answered via the column's adaptive views, so a plain SQL workload warms
the views exactly like the paper's query sequences do.  The engines own
no storage layer: they borrow the database's, so SQL and
``AdaptiveDatabase.query`` share one layer — and one consumer of the
pending-update log — per column.

Tables created via ``CREATE TABLE`` buffer ``INSERT`` rows until the
first read or update statement materializes them (the storage layer is
load-once, like the paper's in-memory column store).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.config import AdaptiveConfig
from ..core.facade import AdaptiveDatabase
from ..core.introspect import inspect_view_index, render_index_report
from ..core.query import QueryEngine
from ..obs.calibration import explain_range_query
from ..storage.statistics import TableStatistics
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
        engines: dict[str, QueryEngine] | None = None,
        owns_db: bool = True,
    ) -> None:
        """``observe=True`` attaches an observer to the session's
        database: statements get trace spans and metrics (see
        :mod:`repro.obs`).  Ignored when an existing ``db`` is passed —
        its own observation setting wins.

        ``engines=`` shares an externally owned table→engine registry
        (the serving layer passes one per database so every session
        routes through the same adaptive view layers); shared engines
        are not closed by :meth:`close`.  ``owns_db=False`` likewise
        leaves the database open on close.
        """
        self.db = db or AdaptiveDatabase(config, observe=observe)
        self._owns_engines = engines is None
        self._engines: dict[str, QueryEngine] = (
            {} if engines is None else engines
        )
        self._owns_db = owns_db
        self._statistics = TableStatistics()
        self.set_planner(planner)
        #: CREATE'd but not yet materialized tables: name -> (cols, rows).
        self._staged: dict[str, tuple[list[str], list[tuple[int, ...]]]] = {}

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
        """Shut down owned engines and, when owned, the database."""
        if self._owns_engines:
            for engine in self._engines.values():
                engine.close()
            self._engines.clear()
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
        if statement.table in self._staged:
            raise ExecutionError(f"table {statement.table!r} already staged")
        try:
            self.db.table(statement.table)
        except KeyError:
            pass
        else:
            raise ExecutionError(f"table {statement.table!r} already exists")
        self._staged[statement.table] = (list(statement.columns), [])
        return ResultTable(
            columns=[], message=f"table {statement.table} created (staged)"
        )

    def _execute_insert(self, statement: InsertStatement) -> ResultTable:
        if statement.table not in self._staged:
            raise ExecutionError(
                f"table {statement.table!r} is not staged for inserts "
                "(tables are load-once; INSERT before the first query)"
            )
        columns, rows = self._staged[statement.table]
        for row in statement.rows:
            if len(row) != len(columns):
                raise ExecutionError(
                    f"row arity {len(row)} does not match {len(columns)} columns"
                )
        rows.extend(statement.rows)
        return ResultTable(
            columns=[], message=f"{len(statement.rows)} rows staged"
        )

    def _materialize_if_staged(self, table_name: str) -> None:
        staged = self._staged.pop(table_name, None)
        if staged is None:
            return
        columns, rows = staged
        if not rows:
            raise ExecutionError(
                f"table {table_name!r} has no rows; INSERT before querying"
            )
        data = np.array(rows, dtype=np.int64)
        self.db.create_table(
            table_name,
            {name: data[:, i].copy() for i, name in enumerate(columns)},
        )

    def _engine(self, table_name: str) -> QueryEngine:
        self._materialize_if_staged(table_name)
        if table_name not in self._engines:
            try:
                table = self.db.table(table_name)
            except KeyError as exc:
                raise ExecutionError(str(exc)) from exc
            self._engines[table_name] = QueryEngine(table, db=self.db)
        return self._engines[table_name]

    def _execute_update(self, statement: UpdateStatement) -> ResultTable:
        engine = self._engine(statement.table)
        table = self.db.table(statement.table)
        if statement.column not in table.columns:
            raise ExecutionError(f"no such column: {statement.column!r}")
        rowids = self._filter_rows(engine, statement.predicates)
        for row in rowids.tolist():
            table.update(statement.column, int(row), statement.value)
        self._statistics.invalidate(table.column(statement.column))
        return ResultTable(columns=[], message=f"{rowids.size} rows updated")

    def _execute_delete(self, statement: DeleteStatement) -> ResultTable:
        engine = self._engine(statement.table)
        table = self.db.table(statement.table)
        rowids = self._filter_rows(engine, statement.predicates)
        rowids = table.tombstones.filter_live(rowids)
        deleted = table.delete_rows(rowids)
        return ResultTable(columns=[], message=f"{deleted} rows deleted")

    def _execute_flush(self, statement: FlushStatement) -> ResultTable:
        engine = self._engine(statement.table)
        table = self.db.table(statement.table)
        total_added = total_removed = 0
        for column_name in table.column_names:
            batch = table.drain_updates(column_name)
            if len(batch) == 0:
                continue
            stats = engine.layer(column_name).apply_updates(batch)
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
        return table.tombstones.filter_live(
            engine.select_conjunction(
                {p.column: (p.lo, p.hi) for p in predicates.values()},
                full_scan=self.planner == "fullscan",
            )
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
        report = inspect_view_index(engine.layer(statement.column).view_index)
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
            estimate = self._statistics.estimate(column, lo, hi)
            report = explain_range_query(
                engine.layer(predicate.column),
                lo,
                hi,
                analyze=statement.analyze,
                target=f"{select.table}.{predicate.column}",
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
        return int(values.sum())
    if aggregate.function == "MIN":
        return int(values.min())
    if aggregate.function == "MAX":
        return int(values.max())
    if aggregate.function == "AVG":
        return float(values.mean())
    raise ExecutionError(f"unknown aggregate {aggregate.function!r}")
