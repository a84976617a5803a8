"""Sessions: the unit of multi-client access to one database.

A :class:`Session` executes SQL and structured operations against a
database registered in a
:class:`~repro.server.manager.DatabaseManager`, under that database's
request lock, returning a uniform
:class:`~repro.server.response.Response` for every call.  Three
disciplines come from the session's
:class:`~repro.server.options.SessionOptions`:

* **read_only** sessions get every write rejected with an error
  response (nothing executes);
* **autocommit** sessions realign views after every structured write;
  non-autocommit sessions batch writes through the pending-update log
  until ``commit``/``flush``;
* the **planner** tier — possibly downgraded by admission control —
  decides whether predicates run through the adaptive view layer or
  the always-correct full scan.

Repeatable reads come from *pinned snapshots*: ``snapshot(table, col)``
pins a copy-on-write point-in-time view of one column (plus the
tombstone bitmap as of pin time); subsequent ``query`` calls on that
column read the pinned state no matter how many writes other sessions
interleave, until ``release_snapshot``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..core.facade import AdaptiveDatabase
from ..core.query import exact_sum
from ..core.snapshot import ColumnSnapshot
from ..sql.errors import SqlError
from ..sql.executor import Session as SqlSession
from ..sql.nodes import (
    CreateTableStatement,
    DeleteStatement,
    FlushStatement,
    InsertStatement,
    UpdateStatement,
)
from ..sql.parser import parse
from .admission import AdmissionDecision
from .options import PLANNER_FULLSCAN, SessionOptions
from .response import Response, result_digest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .manager import DatabaseManager

#: Statement node types that mutate state (rejected in read-only sessions).
_WRITE_STATEMENTS = (
    CreateTableStatement,
    InsertStatement,
    UpdateStatement,
    DeleteStatement,
    FlushStatement,
)


class _PinnedSnapshot:
    """A column snapshot plus the tombstone bitmap as of pin time."""

    def __init__(self, snapshot: ColumnSnapshot, tombstones) -> None:
        self.snapshot = snapshot
        self.tombstones = tombstones

    def scan_filtered(self, lo: int, hi: int):
        """Range-filter the pinned state, honouring pin-time tombstones."""
        rowids, values = self.snapshot.scan(lo, hi)
        if self.tombstones is not None and rowids.size:
            keep = ~self.tombstones[rowids]
            rowids = rowids[keep]
            values = values[keep]
        return rowids, values

    def release(self) -> None:
        self.snapshot.release()


class Session:
    """One client's handle on a served database.

    Create via :meth:`DatabaseManager.open_session` (which runs
    admission control); use as a context manager so the admission slot
    is always released.
    """

    def __init__(
        self,
        manager: "DatabaseManager",
        db_name: str,
        session_id: int,
        options: SessionOptions,
        degraded: bool = False,
        admit_reason: str = "healthy",
    ) -> None:
        self.manager = manager
        self.db_name = db_name
        self.db = manager.database(db_name)
        self.session_id = session_id
        self.options = options
        #: Latched by admission control (or the fullscan planner option):
        #: every query in this session runs on the full-scan tier.
        self.degraded = degraded
        self.admit_reason = admit_reason
        self._lock = manager.lock(db_name)
        self._admission = manager.admission(db_name)
        self._sequence = 0
        self._sql: SqlSession | None = None
        self._pinned: dict[tuple[str, str], _PinnedSnapshot] = {}
        self._closed = False

    # -- plumbing -------------------------------------------------------

    def _observer(self):
        obs = self.db.observer
        if obs is None or not self.options.observe:
            return None
        return obs

    def _respond(self, op: str, fn, write: bool = False) -> Response:
        """Run ``fn`` under the database lock, producing a Response.

        The envelope work — sequence counter, read-only gate, simulated
        time attribution, observer hooks — is all uncharged, so a
        quiescent single-session serve stays bit-identical in simulated
        cost to driving the facade directly.
        """
        self._sequence += 1
        sequence = self._sequence
        if self._closed:
            return Response.failure(
                op,
                "session is closed",
                session_id=self.session_id,
                sequence=sequence,
                error_details="SessionClosed",
            )
        if write and self.options.read_only:
            return Response.failure(
                op,
                "session is read-only",
                session_id=self.session_id,
                sequence=sequence,
                error_details="ReadOnlySession",
            )
        with self._lock:
            obs = self._observer()
            before = self.db.total_sim_ns()
            try:
                if obs is not None:
                    with obs.span(
                        "server.request",
                        op=op,
                        session=str(self.session_id),
                    ):
                        response = fn()
                else:
                    response = fn()
            except SqlError as exc:
                response = Response.failure(
                    op,
                    str(exc),
                    error_details=type(exc).__name__,
                )
            except (KeyError, IndexError, ValueError, RuntimeError) as exc:
                message = (
                    exc.args[0]
                    if isinstance(exc, KeyError) and exc.args
                    else str(exc)
                )
                response = Response.failure(
                    op,
                    str(message),
                    error_details=type(exc).__name__,
                )
            response.op = op
            response.session_id = self.session_id
            response.sequence = sequence
            response.sim_ns = self.db.total_sim_ns() - before
            if obs is not None:
                obs.on_server_request(op, response.sim_ns)
            return response

    def _sql_session(self) -> SqlSession:
        if self._sql is None:
            if not isinstance(self.db, AdaptiveDatabase):
                raise RuntimeError(
                    "SQL execution requires an unsharded database; "
                    f"{self.db_name!r} is sharded — use the structured "
                    "query/update operations instead"
                )
            self._sql = SqlSession(db=self.db)
        return self._sql

    def _query_tier(self) -> bool:
        """True when this query must run on the full-scan tier."""
        decision = self._admission.decide_query(
            self.degraded, self.session_id
        )
        return decision is AdmissionDecision.DEGRADE

    # -- SQL ------------------------------------------------------------

    def execute(self, sql: str) -> Response:
        """Parse and execute one SQL statement."""

        def run() -> Response:
            statement = parse(sql)
            if self.options.read_only and isinstance(
                statement, _WRITE_STATEMENTS
            ):
                return Response.failure(
                    "sql",
                    "session is read-only",
                    error_details="ReadOnlySession",
                )
            sql_session = self._sql_session()
            sql_session.set_planner(
                PLANNER_FULLSCAN if self._query_tier() else self.options.planner
            )
            result = sql_session.execute(statement)
            if self.options.autocommit and isinstance(
                statement, (UpdateStatement, DeleteStatement)
            ):
                self._flush_table(statement.table)
            return Response.from_result("sql", result)

        return self._respond("sql", run)

    # -- structured operations ------------------------------------------

    def query(
        self,
        table: str,
        column: str,
        lo: int,
        hi: int,
        include_values: bool = False,
    ) -> Response:
        """Range query one column; reads the pinned snapshot if any.

        The response carries the row count, exact value sum, an
        order-invariant result digest and the planner tier used; with
        ``include_values`` the full (rowids, values) lists ship too.
        The sum and the digest are taken after the database lock is
        released: the result arrays are the response's own.
        """
        results: list[tuple[np.ndarray, np.ndarray]] = []

        def run() -> Response:
            pinned = self._pinned.get((table, column))
            if pinned is not None:
                rowids, values = pinned.scan_filtered(lo, hi)
                data = {
                    "rows": int(rowids.size),
                    "value_sum": None,
                    "checksum": None,
                    "snapshot": True,
                    "degraded": False,
                }
            else:
                degraded = self._query_tier()
                if degraded:
                    result = self.db.scan(table, column, lo, hi)
                else:
                    result = self.db.query(table, column, lo, hi)
                rowids, values = result.rowids, result.values
                data = {
                    "rows": int(rowids.size),
                    "value_sum": None,
                    "checksum": None,
                    "snapshot": False,
                    "degraded": degraded,
                    "pages_scanned": result.stats.pages_scanned,
                    "views_used": result.stats.views_used,
                }
            if include_values:
                data["rowids"] = [int(r) for r in rowids.tolist()]
                data["values"] = [int(v) for v in values.tolist()]
            results.append((rowids, values))
            return Response(op="query", data=data)

        response = self._respond("query", run)
        if response.ok:
            rowids, values = results[0]
            response.data["value_sum"] = exact_sum(values)
            response.data["checksum"] = result_digest(rowids, values)
        return response

    def update(self, table: str, column: str, row: int, value: int) -> Response:
        """Write one value; autocommit sessions realign views at once."""

        def run() -> Response:
            old = self.db.update(table, column, int(row), int(value))
            flushed = False
            if self.options.autocommit:
                self.db.flush_updates(table, column)
                flushed = True
            return Response(
                op="update",
                message="1 row updated",
                data={"old_value": int(old), "flushed": flushed},
            )

        return self._respond("update", run, write=True)

    def delete(self, table: str, column: str, lo: int, hi: int) -> Response:
        """Tombstone every row with ``column`` in ``[lo, hi]``."""

        def run() -> Response:
            deleted = self.db.delete(table, column, lo, hi)
            return Response(
                op="delete",
                message=f"{deleted} rows deleted",
                data={"deleted": int(deleted)},
            )

        return self._respond("delete", run, write=True)

    def flush(self, table: str, column: str | None = None) -> Response:
        """Realign views with pending updates (one column or all)."""

        def run() -> Response:
            flushed = self._flush_table(table, column)
            return Response(
                op="flush",
                message=f"{flushed} columns flushed",
                data={"columns_flushed": flushed},
            )

        return self._respond("flush", run, write=True)

    def commit(self) -> Response:
        """Flush every pending update batch across all tables."""

        def run() -> Response:
            flushed = 0
            for name in self.db.table_names():
                flushed += self._flush_table(name)
            return Response(
                op="commit",
                message=f"{flushed} columns flushed",
                data={"columns_flushed": flushed},
            )

        return self._respond("commit", run, write=True)

    def _flush_table(self, table_name: str, column: str | None = None) -> int:
        """Flush pending updates of one table; returns columns flushed."""
        table = self.db.table(table_name)
        if isinstance(self.db, AdaptiveDatabase):
            names = table.column_names if column is None else [column]
            pending = [
                name
                for name in names
                if len(table.pending_updates(name))
            ]
        else:
            names = list(table.columns) if column is None else [column]
            pending = [
                name
                for name in names
                if table.column(name).pending_update_count
            ]
        for name in pending:
            self.db.flush_updates(table_name, name)
        return len(pending)

    # -- snapshot reads --------------------------------------------------

    def snapshot(self, table: str, column: str) -> Response:
        """Pin a repeatable-read snapshot of one column.

        Until released, every ``query`` on (table, column) in this
        session reads the pinned point-in-time state — copy-on-write
        preserved against writes from any session — with tombstones
        frozen as of pin time.
        """

        def run() -> Response:
            if not isinstance(self.db, AdaptiveDatabase):
                raise RuntimeError(
                    "snapshot reads require an unsharded database"
                )
            key = (table, column)
            if key in self._pinned:
                raise RuntimeError(
                    f"snapshot already pinned on {table}.{column}"
                )
            snap = self.db.snapshot(table, column)
            tombstones = self.db.table(table).tombstones.mask()
            self._pinned[key] = _PinnedSnapshot(snap, tombstones)
            return Response(
                op="snapshot",
                message=f"snapshot {snap.snapshot_id} pinned on {table}.{column}",
                data={
                    "snapshot_id": snap.snapshot_id,
                    "table": table,
                    "column": column,
                },
            )

        return self._respond("snapshot", run)

    def release_snapshot(self, table: str, column: str) -> Response:
        """Release the pinned snapshot on (table, column)."""

        def run() -> Response:
            pinned = self._pinned.pop((table, column), None)
            if pinned is None:
                raise RuntimeError(
                    f"no snapshot pinned on {table}.{column}"
                )
            copied = pinned.snapshot.copied_pages
            pinned.release()
            return Response(
                op="release_snapshot",
                message=f"snapshot released ({copied} pages were preserved)",
                data={"copied_pages": int(copied)},
            )

        return self._respond("release_snapshot", run)

    # -- introspection ---------------------------------------------------

    def status(self) -> Response:
        """Health, admission counters and this session's settings."""

        def run() -> Response:
            return Response(
                op="status",
                data={
                    "session_id": self.session_id,
                    "db": self.db_name,
                    "health": self.db.health().value,
                    "degraded": self.degraded,
                    "admit_reason": self.admit_reason,
                    "options": self.options.to_mapping(),
                    "admission": self._admission.status().to_dict(),
                    "ledger_ns": self.db.total_sim_ns(),
                    "pinned_snapshots": [
                        f"{t}.{c}" for (t, c) in self._pinned
                    ],
                },
            )

        return self._respond("status", run)

    def accumulated_sim_ms(self) -> float:
        """The database's total simulated main-lane time, in ms."""
        return self.db.total_sim_ns() / 1e6

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release pinned snapshots and the admission slot."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            for pinned in self._pinned.values():
                pinned.release()
            self._pinned.clear()
            self._admission.release_session(self.session_id)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
