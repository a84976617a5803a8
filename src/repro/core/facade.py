"""High-level facade: a small database with adaptive storage built in.

:class:`AdaptiveDatabase` wires the pieces together for application code
and the examples: a catalog of tables, one adaptive storage layer per
column (created lazily), range queries routed through the views, and a
batched update path that keeps all partial views aligned.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Mapping, Sequence

import numpy as np

from ..faults.plane import suppress_faults
from ..obs.observer import Observer
from ..resilience.policy import HealthState, ResilienceConfig, worst_health
from ..storage import layout
from ..storage.column import PhysicalColumn
from ..storage.page import clamp_range
from ..storage.table import Catalog, Table
from ..substrate import Substrate, make_substrate
from ..tier import TierConfig, TieredPageStore, WriteBuffer
from ..vm.cost import CostModel
from ..vm.physical import PhysicalMemory
from ..wal.config import DurabilityConfig
from ..wal.log import WalFullError, WriteAheadLog
from ..wal.records import encode_array
from .adaptive import AdaptiveStorageLayer, QueryResult
from .config import AdaptiveConfig
from .snapshot import ColumnSnapshot, SnapshotManager
from .stats import MaintenanceStats

#: Write-buffer auto-merge threshold for untiered databases (tiered
#: databases configure it via :attr:`TierConfig.write_buffer_rows`).
DEFAULT_WRITE_BUFFER_ROWS = 1024

#: Checkpoint archive file name inside a durable directory.
CHECKPOINT_FILE = "checkpoint.npz"


def _fsync_path(path: str) -> None:
    """fsync a file or directory by path."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class AdaptiveDatabase:
    """A column-store whose storage layer indexes itself adaptively."""

    def __init__(
        self,
        config: AdaptiveConfig | None = None,
        capacity_bytes: int = PhysicalMemory.DEFAULT_CAPACITY_BYTES,
        cost: CostModel | None = None,
        auto_flush_threshold: int | None = None,
        observe: bool | Observer = False,
        backend: str | Substrate = "simulated",
        resilience: ResilienceConfig | None = None,
        tiering: TierConfig | None = None,
        durable_dir: str | None = None,
        durability: DurabilityConfig | None = None,
    ) -> None:
        """``auto_flush_threshold`` enables automatic batch view
        realignment: once a column's pending update log reaches the
        threshold, :meth:`update` triggers a flush (Section 2.4 argues
        for adjustable batches; this is the adjustable policy).

        ``observe=True`` attaches an :class:`~repro.obs.observer.Observer`
        (exposed as :attr:`observer`): every layer then records trace
        spans, metrics and lifecycle events.  Pass a pre-built
        :class:`Observer` to share one across databases.  Off by default:
        no observation work happens, and simulated timings are identical
        either way because observation never charges the cost ledger.

        ``backend`` selects the memory substrate the whole stack runs
        on: ``"simulated"`` (default — deterministic, cost-modelled) or
        ``"native"`` (real Linux memfd files and ``mmap(MAP_FIXED)``
        rewiring; Linux only).  A pre-built
        :class:`~repro.substrate.interface.Substrate` is also accepted.

        ``resilience`` arms the self-healing layer (retry with simulated
        backoff, view quarantine-and-rebuild, the maps-line
        :class:`~repro.budget.Budget`) on every storage layer.  Disarmed (the default), no
        resilience code runs and cost ledgers are bit-identical to a
        build without the subsystem.

        ``tiering`` arms tiered page storage: every column the database
        creates is wrapped in a
        :class:`~repro.tier.TieredPageStore` whose hot pages a
        :class:`~repro.budget.Budget` caps (see ``docs/tiering.md``).  Disarmed
        (the default), storage stays untiered and cost ledgers are
        bit-identical to a build without the subsystem.

        ``durable_dir`` arms write-ahead durability: every logical
        write (create/insert/update/delete) is journaled to a
        :class:`~repro.wal.log.WriteAheadLog` under the directory
        *before* it is applied — and therefore before any caller sees
        it acknowledged.  ``durability`` tunes the log (fsync policy,
        segment size, size cap); passing it without ``durable_dir`` is
        an error.  Disarmed (the default), no WAL code runs and cost
        ledgers are bit-identical to a build without the subsystem.
        Use :meth:`recover` to reopen a durable directory after a
        crash (checkpoint load + WAL tail replay).
        """
        if auto_flush_threshold is not None and auto_flush_threshold < 1:
            raise ValueError("auto_flush_threshold must be positive")
        self.config = config or AdaptiveConfig()
        self.auto_flush_threshold = auto_flush_threshold
        self.substrate = make_substrate(
            backend, capacity_bytes=capacity_bytes, cost=cost
        )
        self.catalog = Catalog(substrate=self.substrate)
        #: The attached observer, or None when observation is off.
        self.observer: Observer | None = None
        if observe:
            self.observer = (
                observe
                if isinstance(observe, Observer)
                else Observer(
                    self.catalog.cost.ledger, wall=self.substrate.wall
                )
            )
            self.substrate.set_observer(self.observer)
        #: The resilience configuration every layer is armed with, or
        #: None when the subsystem is off.
        self.resilience_config = resilience
        #: The tiering configuration every column is wrapped with, or
        #: None when storage is untiered (the default).
        if tiering is not None and not isinstance(tiering, TierConfig):
            raise TypeError(
                f"tiering must be a TierConfig or None, got {tiering!r}"
            )
        self.tiering = tiering
        #: Durable-journal state.  All of it stays inert (None / False)
        #: when durability is off, so the untiered/undurable fast paths
        #: and their cost bit-identity contracts are untouched.
        self.durable_dir = durable_dir
        self.durability: DurabilityConfig | None = None
        self._wal: WriteAheadLog | None = None
        self._replaying = False
        self._last_acked_lsn = 0
        if durable_dir is not None:
            self.durability = durability or DurabilityConfig()
            self._wal = WriteAheadLog(
                durable_dir,
                self.durability,
                substrate=self.substrate,
                cost=self.cost,
                observer=self.observer,
            )
            self._last_acked_lsn = self._wal.lsn
        elif durability is not None:
            raise ValueError("durability= requires durable_dir=")
        self._write_buffers: dict[str, WriteBuffer] = {}
        self._spill_dir: str | None = None
        self._layers: dict[tuple[str, str], AdaptiveStorageLayer] = {}
        self._snapshot_managers: dict[tuple[str, str], SnapshotManager] = {}

    @property
    def cost(self) -> CostModel:
        """The shared cost model (simulated time, operation counters)."""
        return self.catalog.cost

    # -- the durable journal ---------------------------------------------

    def _journal(self, record: dict) -> None:
        """Append one logical-op record to the WAL (journal-before-ack).

        No-op when durability is off or while recovery is replaying
        the log back into this database.  The assigned LSN becomes the
        acknowledgement watermark the ``wal-consistency`` audit checks.
        """
        if self._wal is None or self._replaying:
            return
        self._last_acked_lsn = self._wal.append(record)

    # -- schema ---------------------------------------------------------

    def create_table(self, name: str, data: Mapping[str, np.ndarray]) -> Table:
        """Create a table from per-column value arrays.

        With tiering armed, every new column's backing store is wrapped
        in a :class:`~repro.tier.TieredPageStore` and demoted down to
        the hot budget before any view exists.  Every value must be an
        integer int64 holds exactly
        (:func:`~repro.storage.layout.int64_values`); otherwise
        :class:`ValueError` names the column.  A refused create (that
        rule, a taken name, no columns, a column that is not 1-D, row
        counts that disagree) builds no column and journals nothing.
        """
        # Validate everything the apply path would reject before any
        # column is built or the op journaled: a refused create leaves
        # no file behind and never reaches the log.
        data = {
            column: layout.int64_values(values, f"{name}.{column}")
            for column, values in data.items()
        }
        if any(t.name == name for t in self.catalog.tables()):
            raise ValueError(f"table {name!r} already exists")
        if not data:
            raise ValueError("a table needs at least one column")
        if any(values.ndim != 1 for values in data.values()):
            raise ValueError("column values must be a 1-D array")
        row_counts = {values.size for values in data.values()}
        if len(row_counts) != 1:
            raise ValueError(f"columns disagree on row count: {row_counts}")
        if self._wal is not None and not self._replaying:
            self._journal(
                {
                    "type": "create",
                    "table": name,
                    # Sorted keys lose the definition order, and binary
                    # insert rows are positional in it.
                    "order": list(data),
                    "columns": {
                        column: encode_array(values)
                        for column, values in data.items()
                    },
                }
            )
        table = self.catalog.create_table(name, data)
        if self.tiering is not None:
            for column in table.columns.values():
                self._tier_column(column)
        return table

    def _tier_column(self, column: PhysicalColumn) -> None:
        """Give one column its tier (placement set): the one place
        ``column.tier`` is set."""
        tier = TieredPageStore(
            column.file,
            self.substrate,
            self.tiering,
            observer=self.observer,
            spill_dir=self._spill_directory(),
        )
        tier.initial_placement(self.cost)
        column.tier = tier

    def _spill_directory(self) -> str | None:
        """Directory for real spill files (native backend only)."""
        if self.substrate.backend != "native":
            return None
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="repro-tier-")
        return self._spill_dir

    def table(self, name: str) -> Table:
        """Look up a table."""
        return self.catalog.get_table(name)

    def table_names(self) -> list[str]:
        """Names of all tables, in creation order."""
        return [table.name for table in self.catalog.tables()]

    def layer(self, table_name: str, column_name: str) -> AdaptiveStorageLayer:
        """The adaptive storage layer of one column (created on demand)."""
        key = (table_name, column_name)
        if key not in self._layers:
            table = self.table(table_name)
            layer = AdaptiveStorageLayer(
                table.column(column_name),
                self.config,
                observer=self.observer,
                resilience=self.resilience_config,
            )
            layer.adopt_pending(table.pending_updates(column_name))
            self._layers[key] = layer
        return self._layers[key]

    # -- queries ----------------------------------------------------------

    def query(
        self, table_name: str, column_name: str, lo: int, hi: int
    ) -> QueryResult:
        """Answer ``SELECT ... WHERE column BETWEEN lo AND hi``.

        Routed through the column's views; partial views are created and
        refined as a side product.  Pending updates stay pending: the
        read also scans the pages they dirtied that its views do not
        map, and the views realign once, when the batch is flushed.
        """
        table = self.table(table_name)
        layer = self.layer(table_name, column_name)
        result = layer.answer_query(lo, hi).drop_deleted(table.tombstones)
        self._merge_staged(table_name, table, column_name, result, lo, hi)
        return result

    def scan(
        self, table_name: str, column_name: str, lo: int, hi: int
    ) -> QueryResult:
        """Full-view scan of ``[lo, hi]``: no routing, no view adaptation.

        The serving layer's downgrade path — always correct (the full
        view maps every page, so pending updates are visible and moved
        values are never missed) and side-effect free on the view
        catalog.  Tombstoned rows are filtered like :meth:`query`.
        """
        table = self.table(table_name)
        layer = self.layer(table_name, column_name)
        result = layer.scan_full(lo, hi).drop_deleted(table.tombstones)
        self._merge_staged(table_name, table, column_name, result, lo, hi)
        return result

    def _merge_staged(
        self,
        table_name: str,
        table: Table,
        column_name: str,
        result: QueryResult,
        lo: int,
        hi: int,
    ) -> None:
        """Overlay staged (unmerged) inserts onto a query result.

        Staged rows live in the write buffer until the next merge; they
        are visible to queries immediately, charged as one sequential
        pass over the buffer.
        """
        buffer = self._write_buffers.get(table_name)
        if buffer is None or not len(buffer):
            return
        lo, hi = clamp_range(lo, hi)
        self.cost.sequential_values(len(buffer))
        rowids, values = buffer.matching(
            column_name, lo, hi, base_row=table.num_rows
        )
        if rowids.size:
            result.rowids = np.concatenate([result.rowids, rowids])
            result.values = np.concatenate([result.values, values])
            result.stats.result_rows = int(result.rowids.size)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self, table_name: str, column_name: str) -> ColumnSnapshot:
        """Pin a point-in-time snapshot of one column.

        The snapshot starts as a single shared mapping (no copying);
        pages the live column later overwrites are preserved
        copy-on-write, so the snapshot always reads the column exactly
        as it was at creation time.  Release it (or close the database)
        when done.
        """
        key = (table_name, column_name)
        manager = self._snapshot_managers.get(key)
        if manager is None:
            column = self.table(table_name).column(column_name)
            manager = SnapshotManager(column)
            self._snapshot_managers[key] = manager
        return manager.create_snapshot()

    def explain(
        self,
        table_name: str,
        column_name: str,
        lo: int,
        hi: int,
        analyze: bool = False,
    ):
        """``EXPLAIN [ANALYZE]`` one range query over a column.

        Returns an :class:`~repro.obs.calibration.ExplainReport`: the
        views the router would pick, the pages they cover and the
        predicted simulated scan cost.  With ``analyze`` the query
        actually runs (views adapt, the ledger is charged) and the
        report adds the recorded span tree — per node simulated cost,
        measured wall-clock on the native backend, pages touched — plus
        the planner's predicted-vs-actual row.
        """
        from ..obs.calibration import explain_range_query

        return explain_range_query(
            self.layer(table_name, column_name),
            lo,
            hi,
            analyze=analyze,
            target=f"{table_name}.{column_name}",
        )

    def calibration_report(self, threshold: float = 0.5):
        """Pair this database's simulated charges with wall-clock time.

        Ingests every wall-timed span still buffered in the attached
        observer's tracer and returns a
        :class:`~repro.obs.calibration.CalibrationReport` with per-kind
        measured/predicted ratios and drift findings.  Requires
        ``observe=True``; only native-backend sessions carry wall
        readings (on the simulated backend the report is empty).
        """
        if self.observer is None:
            raise RuntimeError(
                "calibration_report() needs observe=True — the report is "
                "built from the observer's recorded spans"
            )
        from ..obs.calibration import CalibrationModel, build_report

        model = CalibrationModel(self.cost.params)
        paired = model.ingest(self.observer.tracer)
        model.publish(self.observer, threshold)
        wall = self.substrate.wall
        return build_report(
            model,
            backend=self.substrate.backend,
            threshold=threshold,
            wall_ops=wall.snapshot() if wall is not None else {},
            meta={
                "wall_paired_spans": paired,
                "total_spans": self.observer.tracer.total_spans,
            },
        )

    def delete(
        self, table_name: str, column_name: str, lo: int, hi: int
    ) -> int:
        """Delete all rows whose ``column_name`` value lies in
        ``[lo, hi]``; returns the number of rows deleted.

        Deletion tombstones the rows — physical pages and views stay in
        place, and every later selection filters the tombstones out.
        """
        if self._write_buffers.get(table_name):
            self.flush_inserts(table_name)
        result = self.query(table_name, column_name, lo, hi)
        return self.delete_rows(table_name, result.rowids)

    def delete_rows(self, table_name: str, rowids: np.ndarray) -> int:
        """Tombstone the given rows; returns how many were newly deleted.

        Staged rows merge first, so a rowid :meth:`insert` returned can
        be deleted.  The rowids are journaled before they are applied.
        """
        if self._write_buffers.get(table_name):
            self.flush_inserts(table_name)
        table = self.table(table_name)
        rowids = np.asarray(rowids, dtype=np.int64)
        if self._wal is not None and not self._replaying:
            if rowids.size and (rowids.min() < 0 or rowids.max() >= table.num_rows):
                raise IndexError("row id out of range in delete")  # validate first
            # Journal the *resolved* rowids, not the predicate: replay
            # must not depend on what the views look like at replay
            # time, only on the log's total order.
            self._journal(
                {"type": "delete", "table": table_name, "rowids": rowids.tolist()}
            )
        return table.delete_rows(rowids)

    # -- updates -----------------------------------------------------------

    def update(
        self, table_name: str, column_name: str, row: int, new_value: int
    ) -> int:
        """Update one value (written through the full view, logged).

        With an ``auto_flush_threshold`` set, reaching the threshold
        realigns the column's partial views automatically.
        """
        table = self.table(table_name)
        if self._wal is not None and not self._replaying:
            table.column(column_name)  # journal-before-apply: validate
            if table.is_deleted(row):  # raises IndexError out of range
                raise KeyError(f"cannot update deleted row {row}")
            self._journal(
                {
                    "type": "update",
                    "table": table_name,
                    "column": column_name,
                    "row": int(row),
                    "value": int(new_value),
                }
            )
        old = table.update(column_name, row, new_value)
        if (
            self.auto_flush_threshold is not None
            and len(table.pending_updates(column_name)) >= self.auto_flush_threshold
        ):
            self.flush_updates(table_name, column_name)
        return old

    def flush_updates(self, table_name: str, column_name: str) -> MaintenanceStats:
        """Align the column's partial views with all pending updates."""
        table = self.table(table_name)
        batch = table.drain_updates(column_name)
        return self.layer(table_name, column_name).apply_updates(batch)

    # -- ingest ------------------------------------------------------------

    def insert(self, table_name: str, values: Mapping[str, int]) -> int:
        """Stage one row for append; returns its future rowid.

        Rows accumulate in a per-table write buffer (visible to queries
        immediately) and are merged into the columns in one batch when
        the buffer reaches its threshold, or on an explicit
        :meth:`flush_inserts`.
        """
        table = self.table(table_name)
        buffer = self._write_buffers.get(table_name)
        if buffer is None:
            buffer = self._write_buffer(table)
        return self._stage(table, buffer, (buffer.validated(values),))

    def insert_rows(
        self,
        table_name: str,
        rows: Sequence[Mapping[str, int] | Sequence[int]],
    ) -> int:
        """Stage several rows all-or-nothing; returns the first one's
        future rowid.

        Each row names the table's columns or lists their values in
        definition order (:meth:`~repro.tier.WriteBuffer.validated`).
        Every row is validated, and with durability armed all their
        frames are checked against the log's size cap, before the first
        is journaled: a refused statement journals and stages nothing.
        The buffer's threshold merge waits for the last row, so no merge
        record lands between them.
        """
        table = self.table(table_name)
        buffer = self._write_buffer(table)
        checked = [buffer.validated(values) for values in rows]
        if len(checked) > 1 and self._wal is not None and not self._replaying:
            # one row's own append checks the cap, in the protocol's order
            self._wal.check_rows_fit(table_name, len(table.column_names), len(checked))
        return self._stage(table, buffer, checked)

    def _stage(
        self, table: Table, buffer: WriteBuffer, rows: Sequence[tuple[int, ...]]
    ) -> int:
        """Journal and stage validated rows, then merge once the buffer
        reaches its threshold; returns the first row's future rowid."""
        # Journal-before-apply: validate -> append -> stage, so a refused
        # row never reaches the log and a journaled one is never refused.
        wal = None if self._replaying else self._wal
        if wal is None:
            position = buffer.stage(rows)
        else:
            position = len(buffer)
            for row in rows:  # a wal_append fault refuses its row alone
                self._last_acked_lsn = wal.append_row(table.name, row)
                buffer.stage((row,))
        first = table.num_rows + position
        threshold = (
            self.tiering.write_buffer_rows
            if self.tiering is not None
            else DEFAULT_WRITE_BUFFER_ROWS
        )
        # During replay, merges happen exactly where the log's merge
        # records sit, never from the threshold.
        if position + len(rows) >= threshold and not self._replaying:
            self.flush_inserts(table.name)
        return first

    def _write_buffer(self, table: Table) -> WriteBuffer:
        """The table's write buffer, created on first use."""
        buffer = self._write_buffers.get(table.name)
        if buffer is None:
            buffer = WriteBuffer(table.column_names)
            self._write_buffers[table.name] = buffer
        return buffer

    def flush_inserts(self, table_name: str) -> dict:
        """Merge the table's staged rows into its columns.

        Pending in-place updates flush first (the merge must not race a
        stale update log), then every column is grown and the staged
        values appended, and finally each instantiated layer rebuilds
        its views for the new capacity (partials are dropped as
        ``DROPPED_GROWTH``; the full view is recreated).
        """
        table = self.table(table_name)
        buffer = self._write_buffers.get(table_name)
        rows = len(buffer) if buffer is not None else 0
        if rows == 0:
            return {"merged_rows": 0, "new_rows": table.num_rows}
        if self._wal is not None and not self._replaying:
            try:
                self._journal({"type": "merge", "table": table_name})
            except WalFullError:
                # A merge is physical layout, not logical content: the
                # staged rows are already individually journaled, and
                # recovery merges on demand.  Proceed without a marker
                # rather than wedging ingest behind a full log.
                pass
        for column_name in table.column_names:
            if len(table.pending_updates(column_name)):
                self.flush_updates(table_name, column_name)
        old_rows = table.num_rows
        new_rows = old_rows + rows
        for column_name, column in table.columns.items():
            self._append_to_column(
                column, buffer.column_values(column_name), old_rows, new_rows
            )
            if column.tier is not None:
                # resize marks appended pages hot; demote back to budget
                column.tier.maintenance(self.cost)
        table.grow_rows(rows)
        buffer.clear()
        with suppress_faults(self.substrate):
            for (t_name, column_name), layer in self._layers.items():
                if t_name == table_name:
                    layer.rebind_storage()
        return {"merged_rows": rows, "new_rows": new_rows}

    def _append_to_column(
        self,
        column: PhysicalColumn,
        values: np.ndarray,
        old_rows: int,
        new_rows: int,
    ) -> None:
        per_page = column.values_per_page
        file = column.file
        if old_rows % per_page != 0:
            # the partial last page is about to change: COW-preserve it
            page = layout.row_to_page(old_rows, per_page)
            for hook in column._pre_write_hooks:
                hook(old_rows, page)
        new_pages = layout.pages_for_rows(new_rows, per_page)
        tier = column.tier
        if new_pages > file.num_pages:
            file.resize(new_pages)
            if tier is not None:
                tier.resize(new_pages)
        layout.write_rows(file.data, old_rows, values)
        self.cost.value_write(values.size)
        column.num_rows = new_rows
        if tier is not None:
            for page in range(old_rows // per_page, new_pages):
                tier.record_write(page, self.cost)

    # -- auditing -----------------------------------------------------------

    def audit(self, max_content_pages: int | None = None):
        """Run the invariant auditor over every instantiated layer.

        Cross-checks view catalogs, VMAs/page tables, the bimap maps
        snapshot, and physical column contents.  Free of cost-model
        charges, so it can run after any operation.  Returns an
        :class:`~repro.audit.AuditReport`.
        """
        from ..audit.invariants import InvariantAuditor

        return InvariantAuditor(max_content_pages).audit_database(self)

    # -- resilience -----------------------------------------------------------

    def health(self) -> HealthState:
        """Database health: the worst health over all instantiated layers.

        HEALTHY when resilience is disarmed or no layer exists yet.
        Query results are correct in every state — READONLY only stops
        the adaptive side-work, never the full-scan fallback.

        With durability armed, the WAL's health folds in: persistent
        fsync failure → DEGRADED, log at its size cap → READONLY.
        """
        states = [layer.health() for layer in self._layers.values()]
        if self._wal is not None:
            states.append(self._wal.health())
        return worst_health(states)

    def repair(self) -> bool:
        """Rebuild every quarantined view across all layers, on demand.

        Pending updates are flushed first (a rebuild must not race a
        stale catalog), then each layer drains its quarantine.  Returns
        True when every layer converged to an empty quarantine.
        """
        converged = True
        for (table_name, column_name), layer in self._layers.items():
            table = self.table(table_name)
            if len(table.pending_updates(column_name)):
                layer.apply_updates(table.drain_updates(column_name))
            converged = layer.repair() and converged
        return converged

    def resilience_status(self) -> dict:
        """Aggregated resilience counters (per layer plus overall health)."""
        return {
            "health": self.health().value,
            "layers": {
                f"{table}.{column}": layer.resilience.status()
                for (table, column), layer in self._layers.items()
                if layer.resilience is not None
            },
        }

    def tier_status(self) -> dict:
        """Per-column tier placement counters (empty when untiered)."""
        status: dict[str, dict] = {}
        for table in self.catalog.tables():
            for column in table.columns.values():
                if column.tier is not None:
                    status[column.name] = column.tier.tier_status()
        return status

    def wal_status(self) -> dict:
        """WAL counters and policy ({} when durability is off)."""
        if self._wal is None:
            return {}
        status = self._wal.status()
        status["last_acked_lsn"] = self._last_acked_lsn
        return status

    # -- durability ----------------------------------------------------------

    def flush_all(self) -> None:
        """Flush every staged write down to the columns.

        Pending in-place updates realign their views, staged
        write-buffer rows merge, and (with durability armed) the WAL
        syncs — the graceful-shutdown path of the serving layer.
        """
        for table in self.catalog.tables():
            for column_name in table.column_names:
                if len(table.pending_updates(column_name)):
                    self.flush_updates(table.name, column_name)
        for table_name, buffer in list(self._write_buffers.items()):
            if len(buffer):
                self.flush_inserts(table_name)
        if self._wal is not None and not self._wal.closed:
            self._wal.sync()

    def checkpoint(self) -> dict:
        """Write a durable checkpoint and prune the WAL behind it.

        Staged rows merge first (with journaling suppressed — the
        checkpoint captures the merged state, so a marker would be
        redundant), the archive lands atomically via a temp file +
        rename, then segments fully covered by the checkpoint are
        deleted.  Under a syncing policy (``batch``/``always``) the
        archive is fsynced before the rename and the directory after
        it, so no segment is pruned before the archive that covers it
        would survive a power cut; ``off`` syncs neither.  These syncs
        are uncharged and consult no fault plane, like the archive
        write itself.  Pruning can clear a WAL-full READONLY latch.
        """
        if self._wal is None:
            raise RuntimeError("checkpoint() needs a durable database (durable_dir=)")
        from .checkpoint import save_database

        was_replaying = self._replaying
        self._replaying = True
        try:
            for table_name in list(self._write_buffers):
                self.flush_inserts(table_name)
        finally:
            self._replaying = was_replaying
        checkpoint_lsn = self._wal.lsn
        final = os.path.join(self.durable_dir, CHECKPOINT_FILE)
        tmp = os.path.join(self.durable_dir, "checkpoint.tmp.npz")
        save_database(self, tmp, wal_lsn=checkpoint_lsn)
        syncing = self.durability.fsync != "off"
        if syncing:
            _fsync_path(tmp)
        os.replace(tmp, final)
        if syncing:
            _fsync_path(self.durable_dir)  # the rename itself
        self._wal.prune(checkpoint_lsn)
        self._wal.record_checkpoint(checkpoint_lsn)
        return {
            "checkpoint_lsn": checkpoint_lsn,
            "path": final,
            "wal": self._wal.status(),
        }

    @classmethod
    def recover(
        cls,
        durable_dir: str,
        backend: str | Substrate = "simulated",
        durability: DurabilityConfig | None = None,
        **db_kwargs,
    ) -> "AdaptiveDatabase":
        """Crash-consistent reopen of a durable directory.

        Loads the latest checkpoint (if any), replays the WAL tail —
        truncating at the first torn record — and returns the recovered
        database, already journaling new writes to the same log.  The
        full :class:`~repro.wal.recovery.RecoveryReport` is available
        as ``db.last_recovery``.
        """
        from ..wal.recovery import recover_database

        db, _report = recover_database(
            durable_dir, backend=backend, durability=durability, **db_kwargs
        )
        return db

    # -- cost --------------------------------------------------------------

    def total_sim_ns(self) -> float:
        """Accumulated simulated main-lane time of the whole database.

        Uncharged bookkeeping read; the serving layer uses before/after
        deltas of this to attribute simulated cost to requests.
        """
        return self.cost.ledger.lane_ns()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut down all layers (stops background mapping threads),
        release pinned snapshots, and release backend resources (real
        mappings and file descriptors on the native backend; on the
        simulated one, the substrate's main-memory files are deleted
        from the machine, so the page stores are freed without a cyclic
        GC pass).  Durable databases flush staged writes and
        sync-close the WAL first, so a clean shutdown leaves nothing to
        replay."""
        if self._wal is not None and not self._wal.closed:
            try:
                self.flush_all()
            finally:
                self._wal.close()
        for manager in self._snapshot_managers.values():
            manager.close()
        self._snapshot_managers.clear()
        for layer in self._layers.values():
            layer.shutdown()
        self._layers.clear()
        for table in self.catalog.tables():
            for column in table.columns.values():
                if column.tier is not None:
                    column.tier.close()
        if self._spill_dir is not None:
            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None
        self.substrate.close()

    def __enter__(self) -> "AdaptiveDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
