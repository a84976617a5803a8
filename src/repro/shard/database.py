"""The sharded facade: one ``AdaptiveDatabase`` per shard, plus the gather.

:class:`ShardedDatabase` offers the ``AdaptiveDatabase`` query, update,
audit and resilience surface over page-aligned row slices of every
table.  Each shard *is* an :class:`~repro.core.facade.AdaptiveDatabase`
on its own substrate, so layers, update logs, tombstones and full-view
scans are the unsharded facade's own; this module adds only what spans
shards: the partition, the router, the scatter-gather
(:mod:`repro.shard.column`), update routing and the cross-shard audit.

``shards=1`` is the identity configuration: its ledger stays
bit-identical to an ``AdaptiveDatabase`` session replaying the same
workload (``tests/shard/test_parity.py`` fuzzes this).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np

from ..audit.report import AuditReport
from ..core.adaptive import QueryResult
from ..core.config import AdaptiveConfig
from ..core.facade import AdaptiveDatabase
from ..core.stats import MaintenanceStats
from ..obs.observer import Observer
from ..resilience.policy import HealthState, ResilienceConfig, worst_health
from ..seeds import derive_seed
from ..storage import layout
from ..substrate import Substrate
from ..vm.cost import PS_PER_NS, CostModel
from ..vm.physical import PhysicalMemory
from .column import Shard, ShardedColumn
from .partition import plan_partition
from .router import ShardRouter


def _slice_resilience(
    config: ResilienceConfig | None, index: int, num_shards: int
) -> ResilienceConfig | None:
    """Per-shard resilience config: budget sliced, jitter stream derived.

    At ``num_shards == 1`` the config passes through untouched — the
    identity contract includes the retry jitter stream.
    """
    if config is None or num_shards == 1:
        return config
    budget = config.mapping_budget
    return replace(
        config,
        mapping_budget=None if budget is None else max(budget // num_shards, 1),
        seed=derive_seed(index, config.seed),
    )


class _ShardedTable:
    """One table: its sharded columns, all over one partition."""

    def __init__(
        self, name: str, columns: dict[str, ShardedColumn], num_rows: int
    ) -> None:
        self.name = name
        self.columns = columns
        self.num_rows = num_rows

    def column(self, name: str) -> ShardedColumn:
        if name not in self.columns:
            raise KeyError(f"table {self.name!r} has no column {name!r}")
        return self.columns[name]


class ShardedDatabase:
    """A column-store whose storage runs partitioned across N shards."""

    def __init__(
        self,
        shards: int = 1,
        config: AdaptiveConfig | None = None,
        capacity_bytes: int = PhysicalMemory.DEFAULT_CAPACITY_BYTES,
        auto_flush_threshold: int | None = None,
        observe: bool | Observer = False,
        backend: str | Sequence[Substrate] = "simulated",
        resilience: ResilienceConfig | None = None,
        parallel: bool | None = None,
    ) -> None:
        """Mirror of ``AdaptiveDatabase``'s constructor plus ``shards``.

        ``backend`` names the backend of every shard, or gives one
        pre-built :class:`~repro.substrate.interface.Substrate` per
        shard (e.g. :class:`~repro.faults.plane.FaultySubstrate` s).
        ``config`` is shared; ``resilience`` is sliced per shard.

        ``parallel`` runs per-shard work on a thread pool; it defaults
        to True exactly when ``backend`` is ``"native"`` (whose mmap and
        scan work releases the GIL).  Simulated totals are identical
        either way: each shard charges its own ledger.

        ``observe=True`` attaches an :class:`~repro.obs.observer.Observer`
        over a facade-level *timeline* cost model that the ``shard.*``
        spans charge (see :class:`~repro.shard.column.ShardedColumn`);
        shard ledgers stay untouched.
        """
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if auto_flush_threshold is not None and auto_flush_threshold < 1:
            raise ValueError("auto_flush_threshold must be positive")
        backends = [backend] * shards if isinstance(backend, str) else backend
        if len(backends) != shards:
            raise ValueError(f"got {len(backends)} substrates for {shards} shards")
        config = config or AdaptiveConfig()
        self.num_shards = shards
        self.auto_flush_threshold = auto_flush_threshold
        self.parallel = backend == "native" if parallel is None else parallel
        #: One database per shard, holding that shard's slice of every table.
        self.shards: list[AdaptiveDatabase] = [
            AdaptiveDatabase(
                config=config,
                capacity_bytes=capacity_bytes,
                backend=shard_backend,
                resilience=_slice_resilience(resilience, index, shards),
            )
            for index, shard_backend in enumerate(backends)
        ]
        #: Facade-level cost model the scatter-gather spans charge (only
        #: written when observation is on; never a shard ledger).
        self.timeline = CostModel()
        self.observer: Observer | None = None
        if observe:
            self.observer = (
                observe
                if isinstance(observe, Observer)
                else Observer(
                    self.timeline.ledger, wall=self.substrates[0].wall
                )
            )
            for substrate in self.substrates:
                substrate.set_observer(self.observer)
        self._tables: dict[str, _ShardedTable] = {}

    @property
    def substrates(self) -> list[Substrate]:
        """One substrate per shard, shared by all tables' shard slices."""
        return [db.substrate for db in self.shards]

    # -- schema ---------------------------------------------------------

    def create_table(
        self, name: str, data: Mapping[str, np.ndarray]
    ) -> _ShardedTable:
        """Create a table, partitioning its rows across the shards.

        Every shard database gets one page-aligned row slice of every
        column, and its layers are built here, inside set-up.
        """
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        if not data:
            raise ValueError("a table needs at least one column")
        arrays = {
            col: layout.int64_values(values, f"{name}.{col}")
            for col, values in data.items()
        }
        row_counts = {values.size for values in arrays.values()}
        if len(row_counts) != 1:
            raise ValueError(f"columns disagree on row count: {row_counts}")
        num_rows = row_counts.pop()
        specs = plan_partition(num_rows, layout.records_per_page(), self.num_shards)
        for spec, db in zip(specs, self.shards):
            db.create_table(
                name,
                {
                    col: values[spec.row_start : spec.row_end]
                    for col, values in arrays.items()
                },
            )
            for col in arrays:
                db.layer(name, col)
        observer = self.observer
        columns = {
            col: ShardedColumn(
                f"{name}.{col}",
                [Shard(spec, db, name, col) for spec, db in zip(specs, self.shards)],
                ShardRouter.from_slices(
                    [values[spec.row_start : spec.row_end] for spec in specs]
                ),
                num_rows,
                observer=observer,
                timeline=self.timeline if observer is not None else None,
                parallel=self.parallel,
            )
            for col, values in arrays.items()
        }
        table = _ShardedTable(name, columns, num_rows)
        self._tables[name] = table
        return table

    def table(self, name: str) -> _ShardedTable:
        """Look up a table."""
        if name not in self._tables:
            raise KeyError(f"no such table: {name!r}")
        return self._tables[name]

    def column(self, table_name: str, column_name: str) -> ShardedColumn:
        """The sharded column behind one attribute."""
        return self.table(table_name).column(column_name)

    def table_names(self) -> list[str]:
        """Names of all tables, in creation order."""
        return list(self._tables)

    # -- queries ----------------------------------------------------------

    def query(
        self, table_name: str, column_name: str, lo: int, hi: int
    ) -> QueryResult:
        """Answer ``SELECT ... WHERE column BETWEEN lo AND hi``.

        Routed to the shards whose value bounds intersect the predicate;
        each shard database answers (and filters its tombstones), and
        the slices are scatter-gathered.
        """
        return self.column(table_name, column_name).query(lo, hi)

    def scan(
        self, table_name: str, column_name: str, lo: int, hi: int
    ) -> QueryResult:
        """Routed full-view scan: no view adaptation, no realignment."""
        return self.column(table_name, column_name).scan(lo, hi)

    def delete(
        self, table_name: str, column_name: str, lo: int, hi: int
    ) -> int:
        """Tombstone all rows with ``column_name`` in ``[lo, hi]``.

        The matching global rowids are split by shard and each shard
        database tombstones its own slice.
        """
        column = self.column(table_name, column_name)
        rowids = column.query(lo, hi).rowids
        deleted = 0
        for spec, db in zip(column.specs, self.shards):
            mine = rowids[(rowids >= spec.row_start) & (rowids < spec.row_end)]
            deleted += db.delete_rows(table_name, mine - spec.row_start)
        return deleted

    # -- updates -----------------------------------------------------------

    def update(
        self, table_name: str, column_name: str, row: int, new_value: int
    ) -> int:
        """Update one value on its owning shard (logged per shard)."""
        column = self.column(table_name, column_name)
        old = column.update(row, new_value)
        if (
            self.auto_flush_threshold is not None
            and column.pending_update_count >= self.auto_flush_threshold
        ):
            column.flush_updates()
        return old

    def flush_updates(
        self, table_name: str, column_name: str
    ) -> MaintenanceStats:
        """Realign the column's views across all shards with pending
        updates."""
        return self.column(table_name, column_name).flush_updates()

    def flush_all(self) -> None:
        """Realign every column with pending updates (router tightened)."""
        for table in self._tables.values():
            for column in table.columns.values():
                if column.pending_update_count:
                    column.flush_updates()

    # -- auditing ----------------------------------------------------------

    def audit(self, max_content_pages: int | None = None) -> AuditReport:
        """Invariant audit: every shard of every column, plus the
        cross-shard partition-coverage and router-bounds invariants."""
        report = AuditReport(backend=self.substrates[0].backend)
        for table_name in sorted(self._tables):
            table = self._tables[table_name]
            for column_name in sorted(table.columns):
                table.column(column_name).audit(
                    max_content_pages=max_content_pages,
                    label=f"{table_name}.{column_name}",
                    report=report,
                )
        return report

    # -- resilience --------------------------------------------------------

    def health(self) -> HealthState:
        """Worst health across the shard databases."""
        return worst_health(db.health() for db in self.shards)

    def repair(self) -> bool:
        """Flush, then repair every shard database; True when all converged."""
        self.flush_all()
        return all([db.repair() for db in self.shards])

    def resilience_status(self) -> dict:
        """Aggregated resilience counters, keyed ``table.column[shardN]``."""
        layers = {
            f"{key}[shard{index}]": status
            for index, db in enumerate(self.shards)
            for key, status in db.resilience_status()["layers"].items()
        }
        return {"health": self.health().value, "layers": layers}

    # -- cost --------------------------------------------------------------

    def merged_cost(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed (lanes, counters) over the per-shard ledgers.

        Exact under any thread interleaving and any shard order: each
        shard owns its ledger exclusively, and the lanes are summed as
        integer picoseconds before they are read in nanoseconds.
        """
        lanes: Counter = Counter()
        counters: Counter = Counter()
        for db in self.shards:
            shard_lanes, shard_counters = db.cost.ledger.snapshot_ps()
            lanes.update(shard_lanes)
            counters.update(shard_counters)
        return {lane: ps / PS_PER_NS for lane, ps in lanes.items()}, dict(counters)

    def total_sim_ns(self) -> float:
        """Accumulated simulated main-lane time, summed over the shards
        (uncharged, like :meth:`AdaptiveDatabase.total_sim_ns`, so the
        serving layer attributes request cost alike on either facade)."""
        return sum(db.total_sim_ns() for db in self.shards)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop the gather pools, then close and drop the shard databases.

        Dropping them (not only closing) releases their catalogs at once,
        so a database built right after can reuse that memory.
        """
        for table in self._tables.values():
            for column in table.columns.values():
                column.close()
        self._tables.clear()
        for db in self.shards:
            db.close()
        self.shards = []

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
