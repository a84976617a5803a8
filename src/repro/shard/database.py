"""The sharded facade: ``AdaptiveDatabase``'s scatter-gather sibling.

:class:`ShardedDatabase` mirrors the
:class:`~repro.core.facade.AdaptiveDatabase` surface — ``create_table``
/ ``query`` / ``update`` / ``delete`` / ``flush_updates`` / ``audit`` /
``health`` / ``repair`` — while partitioning every column across N
shards, each with its own substrate (see :mod:`repro.shard.column`).
The database owns one substrate per shard, shared by the shard slices
of all its tables, exactly as the unsharded facade hosts all columns on
one substrate.

``shards=1`` is the identity configuration: one substrate, no router
pruning, no gather arithmetic — simulated cost ledgers stay
bit-identical to an ``AdaptiveDatabase`` session replaying the same
workload (``tests/shard/test_parity.py`` fuzzes this).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..audit.report import AuditReport
from ..core.adaptive import QueryResult
from ..core.config import AdaptiveConfig
from ..core.stats import MaintenanceStats
from ..obs.observer import Observer
from ..resilience.policy import HealthState, ResilienceConfig, worst_health
from ..storage.tombstones import Tombstones
from ..substrate import Substrate, make_substrate
from ..vm.cost import CostModel
from ..vm.physical import PhysicalMemory
from .column import ShardedColumn


class _ShardedTable:
    """One table: sharded columns of equal row count plus tombstones."""

    def __init__(self, name: str, columns: dict[str, ShardedColumn]) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        row_counts = {col.num_rows for col in columns.values()}
        if len(row_counts) != 1:
            raise ValueError(f"columns disagree on row count: {row_counts}")
        self.name = name
        self.columns = columns
        self.num_rows = row_counts.pop()
        self.tombstones = Tombstones(self.num_rows)

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
        backend: str = "simulated",
        resilience: ResilienceConfig | None = None,
        parallel: bool | None = None,
    ) -> None:
        """Mirror of ``AdaptiveDatabase``'s constructor plus ``shards``.

        ``parallel`` switches per-shard execution onto a thread pool;
        it defaults to True exactly on the native backend (whose
        mmap/scan work releases the GIL).  Simulated cost totals are
        identical either way — each shard charges its own ledger and
        the totals merge commutatively.

        ``observe=True`` attaches an :class:`~repro.obs.observer.Observer`
        over a facade-level *timeline* cost model: the ``shard.gather``
        and ``shard.scan`` spans charge the shards' simulated times onto
        that timeline (main lane = serialized fan-out, one extra lane
        per shard), so Chrome trace exports show the scatter-gather with
        real durations while shard ledgers stay untouched.  Under
        thread-pool execution substrate-level hooks (mmap counters) stay
        detached — the metrics registry is single-threaded by design.
        """
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if auto_flush_threshold is not None and auto_flush_threshold < 1:
            raise ValueError("auto_flush_threshold must be positive")
        self.config = config or AdaptiveConfig()
        self.num_shards = shards
        self.auto_flush_threshold = auto_flush_threshold
        self.backend = backend
        self.resilience_config = resilience
        if parallel is None:
            parallel = backend == "native"
        self.parallel = parallel
        #: One substrate per shard, shared by all tables' shard slices.
        self.substrates: list[Substrate] = [
            make_substrate(backend, capacity_bytes=capacity_bytes)
            for _ in range(shards)
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
            if not parallel:
                for substrate in self.substrates:
                    substrate.set_observer(self.observer)
        self._tables: dict[str, _ShardedTable] = {}

    # -- schema ---------------------------------------------------------

    def create_table(
        self, name: str, data: Mapping[str, np.ndarray]
    ) -> _ShardedTable:
        """Create a table, partitioning every column across the shards."""
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        columns = {
            col_name: ShardedColumn.build(
                f"{name}.{col_name}",
                values,
                self.num_shards,
                config=self.config,
                substrates=self.substrates,
                resilience=self.resilience_config,
                observer=self.observer,
                timeline=self.timeline if self.observer is not None else None,
                parallel=self.parallel,
            )
            for col_name, values in data.items()
        }
        table = _ShardedTable(name, columns)
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
        per-shard results are scatter-gathered and tombstone-filtered.
        """
        table = self.table(table_name)
        result = table.column(column_name).query(lo, hi)
        keep = table.tombstones.live_row_mask(result.rowids)
        if keep is not None:
            result.rowids = result.rowids[keep]
            result.values = result.values[keep]
            result.stats.result_rows = int(result.rowids.size)
        return result

    def scan(
        self, table_name: str, column_name: str, lo: int, hi: int
    ) -> QueryResult:
        """Routed full-view scan (no view adaptation); tombstone-filtered."""
        table = self.table(table_name)
        result = table.column(column_name).scan(lo, hi)
        keep = table.tombstones.live_row_mask(result.rowids)
        if keep is not None:
            result.rowids = result.rowids[keep]
            result.values = result.values[keep]
            result.stats.result_rows = int(result.rowids.size)
        return result

    def delete(
        self, table_name: str, column_name: str, lo: int, hi: int
    ) -> int:
        """Tombstone all rows with ``column_name`` in ``[lo, hi]``."""
        result = self.query(table_name, column_name, lo, hi)
        return self.table(table_name).tombstones.delete_rows(result.rowids)

    # -- updates -----------------------------------------------------------

    def update(
        self, table_name: str, column_name: str, row: int, new_value: int
    ) -> int:
        """Update one value on its owning shard (logged per shard)."""
        table = self.table(table_name)
        if table.tombstones.is_deleted(row):
            raise KeyError(f"cannot update deleted row {row}")
        column = table.column(column_name)
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
        return self.table(table_name).column(column_name).flush_updates()

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
        """Worst health across every shard of every column."""
        return worst_health(
            column.health()
            for table in self._tables.values()
            for column in table.columns.values()
        )

    def repair(self) -> bool:
        """Repair every shard of every column; True when all converged."""
        converged = True
        for table in self._tables.values():
            for column in table.columns.values():
                converged = column.repair() and converged
        return converged

    def resilience_status(self) -> dict:
        """Aggregated resilience counters, keyed per column per shard."""
        layers: dict[str, dict] = {}
        for table_name, table in self._tables.items():
            for column_name, column in table.columns.items():
                status = column.resilience_status()
                for shard_key, shard_status in status["shards"].items():
                    layers[f"{table_name}.{column_name}[{shard_key}]"] = (
                        shard_status
                    )
        return {"health": self.health().value, "layers": layers}

    # -- cost --------------------------------------------------------------

    def merged_cost(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed (lanes, counters) over the per-shard ledgers.

        Deterministic under any thread interleaving: each shard owns its
        ledger exclusively and the merge is a commutative sum.
        """
        lanes: dict[str, float] = {}
        counters: dict[str, int] = {}
        for substrate in self.substrates:
            sub_lanes, sub_counters = substrate.cost.ledger.snapshot()
            for lane, ns in sub_lanes.items():
                lanes[lane] = lanes.get(lane, 0.0) + ns
            for op, count in sub_counters.items():
                counters[op] = counters.get(op, 0) + count
        return lanes, counters

    def total_sim_ns(self) -> float:
        """Accumulated simulated main-lane time, summed over the shards.

        Uncharged bookkeeping read mirroring
        :meth:`repro.core.facade.AdaptiveDatabase.total_sim_ns`, so the
        serving layer attributes per-request cost the same way on either
        facade.
        """
        total = 0.0
        for substrate in self.substrates:
            total += substrate.cost.ledger.lane_ns()
        return total

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut down every column's shards and release the substrates."""
        for table in self._tables.values():
            for column in table.columns.values():
                column.close()
        self._tables.clear()
        for substrate in self.substrates:
            substrate.close()

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
