"""The sharded column: one attribute scatter-gathered over N shard databases.

Each :class:`Shard` names one row slice of the column inside one shard
database — an :class:`~repro.core.facade.AdaptiveDatabase` on the
shard's own substrate — so a shard's adaptive layer, update log,
tombstones and full-view scan are the unsharded facade's own.

A range query is routed (:mod:`repro.shard.router`) to the shards whose
value bounds intersect it, answered by each shard database, and
gathered: shard-local rowids are offset into the global row space and
concatenated in ascending shard order, so the result does not depend on
interleaving.  With ``parallel=True`` the per-shard calls run on a
thread pool (the native backend's mmap/scan work releases the GIL);
simulated cost stays deterministic because each shard charges only its
own ledger.

Identity contract: at ``shards=1`` no router pruning, no bounds
bookkeeping and no gather arithmetic touches the single shard's path,
so its ledger stays bit-identical to an unsharded ``AdaptiveDatabase``
session (enforced by ``tests/shard/test_parity.py``).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from ..audit.report import AuditReport
from ..core.adaptive import AdaptiveStorageLayer, QueryResult
from ..core.facade import AdaptiveDatabase
from ..core.stats import MaintenanceStats, QueryStats, ViewEvent
from ..obs.observer import NULL_OBSERVER, NullObserver
from ..storage import layout
from ..storage.column import PhysicalColumn
from ..storage.page import clamp_range
from ..substrate import Substrate
from ..vm.cost import MAIN_LANE, CostModel, to_ps
from .partition import ShardSpec, check_partition, shard_of_row
from .router import ShardRouter


@dataclass
class Shard:
    """One shard of a column: its row slice inside one shard database."""

    spec: ShardSpec
    db: AdaptiveDatabase
    table: str
    column_name: str

    @property
    def layer(self) -> AdaptiveStorageLayer:
        """The slice's adaptive storage layer."""
        return self.db.layer(self.table, self.column_name)

    @property
    def column(self) -> PhysicalColumn:
        """The slice's physical column."""
        return self.db.table(self.table).column(self.column_name)

    @property
    def substrate(self) -> Substrate:
        """The shard database's substrate."""
        return self.db.substrate

    @property
    def cost(self) -> CostModel:
        """The shard's private cost model."""
        return self.db.cost

    @property
    def pending(self) -> int:
        """Updates written to the slice since its last view realignment."""
        return len(self.db.table(self.table).pending_updates(self.column_name))


def _checked_range(lo: int, hi: int) -> tuple[int, int]:
    if lo > hi:
        raise ValueError(f"inverted query range [{lo}, {hi}]")
    return clamp_range(lo, hi)


def _live_range(shard: Shard) -> tuple[int, int]:
    """Exact (min, max) of the slice's stored values (uncharged), read
    in place."""
    column = shard.column
    parts = [
        part
        for part in layout.split_rows(column.file.data, column.num_rows)
        if part.size
    ]
    return (
        int(min(part.min() for part in parts)),
        int(max(part.max() for part in parts)),
    )


class ShardedColumn:
    """One logical column partitioned across N shard databases."""

    def __init__(
        self,
        name: str,
        shards: list[Shard],
        router: ShardRouter,
        num_rows: int,
        observer: NullObserver | None = None,
        timeline: CostModel | None = None,
        parallel: bool = False,
    ) -> None:
        """Wire pre-built shards (``ShardedDatabase.create_table`` does).

        ``timeline`` is the facade-level cost model the scatter-gather
        spans charge (lane per shard plus the serialized main lane) so
        Chrome trace exports show the fan-out with real durations; it is
        never a shard ledger, so sharded observation stays free exactly
        like single-substrate observation.
        """
        if not shards:
            raise ValueError("a sharded column needs at least one shard")
        self.name = name
        self.shards = shards
        self.router = router
        self.num_rows = num_rows
        self.observer = observer or NULL_OBSERVER
        self._timeline = timeline
        self.parallel = parallel
        self._pool: ThreadPoolExecutor | None = None

    @property
    def num_shards(self) -> int:
        """Number of shards the column is partitioned into."""
        return len(self.shards)

    @property
    def specs(self) -> list[ShardSpec]:
        """The partition (one spec per shard, ascending)."""
        return [shard.spec for shard in self.shards]

    # -- scatter-gather execution ----------------------------------------

    def _run_over(self, indices: list[int], fn) -> list:
        """Run ``fn(shard)`` over the selected shards, results in order
        (on a thread pool, one worker per shard, with :attr:`parallel`)."""
        if len(indices) <= 1 or not self.parallel:
            return [fn(self.shards[i]) for i in indices]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_shards,
                thread_name_prefix=f"shard-{self.name}",
            )
        futures = [self._pool.submit(fn, self.shards[i]) for i in indices]
        return [future.result() for future in futures]

    def _routed_shards(self, lo: int, hi: int) -> list[int]:
        """Shards a query ``[lo, hi]`` must visit.

        The single-shard column skips the router entirely — part of the
        ``shards=1`` identity contract (an unsharded layer scans even
        for predicates outside the data's value range, so the sharded
        twin must too).
        """
        if self.num_shards == 1:
            return [0]
        return self.router.shards_for_range(lo, hi)

    def _gather(
        self, routed: list[int], results: list[QueryResult], lo: int, hi: int
    ) -> QueryResult:
        """Merge per-shard results into one global result (numpy concat).

        A shard's result arrays are its own (every read returns fresh
        ones), so its rowids are shifted by its ``row_start`` in place.
        """
        empty = np.empty(0, dtype=np.int64)
        if not results:
            stats = QueryStats(lo=lo, hi=hi)
            return QueryResult(rowids=empty, values=empty.copy(), stats=stats)
        for index, result in zip(routed, results):
            spec = self.shards[index].spec
            if spec.row_start:
                result.rowids += spec.row_start
        if len(results) == 1:
            # Pass the single shard's result through untouched: at
            # shards=1 this keeps stats (including the view event)
            # bit-identical to the unsharded facade.
            return results[0]
        rowids = np.concatenate([r.rowids for r in results])
        values = np.concatenate([r.values for r in results])
        stats = QueryStats(
            lo=lo,
            hi=hi,
            # Shards execute in parallel lanes: the merged response time
            # is the slowest routed shard (overlap semantics, like
            # Region.elapsed_ns(overlap=True)).
            sim_ns=max(r.stats.sim_ns for r in results),
            pages_scanned=sum(r.stats.pages_scanned for r in results),
            views_used=sum(r.stats.views_used for r in results),
            result_rows=int(rowids.size),
            view_event=ViewEvent.NONE,
            candidate_pages=sum(r.stats.candidate_pages for r in results),
            partial_views_after=sum(
                r.stats.partial_views_after for r in results
            ),
        )
        return QueryResult(rowids=rowids, values=values, stats=stats)

    def _scatter(self, lo: int, hi: int, kind: str) -> QueryResult:
        """Call the shard databases' ``query`` or ``scan`` on every
        routed shard and gather the tombstone-filtered slices.

        One ``shard.scan`` span per routed shard charges the shard's
        simulated time onto the facade timeline (if attached): its main
        lane is the serialized fan-out, one lane per shard the overlap.
        Shard ledgers are never touched here.
        """
        routed = self._routed_shards(lo, hi)
        obs = self.observer
        with obs.span(
            "shard.gather",
            lo=lo,
            hi=hi,
            shards=len(routed),
            of=self.num_shards,
            kind=kind,
        ) as gspan:
            results = self._run_over(
                routed,
                lambda shard: getattr(shard.db, kind)(
                    shard.table, shard.column_name, lo, hi
                ),
            )
            for index, result in zip(routed, results):
                stats = result.stats
                with obs.span(
                    "shard.scan",
                    shard=index,
                    kind=kind,
                    pages=stats.pages_scanned,
                    rows=stats.result_rows,
                ):
                    if self._timeline is not None:
                        # The shard region's whole-ps delta, recovered
                        # exactly from its ns reading.
                        ps = to_ps(stats.sim_ns)
                        for lane in (MAIN_LANE, f"shard{index}"):
                            self._timeline.ledger.book(ps, lane, ())
                obs.on_shard_scan(index, stats)
            merged = self._gather(routed, results, lo, hi)
            gspan.set(
                rows=merged.stats.result_rows,
                pages=merged.stats.pages_scanned,
                overlap_ns=merged.stats.sim_ns,
            )
        obs.on_shard_gather(
            shards=len(routed),
            of=self.num_shards,
            rows=merged.stats.result_rows,
            sim_ns=merged.stats.sim_ns,
        )
        return merged

    # -- queries ----------------------------------------------------------

    def query(self, lo: int, hi: int) -> QueryResult:
        """Answer ``[lo, hi]`` across the shards it routes to.

        Pending updates stay pending: each shard's read also scans the
        pages they dirtied that its views do not map, and the widened
        router bounds keep pruning conservative until the next flush.
        """
        lo, hi = _checked_range(lo, hi)
        return self._scatter(lo, hi, "query")

    def scan(self, lo: int, hi: int) -> QueryResult:
        """Routed scatter-gather scan through each shard's *full view*.

        No view adapts and no pending update is realigned: the full view
        maps every page, and the widened router bounds keep pruning
        conservative while updates are pending.  This is the pure
        partition-pruning + parallel scan path.
        """
        lo, hi = _checked_range(lo, hi)
        return self._scatter(lo, hi, "scan")

    # -- updates -----------------------------------------------------------

    def update(self, row: int, new_value: int) -> int:
        """Write ``new_value`` to global ``row``; returns the old value.

        The owning shard database writes and logs the update (and
        refuses a deleted row); the router bounds widen so pruning
        stays conservative while the update is pending.
        """
        spec = shard_of_row(self.specs, row)
        shard = self.shards[spec.index]
        old = shard.db.update(
            shard.table, shard.column_name, row - spec.row_start, new_value
        )
        if self.num_shards > 1:
            self.router.widen(spec.index, new_value)
        return old

    @property
    def pending_update_count(self) -> int:
        """Updates logged across all shards since the last flush."""
        return sum(shard.pending for shard in self.shards)

    def flush_updates(self) -> MaintenanceStats:
        """Realign all shards' partial views with their pending updates.

        After each shard's alignment the router re-derives that shard's
        exact value bounds from ground truth (uncharged, like every
        zone-map read), undoing the conservative widening updates
        applied.
        """
        dirty = [shard.spec.index for shard in self.shards if shard.pending]
        results = self._run_over(
            dirty,
            lambda shard: shard.db.flush_updates(shard.table, shard.column_name),
        )
        for index, stats in zip(dirty, results):
            self.observer.on_shard_maintenance(index, stats)
            if self.num_shards > 1:
                self.router.tighten(index, *_live_range(self.shards[index]))
        if len(results) == 1 and self.num_shards == 1:
            return results[0]
        merged = MaintenanceStats()
        for stats in results:
            for field in fields(MaintenanceStats):
                total = getattr(merged, field.name) + getattr(stats, field.name)
                setattr(merged, field.name, total)
        return merged

    # -- auditing ----------------------------------------------------------

    def audit(
        self,
        max_content_pages: int | None = None,
        label: str = "",
        report: AuditReport | None = None,
    ) -> AuditReport:
        """Per-shard invariant audit plus the cross-shard invariants.

        Every shard's layer is audited (semantics skipped while it has
        pending updates); then the partition must be disjoint and
        exhaustive, and each shard's router bounds must cover its live
        values (a pruned shard must be provably empty for the range).
        A single-shard column never consults its router, so it keeps no
        bounds to check.
        """
        from ..audit.invariants import InvariantAuditor

        label = label or self.name
        report = report or AuditReport(
            backend=self.shards[0].substrate.backend
        )
        auditor = InvariantAuditor(max_content_pages)
        for shard in self.shards:
            auditor.audit_layer(
                shard.layer,
                check_semantics=not shard.pending,
                label=f"{label}[shard{shard.spec.index}]",
                report=report,
            )
        report.checks += 1
        per_page = self.shards[0].column.values_per_page
        for violation in check_partition(self.specs, self.num_rows, per_page):
            report.add_finding("shard-partition", violation, label=label)
        for shard in self.shards if self.num_shards > 1 else ():
            report.checks += 1
            mn, mx = self.router.bounds(shard.spec.index)
            actual_mn, actual_mx = _live_range(shard)
            if actual_mn < mn or actual_mx > mx:
                report.add_finding(
                    "shard-router-bounds",
                    f"router bounds [{mn}, {mx}] do not cover live values "
                    f"[{actual_mn}, {actual_mx}]",
                    label=f"{label}[shard{shard.spec.index}]",
                )
        return report

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut down the thread pool (the shard databases own the rest)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
