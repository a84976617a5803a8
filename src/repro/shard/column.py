"""The sharded column: N independent substrates behind one query surface.

:class:`ShardedColumn` partitions one logical column across N
:class:`Shard` s.  Each shard owns a full vertical slice of the stack —
its own :class:`~repro.substrate.interface.Substrate` (and therefore its
own page store, cost ledger and address space), its own
:class:`~repro.core.adaptive.AdaptiveStorageLayer` (view catalog,
background mapper, resilience controller with a sliced mapping budget) —
so shards share *no* mutable state and can execute concurrently without
locks beyond each layer's own.

A range query is routed (:mod:`repro.shard.router`) to the shards whose
value bounds intersect it, answered per shard, and scatter-gathered:
shard-local rowids are offset into the global row space and the partial
results concatenated with numpy in ascending shard order, so the merged
result is deterministic regardless of execution interleaving.  With
``parallel=True`` the per-shard work runs on a thread pool — the native
backend's mmap/scan work releases the GIL, so multi-core machines scan
shards genuinely concurrently; simulated cost stays deterministic either
way because each shard charges only its own ledger and the merge is a
commutative sum.

Identity contract: at ``shards=1`` no router pruning, no bounds
bookkeeping and no gather arithmetic touches the single shard's path —
its cost ledger stays bit-identical to an unsharded
:class:`~repro.core.adaptive.AdaptiveStorageLayer` session (enforced by
``tests/shard/test_parity.py``).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ..audit.report import AuditReport
from ..core.adaptive import AdaptiveStorageLayer, QueryResult
from ..core.config import AdaptiveConfig
from ..core.routing import scan_views
from ..core.stats import MaintenanceStats, QueryStats, ViewEvent
from ..obs.observer import NULL_OBSERVER, NullObserver
from ..resilience.policy import HealthState, ResilienceConfig, worst_health
from ..seeds import derive_seed
from ..storage import layout
from ..storage.column import PhysicalColumn
from ..storage.page import clamp_range
from ..storage.updates import UpdateBatch
from ..substrate import Substrate, make_substrate
from ..vm.cost import MAIN_LANE, CostModel
from .partition import ShardSpec, check_partition, plan_partition, shard_of_row
from .router import ShardRouter


@dataclass
class Shard:
    """One shard: a spec plus its private vertical slice of the stack."""

    spec: ShardSpec
    substrate: Substrate
    column: PhysicalColumn
    layer: AdaptiveStorageLayer
    #: Updates written to this shard since its last view realignment.
    pending: UpdateBatch

    @property
    def cost(self) -> CostModel:
        """The shard's private cost model."""
        return self.substrate.cost


def _slice_resilience(
    config: ResilienceConfig | None, index: int, num_shards: int
) -> ResilienceConfig | None:
    """Per-shard resilience config: budget sliced, jitter stream derived.

    At ``num_shards == 1`` the config passes through untouched — the
    identity contract includes the retry jitter stream.
    """
    if config is None or not config.enabled or num_shards == 1:
        return config
    budget = config.mapping_budget
    return replace(
        config,
        mapping_budget=None if budget is None else max(budget // num_shards, 1),
        seed=derive_seed(index, config.seed),
    )


class ShardedColumn:
    """One logical column partitioned across N independent shards."""

    def __init__(
        self,
        name: str,
        shards: list[Shard],
        router: ShardRouter,
        num_rows: int,
        record_bytes: int,
        observer: NullObserver | None = None,
        timeline: CostModel | None = None,
        parallel: bool = False,
    ) -> None:
        """Prefer :meth:`build`; this constructor wires pre-built shards.

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
        self.record_bytes = record_bytes
        self.observer = observer or NULL_OBSERVER
        self._timeline = timeline
        self.parallel = parallel
        self._pool: ThreadPoolExecutor | None = None
        #: Whether :meth:`close` also closes the shard substrates (true
        #: for standalone columns; a database sharing substrates across
        #: columns closes them itself).
        self.owns_substrates = False

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        name: str,
        values: np.ndarray,
        num_shards: int,
        config: AdaptiveConfig | None = None,
        backend: str = "simulated",
        capacity_bytes: int | None = None,
        substrates: Sequence[Substrate] | None = None,
        substrate_factory: Callable[[int], Substrate] | None = None,
        resilience: ResilienceConfig | None = None,
        observer: NullObserver | None = None,
        timeline: CostModel | None = None,
        parallel: bool | None = None,
        record_bytes: int = 8,
    ) -> "ShardedColumn":
        """Partition ``values`` across ``num_shards`` fresh shards.

        Each shard gets its own substrate — built from ``backend`` by
        default, taken from ``substrates`` (one per shard, shared with
        other columns of the same database) or from ``substrate_factory``
        (e.g. to wrap each substrate in a
        :class:`~repro.faults.plane.FaultySubstrate`).  ``parallel``
        defaults to True exactly on the native backend, where the
        scan/mmap work releases the GIL.
        """
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("column values must be a non-empty 1-D array")
        per_page = layout.records_per_page(record_bytes)
        specs = plan_partition(values.size, per_page, num_shards)
        if substrates is not None and len(substrates) != num_shards:
            raise ValueError(
                f"got {len(substrates)} substrates for {num_shards} shards"
            )
        if parallel is None:
            parallel = backend == "native" and substrates is None
        config = config or AdaptiveConfig()
        shards: list[Shard] = []
        slices: list[np.ndarray] = []
        for spec in specs:
            if substrates is not None:
                substrate = substrates[spec.index]
            elif substrate_factory is not None:
                substrate = substrate_factory(spec.index)
            else:
                substrate = make_substrate(
                    backend, capacity_bytes=capacity_bytes
                )
            part = values[spec.row_start : spec.row_end]
            column = PhysicalColumn.create(
                substrate, name, part, record_bytes=record_bytes
            )
            layer = AdaptiveStorageLayer(
                column,
                config,
                resilience=_slice_resilience(
                    resilience, spec.index, num_shards
                ),
            )
            shards.append(
                Shard(
                    spec=spec,
                    substrate=substrate,
                    column=column,
                    layer=layer,
                    pending=UpdateBatch(),
                )
            )
            slices.append(part)
        built = cls(
            name,
            shards,
            ShardRouter.from_slices(slices),
            num_rows=values.size,
            record_bytes=record_bytes,
            observer=observer,
            timeline=timeline,
            parallel=parallel,
        )
        built.owns_substrates = substrates is None
        return built

    @property
    def num_shards(self) -> int:
        """Number of shards the column is partitioned into."""
        return len(self.shards)

    @property
    def specs(self) -> list[ShardSpec]:
        """The partition (one spec per shard, ascending)."""
        return [shard.spec for shard in self.shards]

    @property
    def values_per_page(self) -> int:
        """Records stored on one (full) page."""
        return self.shards[0].column.values_per_page

    @property
    def num_pages(self) -> int:
        """Total physical pages across all shards."""
        return sum(shard.column.num_pages for shard in self.shards)

    # -- scatter-gather execution ----------------------------------------

    def _run_over(self, indices: list[int], fn) -> list:
        """Run ``fn(shard)`` over the selected shards, results in order.

        Sequential by default; with :attr:`parallel` the calls run on a
        thread pool (one worker per shard) and the results are gathered
        back into ascending shard order, so the caller sees the same
        ordering either way.
        """
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

    def _emit_shard_spans(
        self, routed: list[int], stats_list: list[QueryStats], kind: str
    ) -> None:
        """Record one ``shard.scan`` span per routed shard.

        When a facade timeline ledger is attached, each span charges the
        shard's simulated time onto the timeline's main lane (the
        serialized fan-out Chrome traces show) plus a per-shard lane, so
        both the serialized and the overlapped reading are recoverable
        from the trace.  Shard ledgers are never touched here.
        """
        obs = self.observer
        for index, stats in zip(routed, stats_list):
            with obs.span(
                "shard.scan",
                shard=index,
                kind=kind,
                pages=stats.pages_scanned,
                rows=stats.result_rows,
            ):
                if self._timeline is not None:
                    self._timeline.ledger.charge(stats.sim_ns, MAIN_LANE)
                    self._timeline.ledger.charge(stats.sim_ns, f"shard{index}")
            obs.on_shard_scan(index, stats)

    def _gather(
        self, routed: list[int], results: list[QueryResult], lo: int, hi: int
    ) -> QueryResult:
        """Merge per-shard results into one global result (numpy concat)."""
        empty = np.empty(0, dtype=np.int64)
        if not results:
            stats = QueryStats(lo=lo, hi=hi)
            return QueryResult(rowids=empty, values=empty.copy(), stats=stats)
        for index, result in zip(routed, results):
            spec = self.shards[index].spec
            if spec.row_start:
                result.rowids = result.rowids + spec.row_start
        if len(results) == 1:
            # Pass the single shard's result through untouched: at
            # shards=1 this keeps stats (including the view event)
            # bit-identical to the unsharded layer.
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

    # -- queries ----------------------------------------------------------

    def query(self, lo: int, hi: int) -> QueryResult:
        """Answer ``[lo, hi]`` across the shards it routes to.

        Pending updates are realigned first (per shard), exactly like
        the unsharded facade drains a column before answering, so views
        and router bounds never serve stale state.
        """
        if lo > hi:
            raise ValueError(f"inverted query range [{lo}, {hi}]")
        lo, hi = clamp_range(lo, hi)
        self._flush_pending()
        routed = self._routed_shards(lo, hi)
        obs = self.observer
        with obs.span(
            "shard.gather",
            lo=lo,
            hi=hi,
            shards=len(routed),
            of=self.num_shards,
        ) as gspan:
            results = self._run_over(
                routed, lambda shard: shard.layer.answer_query(lo, hi)
            )
            self._emit_shard_spans(
                routed, [r.stats for r in results], kind="query"
            )
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

    def scan(self, lo: int, hi: int) -> QueryResult:
        """Routed scatter-gather scan through each shard's *full view*.

        The adaptive machinery stays out of the way (no candidate views
        are built), so this is the pure partition-pruning + parallel
        scan path the ``sharded_scan`` benchmark times.
        """
        if lo > hi:
            raise ValueError(f"inverted query range [{lo}, {hi}]")
        lo, hi = clamp_range(lo, hi)
        self._flush_pending()
        routed = self._routed_shards(lo, hi)

        def scan_one(shard: Shard) -> QueryResult:
            with shard.cost.region() as region:
                routed_scan = scan_views(
                    shard.column,
                    [shard.layer.view_index.full_view],
                    lo,
                    hi,
                )
            stats = QueryStats(
                lo=lo,
                hi=hi,
                sim_ns=region.lane_ns(MAIN_LANE),
                pages_scanned=routed_scan.pages_scanned,
                views_used=routed_scan.views_used,
                result_rows=int(routed_scan.rowids.size),
            )
            return QueryResult(
                rowids=routed_scan.rowids,
                values=routed_scan.values,
                stats=stats,
            )

        obs = self.observer
        with obs.span(
            "shard.gather",
            lo=lo,
            hi=hi,
            shards=len(routed),
            of=self.num_shards,
            kind="scan",
        ) as gspan:
            results = self._run_over(routed, scan_one)
            self._emit_shard_spans(
                routed, [r.stats for r in results], kind="scan"
            )
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

    # -- updates -----------------------------------------------------------

    def update(self, row: int, new_value: int) -> int:
        """Write ``new_value`` to global ``row``; returns the old value.

        The write lands on the owning shard's physical page, is logged
        for that shard's next view realignment, and widens the router
        bounds so pruning stays conservative while the update is
        pending.
        """
        spec = shard_of_row(self.specs, row)
        shard = self.shards[spec.index]
        local_row = row - spec.row_start
        old = shard.column.write(local_row, new_value)
        shard.pending.record(local_row, old, new_value)
        if self.num_shards > 1:
            self.router.widen(spec.index, new_value)
        return old

    @property
    def pending_update_count(self) -> int:
        """Updates logged across all shards since the last flush."""
        return sum(len(shard.pending) for shard in self.shards)

    def _flush_pending(self) -> MaintenanceStats | None:
        """Realign every shard holding pending updates (None if none)."""
        if self.pending_update_count == 0:
            return None
        return self.flush_updates()

    def flush_updates(self) -> MaintenanceStats:
        """Realign all shards' partial views with their pending updates.

        After each shard's alignment the router re-derives that shard's
        exact value bounds from ground truth (uncharged, like every
        zone-map read), undoing the conservative widening updates
        applied.
        """
        dirty = [
            shard.spec.index
            for shard in self.shards
            if len(shard.pending)
        ]

        def flush_one(shard: Shard) -> MaintenanceStats:
            batch = shard.pending
            shard.pending = UpdateBatch()
            return shard.layer.apply_updates(batch)

        results = self._run_over(dirty, flush_one)
        for index, stats in zip(dirty, results):
            self.observer.on_shard_maintenance(index, stats)
            if self.num_shards > 1:
                self._tighten_bounds(index)
        if len(results) == 1 and self.num_shards == 1:
            return results[0]
        merged = MaintenanceStats()
        for stats in results:
            merged.batch_size += stats.batch_size
            merged.compacted_size += stats.compacted_size
            merged.parse_ns += stats.parse_ns
            merged.update_ns += stats.update_ns
            merged.maps_lines += stats.maps_lines
            merged.pages_added += stats.pages_added
            merged.pages_removed += stats.pages_removed
            merged.faults += stats.faults
            merged.views_dropped += stats.views_dropped
            merged.dropped_views.extend(stats.dropped_views)
            merged.views_rebuilt += stats.views_rebuilt
            merged.governor_evictions += stats.governor_evictions
        return merged

    def _tighten_bounds(self, index: int) -> None:
        """Restore shard ``index``'s exact router bounds (uncharged)."""
        column = self.shards[index].column
        live = column.file.data.reshape(-1)[: column.num_rows]
        self.router.tighten(index, int(live.min()), int(live.max()))

    # -- inspection --------------------------------------------------------

    def read(self, row: int) -> int:
        """Read the value at global ``row`` (charged like a point read)."""
        spec = shard_of_row(self.specs, row)
        return self.shards[spec.index].column.read(row - spec.row_start)

    def merged_cost(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed (lanes, counters) over all shard ledgers.

        Each shard charges only its own ledger, so the sum is a stable
        total regardless of how threads interleaved during execution —
        the determinism contract of sharded simulated accounting.
        """
        lanes: dict[str, float] = {}
        counters: dict[str, int] = {}
        for shard in self.shards:
            shard_lanes, shard_counters = shard.cost.ledger.snapshot()
            for lane, ns in shard_lanes.items():
                lanes[lane] = lanes.get(lane, 0.0) + ns
            for op, count in shard_counters.items():
                counters[op] = counters.get(op, 0) + count
        return lanes, counters

    def values(self) -> np.ndarray:
        """All row values in global row order (uncharged ground truth)."""
        return np.concatenate(
            [shard.column.values() for shard in self.shards]
        )

    # -- auditing ----------------------------------------------------------

    def audit(
        self,
        max_content_pages: int | None = None,
        label: str = "",
        report: AuditReport | None = None,
    ) -> AuditReport:
        """Per-shard invariant audit plus the cross-shard invariants.

        Every shard's layer runs through the full
        :class:`~repro.audit.invariants.InvariantAuditor` (semantic
        checks skipped while that shard has pending updates), then the
        shard layer's own invariants are checked: the partition is
        disjoint and exhaustive, and each shard's router bounds are a
        superset of its live values (a pruned shard must be provably
        empty for the query range).
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
                check_semantics=not len(shard.pending),
                label=f"{label}[shard{shard.spec.index}]",
                report=report,
            )
        report.checks += 1
        for violation in check_partition(
            self.specs, self.num_rows, self.values_per_page
        ):
            report.add_finding("shard-partition", violation, label=label)
        for shard in self.shards:
            report.checks += 1
            column = shard.column
            live = column.file.data.reshape(-1)[: column.num_rows]
            mn, mx = self.router.bounds(shard.spec.index)
            actual_mn, actual_mx = int(live.min()), int(live.max())
            if actual_mn < mn or actual_mx > mx:
                report.add_finding(
                    "shard-router-bounds",
                    f"router bounds [{mn}, {mx}] do not cover live values "
                    f"[{actual_mn}, {actual_mx}]",
                    label=f"{label}[shard{shard.spec.index}]",
                )
        return report

    # -- resilience --------------------------------------------------------

    def health(self) -> HealthState:
        """Worst health over all shard layers."""
        return worst_health(shard.layer.health() for shard in self.shards)

    def repair(self) -> bool:
        """Repair every shard; True when all quarantines drained."""
        self._flush_pending()
        converged = True
        for shard in self.shards:
            converged = shard.layer.repair() and converged
        return converged

    def resilience_status(self) -> dict:
        """Per-shard resilience counters plus the aggregated health."""
        return {
            "health": self.health().value,
            "shards": {
                f"shard{shard.spec.index}": shard.layer.resilience.status()
                for shard in self.shards
                if shard.layer.resilience is not None
            },
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut down every shard's layer, substrate and the thread pool."""
        for shard in self.shards:
            shard.layer.shutdown()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self.owns_substrates:
            for shard in self.shards:
                shard.substrate.close()

    def __enter__(self) -> "ShardedColumn":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
