"""The adaptive storage layer (Listing 1 of the paper).

:class:`AdaptiveStorageLayer` answers range queries on one column while
creating and maintaining partial views *adaptively and transparently as a
side-product of query processing*:

1. route the query to the most fitting existing view(s);
2. scan them (shared pages once), producing the query result;
3. alongside, collect a candidate view of the qualifying pages, extend
   its covered range to ``[l'+1, u'-1]`` using the values observed on
   non-qualifying pages;
4. retain, discard or let the candidate replace an existing view
   (Listing 1, lines 21–32) — decided before the candidate is mapped,
   so only a kept candidate is built, with or without a fault plane or
   a resilience controller attached;
5. once the view limit is reached, stop generating candidates and answer
   from the static view set.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..faults.errors import SubstrateFault
from ..obs.observer import NULL_OBSERVER, NullObserver
from ..resilience.policy import HealthState, ResilienceConfig
from ..storage.column import PhysicalColumn
from ..storage.page import clamp_range
from ..storage.tombstones import Tombstones
from ..storage.updates import UpdateBatch
from ..vm.cost import MAIN_LANE
from .config import AdaptiveConfig
from .creation import BackgroundMapper, Candidate
from .maintenance import align_partial_views
from .routing import scan_views
from .scan import batch_scan
from .stats import MaintenanceStats, QueryStats, ViewEvent
from .view import VirtualView
from .view_index import KEPT, ViewIndex


@dataclass
class QueryResult:
    """Result of one range query plus its measurements."""

    #: Row ids of qualifying values.
    rowids: np.ndarray
    #: Qualifying values, aligned with :attr:`rowids`.
    values: np.ndarray
    #: Measurements collected while answering (Figure 4/5 quantities).
    stats: QueryStats

    def __len__(self) -> int:
        return int(self.rowids.size)

    def drop_deleted(self, tombstones: Tombstones) -> "QueryResult":
        """Filter the table's tombstoned rows out, in place; returns self.

        Free while nothing is deleted (the tombstone count is zero).
        """
        keep = tombstones.live_row_mask(self.rowids)
        if keep is not None:
            self.rowids = self.rowids[keep]
            self.values = self.values[keep]
            self.stats.result_rows = int(self.rowids.size)
        return self


class AdaptiveStorageLayer:
    """Adaptive virtual-view indexing fused into one column's storage."""

    def __init__(
        self,
        column: PhysicalColumn,
        config: AdaptiveConfig | None = None,
        observer: NullObserver | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        self.column = column
        self.config = config or AdaptiveConfig()
        #: Observability sink (spans, metrics, events); the shared no-op
        #: observer when observation is off, so the hot path stays free
        #: of conditionals and of simulated-time side effects.
        self.observer = observer or NULL_OBSERVER
        self.view_index = ViewIndex(column, self.config, observer=self.observer)
        #: Self-healing controller (retry / quarantine / governor), or
        #: None when resilience is disarmed — the disarmed layer takes
        #: no resilience branch anywhere, keeping its cost ledger
        #: bit-identical to a build without the subsystem.
        self.resilience = None
        if resilience is not None:
            from ..resilience.controller import ResilienceController

            self.resilience = ResilienceController(
                column,
                self.view_index,
                config=resilience,
                observer=self.observer,
            )
        self._background: BackgroundMapper | None = None
        if self.config.background_mapping:
            self._background = BackgroundMapper(column.cost)
        # Pages written since the last realignment.  Partial views are
        # stale until the batch is applied; queries route around the
        # staleness by additionally scanning any dirty page no selected
        # view maps (an update may have moved an in-range value onto a
        # page outside every view's page set).
        self._dirty_fpages: set[int] = set()
        # The pre-write hook is the set's own ``add``: it holds the set,
        # not the layer, so a layer dropped without shutdown() is freed by
        # reference counting.
        self._note_write = self._dirty_fpages.add
        # Views a query kept while that batch was pending: they reflect
        # the data as of their creation, not the batch's first old
        # values, so their realignment checks every indexed page.
        self._born_in_batch: list[VirtualView] = []
        self.column.add_pre_write_hook(self._note_write)
        # Serializes queries and maintenance against the shared view
        # index; concurrent callers stay correct (simulated time is
        # unaffected — it accumulates on the cost ledger either way).
        self._lock = threading.RLock()

    # -- query processing (Listing 1) -------------------------------------

    def answer_query(self, lo: int, hi: int) -> QueryResult:
        """answerQueryAndMaintainViews(q): answer ``[lo, hi]``, adapt views."""
        if lo > hi:
            raise ValueError(f"inverted query range [{lo}, {hi}]")
        lo, hi = clamp_range(lo, hi)
        cost = self.column.cost
        obs = self.observer

        with self._lock, cost.region() as region, obs.span(
            "query", lo=lo, hi=hi
        ) as qspan:
            with obs.span("route") as rspan:
                views = self.view_index.get_optimal_views(lo, hi)
                rspan.set(views=len(views))
            with obs.span("scan", views=len(views)) as sspan:
                routed = scan_views(self.column, views, lo, hi, observer=obs)
                sspan.set(pages=routed.pages_scanned)
            if self._dirty_fpages:
                self._scan_stale_pages(views, routed, obs)

            event = ViewEvent.NONE
            candidate_pages = 0
            res = self.resilience
            # The candidate's range, extended to [l'+1, u'-1].
            elo, ehi = routed.extended_lo, routed.extended_hi
            generate = not self.view_index.generation_stopped
            if generate and res is not None:
                if not res.allow_candidate():
                    # READONLY: the layer answers from the existing views
                    # (the full view guarantees correctness) but stops
                    # investing in new candidates until repaired.
                    generate = False
                elif not res.admit_candidate(routed.qualifying_fpages, elo, ehi):
                    generate = False
                    event = ViewEvent.DENIED_BUDGET
            if generate:
                with obs.span("candidate", lo=elo, hi=ehi) as cspan:
                    candidate = Candidate(
                        self.column,
                        elo,
                        ehi,
                        routed.qualifying_fpages,
                        coalesce=self.config.coalesce_mmap,
                        background=self._background,
                        observer=obs,
                        retry=res.retry if res is not None else None,
                    )
                    try:
                        event = self.view_index.consider_candidate(candidate)
                    except SubstrateFault as exc:
                        # The query result is already computed from the
                        # existing views; only the side-product candidate
                        # is lost, and the builder rolled it back.
                        event = self.view_index.record_fault(elo, ehi)
                        if res is not None:
                            res.on_candidate_fault(exc, elo, ehi)
                    else:
                        candidate_pages = candidate.num_pages
                        if self._dirty_fpages and event in KEPT:
                            self._born_in_batch.append(candidate.view)
                        if res is not None:
                            res.note_success()
                    cspan.set(pages=candidate_pages, event=event.value)
            qspan.set(
                pages_scanned=routed.pages_scanned,
                views_used=routed.views_used,
                rows=int(routed.rowids.size),
            )

        stats = QueryStats(
            lo=lo,
            hi=hi,
            sim_ns=region.lane_ns(MAIN_LANE),
            pages_scanned=routed.pages_scanned,
            views_used=routed.views_used,
            result_rows=int(routed.rowids.size),
            view_event=event,
            candidate_pages=candidate_pages,
            partial_views_after=self.view_index.num_partials,
        )
        obs.on_query(stats)
        return QueryResult(rowids=routed.rowids, values=routed.values, stats=stats)

    def scan_full(self, lo: int, hi: int) -> QueryResult:
        """Answer ``[lo, hi]`` through the full view only — no routing,
        no candidate generation, no view adaptation.

        The always-correct fallback the serving layer downgrades to when
        admission control refuses view-creating work: the full view maps
        every physical page, so the scan never misses moved values and
        the view catalog is left untouched.
        """
        if lo > hi:
            raise ValueError(f"inverted query range [{lo}, {hi}]")
        lo, hi = clamp_range(lo, hi)
        cost = self.column.cost
        obs = self.observer
        with self._lock, cost.region() as region, obs.span(
            "query", lo=lo, hi=hi, mode="full_scan"
        ) as qspan:
            routed = scan_views(
                self.column, [self.view_index.full_view], lo, hi, observer=obs
            )
            qspan.set(
                pages_scanned=routed.pages_scanned,
                views_used=routed.views_used,
                rows=int(routed.rowids.size),
            )
        stats = QueryStats(
            lo=lo,
            hi=hi,
            sim_ns=region.lane_ns(MAIN_LANE),
            pages_scanned=routed.pages_scanned,
            views_used=routed.views_used,
            result_rows=int(routed.rowids.size),
            partial_views_after=self.view_index.num_partials,
        )
        obs.on_query(stats)
        return QueryResult(
            rowids=routed.rowids, values=routed.values, stats=stats
        )

    def adopt_pending(self, batch: UpdateBatch) -> None:
        """Treat a batch written before this layer existed as pending."""
        per_page = self.column.values_per_page
        self._dirty_fpages.update(update.page_for(per_page) for update in batch)

    def _scan_stale_pages(self, views, routed, obs) -> None:
        """Scan dirty pages no selected view maps, merging the rows in.

        Between a write and the next realignment the partial views are
        stale; a value moved *into* the query range lives on a page the
        routed views may not map.  Scanning those pages (values moved
        out of range are harmless — every scan re-filters) keeps query
        results exact while the views lag the data, so a read never
        realigns: the batch does, once, when it ends.
        """
        if any(view.is_full_view for view in views):
            return  # the full view maps every page
        dirty = self._dirty_fpages
        stale_mask = np.zeros(self.column.num_pages, dtype=bool)
        stale_mask[np.fromiter(dirty, np.int64, len(dirty))] = True
        for view in views:
            stale_mask[view.mapped_fpages()] = False
        stale = np.flatnonzero(stale_mask)
        if stale.size == 0:
            return
        with obs.span("scan-stale", pages=int(stale.size)):
            result = batch_scan(
                self.column, stale, routed.lo, routed.hi, access_kind="seq"
            )
        routed.rowids = np.concatenate([routed.rowids, result.rowids])
        routed.values = np.concatenate([routed.values, result.values])
        routed.qualifying_fpages = np.concatenate(
            [routed.qualifying_fpages, result.qualifying_fpages]
        )
        routed.pages_scanned += result.pages_scanned

    # -- update handling (Sections 2.4 / 2.5) ------------------------------

    def apply_updates(self, batch: UpdateBatch) -> MaintenanceStats:
        """Realign all partial views after a batch of updates.

        The updates themselves must already have been written through the
        full view (e.g. via :meth:`repro.storage.table.Table.update`);
        this call parses the memory mappings once and aligns every
        partial view against the batch.
        """
        with self._lock:
            res = self.resilience
            stats = align_partial_views(
                self.column,
                self.view_index.partial_views,
                batch,
                observer=self.observer,
                retry=res.retry if res is not None else None,
                born_in_batch=self._born_in_batch,
            )
            for view in stats.dropped_views:
                self.view_index.discard(view)
            self._dirty_fpages.clear()
            self._born_in_batch.clear()
            if self.column.tier is not None:
                # Tiered storage: decay the hit counters and demote down
                # to the hot budget alongside the view realignment
                # (demote-on-realign).
                self.column.tier.maintenance(self.column.cost)
            if res is not None:
                # Views lost to permanent faults queue for rebuild, then
                # the recovery pass runs: budget enforcement followed by
                # quarantine drain (now that updates are applied and the
                # semantic audit is meaningful again).
                res.on_views_dropped(stats.dropped_views)
                cycle = res.maintenance_cycle()
                stats.views_rebuilt = cycle["rebuilt"]
                stats.governor_evictions = cycle["evicted"]
            return stats

    def rebind_storage(self, lane: str = MAIN_LANE) -> None:
        """Rebuild every view after the column grew (write-buffer merge).

        The merge calls it under fault suppression: the merge already
        landed in the physical pages, so the view catalog must come back
        consistent unconditionally — exactly like rollback tear-down.
        """
        with self._lock:
            self.view_index.rebuild_for_growth(lane)
            self._dirty_fpages.clear()
            self._born_in_batch.clear()

    # -- resilience surface --------------------------------------------------

    def health(self) -> HealthState:
        """The layer's health (HEALTHY when resilience is disarmed)."""
        with self._lock:
            if self.resilience is None:
                tier = self.column.tier
                if tier is not None and tier.tier_state() != "healthy":
                    return HealthState.DEGRADED
                return HealthState.HEALTHY
            return self.resilience.health()

    def repair(self) -> bool:
        """Rebuild quarantined views now; True when quarantine is empty.

        Unlike the per-maintenance drain this also runs in the READONLY
        state and, on convergence, clears the READONLY latch.
        """
        with self._lock:
            if self.resilience is None:
                return True
            return self.resilience.repair()

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the background mapping thread, if any."""
        if self._background is not None:
            self._background.stop()
            self._background = None
        try:
            self.column.remove_pre_write_hook(self._note_write)
        except ValueError:
            pass  # already removed by an earlier shutdown

    def __enter__(self) -> "AdaptiveStorageLayer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
