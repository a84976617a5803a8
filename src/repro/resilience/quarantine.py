"""Quarantine-and-rebuild: views lost to permanent faults come back.

PR 4 made faults *safe* — a permanently faulted view is dropped and the
full view keeps answers correct — but nothing ever repaired the index,
so a faulty run converged to full-column scans.  The
:class:`ViewRebuilder` closes that loop: ranges recorded in the view
index's quarantine list are re-created from the physical pages (a fresh
scan-and-filter of the full view, exactly like a standalone creation),
and the rebuilt view is **verified by a scoped invariant audit before
re-admission** — a view that cannot prove its own consistency is torn
down and stays quarantined for the next cycle, up to a bounded number
of attempts.  A rebuild decides first, as a query's candidate does.
"""

from __future__ import annotations

import numpy as np

from ..budget import Budget
from ..core.creation import build_view
from ..core.routing import scan_views
from ..core.stats import ViewEvent
from ..core.view_index import QuarantineEntry, ViewIndex
from ..faults.errors import SubstrateFault
from ..obs.observer import NULL_OBSERVER, NullObserver
from ..storage.column import PhysicalColumn
from ..vm.cost import MAIN_LANE
from .policy import ResilienceConfig
from .retry import RetryPolicy

#: Rebuild outcomes (returned by :meth:`ViewRebuilder.rebuild_entry`).
REBUILT = "rebuilt"
#: The entry stays quarantined: denied admission or a failed attempt.
DEFERRED = "deferred"
#: The entry was removed without a rebuild: attempts exhausted, or the
#: view index can no longer accept partial views.
ABANDONED = "abandoned"


def mapping_runs(fpages: np.ndarray) -> int:
    """Projected maps-line footprint of mapping ``fpages`` coalesced.

    Each maximal run of consecutive physical pages becomes one
    ``mmap(MAP_FIXED)`` call and hence (at most) one maps-file line.
    """
    fpages = np.asarray(fpages, dtype=np.int64)
    if fpages.size == 0:
        return 0
    return int(np.count_nonzero(np.diff(fpages) != 1) + 1)


class ViewRebuilder:
    """Re-create quarantined views from physical pages, verified."""

    def __init__(
        self,
        config: ResilienceConfig,
        column: PhysicalColumn,
        view_index: ViewIndex,
        retry: RetryPolicy | None = None,
        governor: Budget | None = None,
        observer: NullObserver | None = None,
    ) -> None:
        self.config = config
        self.column = column
        self.view_index = view_index
        self.retry = retry
        self.governor = governor
        self.observer = observer or NULL_OBSERVER
        #: Views successfully rebuilt and re-admitted.
        self.rebuilt = 0
        #: Quarantine entries given up on (attempts exhausted / no room).
        self.abandoned = 0

    def rebuild_entry(
        self,
        entry: QuarantineEntry,
        lane: str = MAIN_LANE,
        check_semantics: bool = True,
    ) -> str:
        """Attempt to rebuild one quarantined range.

        Returns :data:`REBUILT`, :data:`DEFERRED` or :data:`ABANDONED`.
        """
        vi = self.view_index
        if vi.generation_stopped or vi.num_partials >= vi.config.max_views:
            # The index is full: the range is served by the existing
            # views (or the full view) and can never be re-admitted.
            return self._abandon(entry)

        routed = scan_views(
            self.column, [vi.full_view], entry.lo, entry.hi, lane=lane
        )
        lo, hi = routed.extended_lo, routed.extended_hi
        pages = int(routed.qualifying_fpages.size)
        event, _ = vi.decide(pages, lo, hi)
        if event in (ViewEvent.DISCARDED_SUBSET, ViewEvent.DISCARDED_FULL):
            # Listing 1 would not keep this view: a range the current
            # views already serve is not rebuilt beside them.
            vi.record_range_event(event, lo, hi, pages=pages)
            return self._abandon(entry)
        if self.governor is not None and not self.governor.admit(
            mapping_runs(routed.qualifying_fpages), lane=lane
        ):
            vi.record_range_event(ViewEvent.DENIED_BUDGET, entry.lo, entry.hi)
            return DEFERRED  # no headroom now; not a failed attempt

        try:
            view, _ = build_view(
                self.column,
                lo,
                hi,
                routed.qualifying_fpages,
                coalesce=vi.config.coalesce_mmap,
                lane=lane,
                retry=self.retry,
            )
        except SubstrateFault:
            return self._failed_attempt(entry)

        # Scoped verification before re-admission: the audit needs every
        # live view of the file in one pass (region accounting compares
        # the snapshot against the *total* mapped pages), so the new
        # view is checked alongside the current catalog.
        from ..audit.invariants import InvariantAuditor

        report = InvariantAuditor().audit_views(
            self.column,
            [*vi.all_views(), view],
            check_semantics=check_semantics,
            label="rebuild",
        )
        if not report.ok:
            view.destroy(lane)
            return self._failed_attempt(entry)

        vi.insert(view)
        vi.record_range_event(
            ViewEvent.REBUILT, view.lo, view.hi, pages=view.num_pages
        )
        vi.release_quarantine(entry)
        self.rebuilt += 1
        self.observer.on_rebuild()
        return REBUILT

    def _failed_attempt(self, entry: QuarantineEntry) -> str:
        entry.attempts += 1
        if entry.attempts >= self.config.rebuild_max_attempts:
            return self._abandon(entry)
        return DEFERRED

    def _abandon(self, entry: QuarantineEntry) -> str:
        self.view_index.release_quarantine(entry)
        self.abandoned += 1
        return ABANDONED
