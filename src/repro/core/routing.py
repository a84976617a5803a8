"""Query routing: answering a range query from a set of views.

Given the view(s) selected by
:meth:`repro.core.view_index.ViewIndex.get_optimal_views`, this module
scans them, deduplicates shared physical pages with the processed-pages
bitvector (Section 2.1, multi-view mode), and gathers all the evidence
Listing 1 needs to build and extend the candidate view:

* the combined query result,
* the qualifying pages in scan order (the candidate's future content),
* the conjunction's covered value range, shrunk by the largest
  non-qualifying value below the query range and the smallest above it —
  yielding the extended candidate range ``[l'+1, u'-1]`` (Section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs.observer import NULL_OBSERVER, NullObserver
from ..storage.column import PhysicalColumn
from ..vm.cost import MAIN_LANE
from .scan import NO_ABOVE, NO_BELOW, batch_scan, joined
from .view import VirtualView


@dataclass
class RoutedScan:
    """Everything learned while answering one query from its views."""

    #: Query range actually evaluated (clamped).
    lo: int
    hi: int
    #: Combined result rows across all scanned views.
    rowids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: Combined result values, aligned with :attr:`rowids`.
    values: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: Qualifying physical pages in scan order (deduplicated).
    qualifying_fpages: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    #: Distinct physical pages scanned.
    pages_scanned: int = 0
    #: Views that contributed at least one scanned page.
    views_used: int = 0
    #: Extended candidate range [l'+1, u'-1] (Section 2.2).
    extended_lo: int = 0
    extended_hi: int = 0


def scan_views(
    column: PhysicalColumn,
    views: list[VirtualView],
    lo: int,
    hi: int,
    lane: str = MAIN_LANE,
    observer: NullObserver | None = None,
) -> RoutedScan:
    """Scan the selected views to answer the query ``[lo, hi]``.

    The views must jointly cover ``[lo, hi]``.  Shared physical pages are
    scanned only once: a fixed-size bitvector over the column's pages
    tracks processed pages, exactly as Section 2.1 describes.
    """
    if not views:
        raise ValueError("need at least one view to answer a query")
    covered_lo = min(view.lo for view in views)
    covered_hi = max(view.hi for view in views)
    if covered_lo > lo or covered_hi < hi:
        raise ValueError(
            f"selected views cover [{covered_lo}, {covered_hi}], "
            f"not the query range [{lo}, {hi}]"
        )

    obs = observer or NULL_OBSERVER
    cost = column.cost
    multi = len(views) > 1
    processed: np.ndarray | None = None
    if multi:
        processed = np.zeros(column.num_pages, dtype=bool)
        # Allocating/clearing the fixed-size bitvector costs one pass.
        cost.bitvector_scan(column.num_pages, lane)

    all_rowids: list[np.ndarray] = []
    all_values: list[np.ndarray] = []
    qualifying: list[np.ndarray] = []
    pages_scanned = 0
    views_used = 0
    max_below_seen = NO_BELOW
    min_above_seen = NO_ABOVE

    for view in views:
        fpages = view.mapped_fpages()
        if multi:
            # Skip pages another selected view already processed; the
            # bitvector lookups ride along with the page accesses.
            fpages = fpages[~processed[fpages]]
        if fpages.size == 0:
            continue
        views_used += 1
        with obs.span(
            "scan-view",
            view_lo=int(view.lo),
            view_hi=int(view.hi),
            full_view=view.is_full_view,
        ) as vspan:
            view.charge_first_touch(fpages, lane)
            result = batch_scan(column, fpages, lo, hi, access_kind="seq", lane=lane)
            vspan.set(pages=result.pages_scanned)
        if multi:
            processed[fpages] = True
        pages_scanned += result.pages_scanned
        all_rowids.append(result.rowids)
        all_values.append(result.values)
        qualifying.append(result.qualifying_fpages)

        # Evidence comes from non-qualifying pages only (Section 2.2);
        # qualifying pages carry the sentinels, neutral under max/min.
        max_below_seen = max(max_below_seen, int(result.max_below.max()))
        min_above_seen = min(min_above_seen, int(result.min_above.min()))

    extended_lo = covered_lo
    if max_below_seen != NO_BELOW:
        extended_lo = max(extended_lo, max_below_seen + 1)
    extended_hi = covered_hi
    if min_above_seen != NO_ABOVE:
        extended_hi = min(extended_hi, min_above_seen - 1)

    return RoutedScan(
        lo=lo,
        hi=hi,
        rowids=joined(all_rowids),
        values=joined(all_values),
        qualifying_fpages=joined(qualifying),
        pages_scanned=pages_scanned,
        views_used=views_used,
        extended_lo=extended_lo,
        extended_hi=extended_hi,
    )
