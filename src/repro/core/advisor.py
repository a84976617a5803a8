"""Offline view advisor (extension).

The paper's layer adapts *online*; the classical alternative is an
offline advisor that inspects a recorded workload and recommends a
static set of views (the cracking-vs-advised-index debate from the
adaptive-indexing literature the paper builds on).  This module provides
that counterpart so both strategies can be compared on equal footing:

1. collect the range queries of a workload (e.g. from a
   :class:`~repro.workloads.trace.WorkloadTrace`);
2. merge overlapping ranges into clusters;
3. score each cluster by its expected benefit — queries served times
   pages saved versus a full scan, estimated from column statistics;
4. recommend the top-k clusters and (optionally) materialize them as
   real virtual views.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..storage.column import PhysicalColumn
from ..storage.statistics import ColumnHistogram
from ..vm.cost import MAIN_LANE
from .creation import all_or_none, build_view
from .view import VirtualView


@dataclass(frozen=True)
class AdvisedView:
    """One recommendation: a value range worth a static view."""

    lo: int
    hi: int
    #: Workload queries this range fully covers.
    queries_covered: int
    #: Estimated pages a view over the range would index.
    estimated_pages: float
    #: Estimated pages saved over the workload vs full scans.
    benefit_pages: float


class ViewAdvisor:
    """Recommends static views for a recorded range-query workload."""

    def __init__(
        self, column: PhysicalColumn, histogram: ColumnHistogram | None = None
    ) -> None:
        self.column = column
        self.histogram = histogram or ColumnHistogram(column)

    def recommend(
        self, queries: list[tuple[int, int]], max_views: int = 10
    ) -> list[AdvisedView]:
        """Top-``max_views`` recommendations for the given queries.

        Overlapping query ranges merge into one cluster (a view must
        cover each query it serves); clusters rank by estimated pages
        saved across the whole workload.
        """
        if max_views < 1:
            raise ValueError("max_views must be positive")
        if not queries:
            return []
        clusters = self._merge(sorted(queries))
        recommendations = []
        for lo, hi, covered in clusters:
            estimate = self.histogram.estimate(lo, hi)
            saved_per_query = max(self.column.num_pages - estimate.pages, 0.0)
            recommendations.append(
                AdvisedView(
                    lo=lo,
                    hi=hi,
                    queries_covered=covered,
                    estimated_pages=estimate.pages,
                    benefit_pages=covered * saved_per_query,
                )
            )
        recommendations.sort(key=lambda r: r.benefit_pages, reverse=True)
        return recommendations[:max_views]

    @staticmethod
    def _merge(
        sorted_queries: list[tuple[int, int]],
    ) -> list[tuple[int, int, int]]:
        """Union overlapping/touching ranges; returns (lo, hi, count)."""
        clusters: list[list[int]] = []
        for lo, hi in sorted_queries:
            if clusters and lo <= clusters[-1][1] + 1:
                clusters[-1][1] = max(clusters[-1][1], hi)
                clusters[-1][2] += 1
            else:
                clusters.append([lo, hi, 1])
        return [(lo, hi, count) for lo, hi, count in clusters]

    def materialize(
        self,
        recommendations: list[AdvisedView],
        coalesce: bool = True,
        lane: str = MAIN_LANE,
    ) -> list[VirtualView]:
        """Build real virtual views for the recommendations.

        Each view is created by one full-column scan plus the usual
        (optionally coalesced) rewiring calls, so the build cost is
        charged honestly.  A fault destroys the views built before it,
        too, before it surfaces.
        """
        from .scan import batch_scan

        import numpy as np

        with all_or_none(lane) as views:
            for rec in recommendations:
                all_pages = np.arange(self.column.num_pages, dtype=np.int64)
                result = batch_scan(
                    self.column, all_pages, rec.lo, rec.hi, lane=lane
                )
                view, _ = build_view(
                    self.column,
                    rec.lo,
                    rec.hi,
                    result.qualifying_fpages,
                    coalesce=coalesce,
                    lane=lane,
                )
                views.append(view)
        return views
