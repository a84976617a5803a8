"""Introspection of a view index (extension).

Operators of an adaptive storage layer need to see what the layer did:
which value ranges are covered, how much the views overlap, how much
virtual address space the over-allocations consume, and how large the
kernel's maps file has become (the quantity that drives Figure 7's parse
cost).  This module computes and renders that report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..vm.constants import PAGE_SIZE
from .view import VirtualView
from .view_index import ViewIndex


@dataclass(frozen=True)
class ViewSummary:
    """Key facts about one partial view."""

    lo: int
    hi: int
    pages: int
    capacity: int

    @property
    def fill_fraction(self) -> float:
        """Mapped fraction of the over-allocated virtual area."""
        return self.pages / self.capacity if self.capacity else 0.0


@dataclass
class IndexReport:
    """Aggregate introspection of one column's view index."""

    column_pages: int
    views: list[ViewSummary] = field(default_factory=list)
    #: The most recent candidate decisions (lifecycle journal tail).
    recent_decisions: list[str] = field(default_factory=list)
    #: Fraction of the column's pages indexed by at least one partial view.
    page_coverage: float = 0.0
    #: Fraction of the column's *value span* covered by partial views.
    value_coverage: float = 0.0
    #: pages shared between view pairs: (i, j) -> shared page count.
    overlaps: dict[tuple[int, int], int] = field(default_factory=dict)
    #: Total virtual pages reserved (full view + all over-allocations)
    #: divided by the physical page count.
    virtual_amplification: float = 0.0
    #: Lines a /proc/PID/maps render of the address space produces.
    maps_lines: int = 0
    #: Whether view generation has stopped (limit reached).
    generation_stopped: bool = False


def _value_coverage(views: list[VirtualView], lo: int, hi: int) -> float:
    """Covered fraction of [lo, hi] by the union of view ranges."""
    if hi <= lo or not views:
        return 0.0
    intervals = sorted(
        (max(v.lo, lo), min(v.hi, hi)) for v in views if v.hi >= lo and v.lo <= hi
    )
    covered = 0
    point = lo
    for start, end in intervals:
        start = max(start, point)
        if end >= start:
            covered += end - start + 1
            point = end + 1
    return min(covered / (hi - lo + 1), 1.0)


def inspect_view_index(index: ViewIndex) -> IndexReport:
    """Compute the introspection report of a view index."""
    column = index.column
    report = IndexReport(
        column_pages=column.num_pages,
        generation_stopped=index.generation_stopped,
    )
    partials = index.partial_views
    report.views = [
        ViewSummary(lo=v.lo, hi=v.hi, pages=v.num_pages, capacity=v.capacity)
        for v in partials
    ]

    indexed = np.zeros(column.num_pages, dtype=bool)
    page_sets = []
    for view in partials:
        fpages = view.mapped_fpages()
        indexed[fpages] = True
        page_sets.append(set(fpages.tolist()))
    report.page_coverage = float(indexed.mean()) if column.num_pages else 0.0

    values = column.values()
    if values.size and partials:
        report.value_coverage = _value_coverage(
            partials, int(values.min()), int(values.max())
        )

    for i in range(len(page_sets)):
        for j in range(i + 1, len(page_sets)):
            shared = len(page_sets[i] & page_sets[j])
            if shared:
                report.overlaps[(i, j)] = shared

    reserved = column.num_pages + sum(v.capacity for v in partials)
    report.virtual_amplification = (
        reserved / column.num_pages if column.num_pages else 0.0
    )
    report.maps_lines = column.substrate.maps_line_count()
    report.recent_decisions = [
        event.describe() for event in index.history[-5:]
    ]
    return report


def render_index_report(report: IndexReport) -> str:
    """Render the report as readable plain text."""
    lines = [
        f"view index over {report.column_pages:,} physical pages "
        f"({report.column_pages * PAGE_SIZE / 2**20:.1f} MiB)",
        f"  partial views        : {len(report.views)}"
        + ("  (generation stopped)" if report.generation_stopped else ""),
        f"  page coverage        : {report.page_coverage:.1%}",
        f"  value-range coverage : {report.value_coverage:.1%}",
        f"  virtual amplification: {report.virtual_amplification:.1f}x",
        f"  maps-file lines      : {report.maps_lines:,}",
    ]
    for i, view in enumerate(report.views):
        lines.append(
            f"    view[{i}] [{view.lo:,}, {view.hi:,}] "
            f"{view.pages:,} pages ({view.fill_fraction:.1%} of reservation)"
        )
    if report.overlaps:
        pairs = ", ".join(
            f"{i}&{j}:{n}p" for (i, j), n in sorted(report.overlaps.items())
        )
        lines.append(f"  shared pages         : {pairs}")
    if report.recent_decisions:
        lines.append("  recent decisions     :")
        lines.extend(f"    {line}" for line in report.recent_decisions)
    return "\n".join(lines)
