"""Figure 7 — update performance of partial views.

Setup (Section 3.4, scaled): a single-column table, filled uniformly
(7a) or with the sine distribution (7b) over a wide value domain.  Five
partial views are created, each covering a randomly positioned 1/1024-th
of the value range.  Then a varying number of uniform updates is applied
in one batch and all views are realigned.

Reported per batch size: the maps-parse time, the view-update time, the
time to instead rebuild all five views from scratch, and the number of
pages added/removed — the quantities Figure 7 plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.maintenance import align_partial_views, rebuild_partial_views
from ..core.view import VirtualView
from ..workloads.distributions import sine, uniform
from .fig6 import WIDE_DOMAIN
from .harness import fresh_column, make_update_batch, scaled_pages

#: Number of partial views in the experiment.
FIG7_NUM_VIEWS = 5

#: Each view covers this fraction of the value range ("a randomly
#: selected 1/1024-th of the value range").
FIG7_RANGE_FRACTION = 1 / 1024


@dataclass
class Fig7Point:
    """Measurements for one (distribution, batch size) cell."""

    case: str
    batch_size: int
    parse_ms: float
    update_ms: float
    rebuild_ms: float
    pages_added: int
    pages_removed: int
    maps_lines: int

    @property
    def total_ms(self) -> float:
        """Parse plus update time (the incremental path)."""
        return self.parse_ms + self.update_ms


@dataclass
class Fig7Result:
    """All Figure 7 measurements."""

    num_pages: int
    batch_sizes: list[int]
    points: list[Fig7Point] = field(default_factory=list)

    def by_case(self, case: str) -> list[Fig7Point]:
        """Measurements of one distribution, ascending batch size."""
        return sorted(
            (p for p in self.points if p.case == case), key=lambda p: p.batch_size
        )


def default_batch_sizes(num_pages: int) -> list[int]:
    """Batch sizes scaled as in the paper (100 → 1M on a 1M-page column).

    The paper steps logarithmically from 10^-4 to 1x the page count; the
    largest batch roughly matches one update per page, which is where
    rebuilding starts to win on clustered data.
    """
    fractions = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
    sizes = sorted({max(int(num_pages * f), 10) for f in fractions})
    return sizes


def view_ranges(
    domain: tuple[int, int], num_views: int, fraction: float, seed: int
) -> list[tuple[int, int]]:
    """Randomly positioned view ranges, each covering ``fraction`` of
    the domain."""
    lo_dom, hi_dom = domain
    width = max(int((hi_dom - lo_dom) * fraction), 1)
    rng = np.random.default_rng(seed)
    ranges = []
    for _ in range(num_views):
        lo = int(rng.integers(lo_dom, hi_dom - width, endpoint=True))
        ranges.append((lo, lo + width))
    return ranges


def run_fig7(
    num_pages: int | None = None,
    batch_sizes: list[int] | None = None,
    seed: int = 11,
) -> Fig7Result:
    """Run the update-performance experiment on both distributions."""
    num_pages = num_pages or scaled_pages()
    batch_sizes = batch_sizes or default_batch_sizes(num_pages)
    result = Fig7Result(num_pages=num_pages, batch_sizes=batch_sizes)

    cases = {
        "uniform": uniform(num_pages, *WIDE_DOMAIN, seed=seed),
        "sine": sine(num_pages, *WIDE_DOMAIN, seed=seed),
    }
    ranges = view_ranges(WIDE_DOMAIN, FIG7_NUM_VIEWS, FIG7_RANGE_FRACTION, seed)

    for case, values in cases.items():
        for batch_size in batch_sizes:
            # Incremental path: fresh aligned setup, one batch, realign.
            column = fresh_column(values, name=f"fig7_{case}")
            views, _ = rebuild_partial_views(
                column, VirtualView.full_view(column), ranges
            )
            batch = make_update_batch(
                column, batch_size, *WIDE_DOMAIN, seed=seed + batch_size
            )
            stats = align_partial_views(column, views, batch)

            # Rebuild path: identical setup, same updates, full rebuild.
            column_rb = fresh_column(values, name=f"fig7_{case}_rb")
            rebuild_partial_views(column_rb, VirtualView.full_view(column_rb), ranges)
            make_update_batch(
                column_rb, batch_size, *WIDE_DOMAIN, seed=seed + batch_size
            )
            full_rb = VirtualView.full_view(column_rb)
            _, rebuild_ns = rebuild_partial_views(column_rb, full_rb, ranges)

            result.points.append(
                Fig7Point(
                    case=case,
                    batch_size=batch_size,
                    parse_ms=stats.parse_ns / 1e6,
                    update_ms=stats.update_ns / 1e6,
                    rebuild_ms=rebuild_ns / 1e6,
                    pages_added=stats.pages_added,
                    pages_removed=stats.pages_removed,
                    maps_lines=stats.maps_lines,
                )
            )
    return result
