"""Column statistics: histograms and selectivity estimation (extension).

A classical optimizer companion to the adaptive layer: an equi-width
histogram per column supports estimating how many rows and pages a range
predicate will touch *before* running it.  The SQL layer's EXPLAIN uses
this to print expected cardinalities next to the routing decision, and
the estimates provide a second, independent check of the page-counting
math used throughout the benchmarks.  A histogram is a snapshot of the
column's values when it is built; EXPLAIN builds one per statement, so
its estimate tracks merged inserts and moved values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .column import PhysicalColumn


@dataclass(frozen=True)
class SelectivityEstimate:
    """Estimated effect of one range predicate."""

    #: Estimated qualifying rows.
    rows: float
    #: Estimated fraction of all rows.
    fraction: float
    #: Estimated physical pages holding at least one qualifying row.
    pages: float

    def describe(self) -> str:
        """One human-readable summary line."""
        return (
            f"~{self.rows:,.0f} rows ({self.fraction:.2%}), "
            f"~{self.pages:,.0f} pages"
        )


class ColumnHistogram:
    """Equi-width histogram over one column's values."""

    def __init__(self, column: PhysicalColumn, buckets: int = 64) -> None:
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self.column = column
        values = column.values()
        self.num_rows = int(values.size)
        # an empty column spans the one value 0 and every bucket counts 0
        self.min_value = int(values.min()) if self.num_rows else 0
        self.max_value = int(values.max()) if self.num_rows else 0
        span = max(self.max_value - self.min_value, 1)
        self.buckets = min(buckets, span)
        edges = np.linspace(
            self.min_value, self.max_value, self.buckets + 1, dtype=np.float64
        )
        self.counts, self.edges = np.histogram(values, bins=edges)

    def estimate_rows(self, lo: int, hi: int) -> float:
        """Estimated rows with values in ``[lo, hi]``."""
        if hi < lo or hi < self.min_value or lo > self.max_value:
            return 0.0
        lo = max(lo, self.min_value)
        hi = min(hi, self.max_value)
        total = 0.0
        for i in range(self.buckets):
            b_lo, b_hi = self.edges[i], self.edges[i + 1]
            width = b_hi - b_lo
            if width <= 0 or b_hi < lo or b_lo > hi:
                # degenerate or disjoint bucket
                if width <= 0 and b_lo >= lo and b_lo <= hi:
                    total += float(self.counts[i])
                continue
            overlap = min(hi, b_hi) - max(lo, b_lo)
            overlap = max(overlap, 0.0)
            total += float(self.counts[i]) * overlap / width
        return min(total, float(self.num_rows))

    def estimate(self, lo: int, hi: int) -> SelectivityEstimate:
        """Full estimate for a predicate: rows, fraction and pages.

        The page estimate assumes per-page independence (exact for
        uniform data; an upper bound for clustered data):
        ``pages ≈ P * (1 - (1 - f)^per_page)`` with row fraction ``f``.
        """
        rows = self.estimate_rows(lo, hi)
        fraction = rows / self.num_rows if self.num_rows else 0.0
        per_page = self.column.values_per_page
        num_pages = self.column.num_pages
        if fraction >= 1.0:
            pages = float(num_pages)
        else:
            pages = num_pages * (1.0 - (1.0 - fraction) ** per_page)
        return SelectivityEstimate(rows=rows, fraction=fraction, pages=pages)
