"""Per-query and per-maintenance statistics.

The paper's figures plot, next to response time, the *number of scanned
physical pages* (Figure 4), the *number of views used per query*
(Figure 5) and the *pages added/removed* during view maintenance
(Figure 7).  These records carry exactly that data out of the layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class ViewEvent(Enum):
    """What happened to the candidate view built during a query."""

    #: No candidate was built (generation stopped or disabled).
    NONE = "none"

    #: The candidate was inserted as a new partial view.
    INSERTED = "inserted"

    #: The candidate replaced an existing partial view (superset rule).
    REPLACED = "replaced"

    #: Discarded: covers a subset of an existing view of similar size.
    DISCARDED_SUBSET = "discarded_subset"

    #: Discarded: does not index fewer pages than the full view.
    DISCARDED_FULL = "discarded_full"

    #: Discarded: the maximum number of views was already reached.
    LIMIT_REACHED = "limit_reached"

    #: Inserted after evicting the least-recently-used view (extension).
    EVICTED_LRU = "evicted_lru"

    #: A substrate fault aborted the candidate's materialization; the
    #: half-built view was rolled back and the query served from scans.
    FAULTED = "faulted"

    #: A view (or failed candidate range) entered the quarantine list
    #: for a later rebuild.
    QUARANTINED = "quarantined"

    #: A quarantined range was rebuilt from physical pages, passed its
    #: scoped invariant audit, and re-entered the index.
    REBUILT = "rebuilt"

    #: The mapping governor denied the candidate admission: even after
    #: eviction the maps-line budget had no headroom for it.
    DENIED_BUDGET = "denied_budget"

    #: The mapping governor evicted this view to satisfy the budget.
    EVICTED_BUDGET = "evicted_budget"

    #: The view was dropped because the column grew (write-buffer
    #: merge): view capacity is fixed at creation, so appended pages
    #: force a rebuild from the grown column.
    DROPPED_GROWTH = "dropped_growth"


def view_utility(use_count: int, num_pages: int) -> int:
    """How much a partial view has earned its mappings.

    The governor evicts the lowest-utility views first: utility is the
    view's hit count times its page count — how much full-scan work the
    view has saved so far.  A never-used view scores 0 regardless of
    size and is always the first to go.
    """
    return use_count * num_pages


@dataclass(frozen=True)
class ViewLifecycleEvent:
    """One entry of the view index's lifecycle journal.

    Records what happened to the candidate view built during a query —
    enough to reconstruct *why* the index looks the way it does.
    """

    #: Sequence number within the layer (1-based).
    sequence: int
    #: The decision taken.
    event: ViewEvent
    #: The candidate's covered value range (after extension).
    lo: int
    hi: int
    #: Pages the candidate indexed.
    candidate_pages: int
    #: Range of the existing view that triggered a subset-discard or was
    #: replaced (None otherwise).
    other_range: tuple[int, int] | None = None
    #: Page count of that other view.
    other_pages: int | None = None

    def describe(self) -> str:
        """One human-readable line."""
        base = (
            f"#{self.sequence} candidate v[{self.lo}, {self.hi}] "
            f"({self.candidate_pages}p): {self.event.value}"
        )
        if self.other_range is not None:
            base += (
                f" (vs v[{self.other_range[0]}, {self.other_range[1]}]"
                f" {self.other_pages}p)"
            )
        return base


@dataclass
class QueryStats:
    """Measurements of one routed query."""

    lo: int
    hi: int
    #: Simulated response time (main lane) in nanoseconds.
    sim_ns: float = 0.0
    #: Distinct physical pages scanned to answer the query.
    pages_scanned: int = 0
    #: Number of views used to answer the query.
    views_used: int = 0
    #: Rows in the query result.
    result_rows: int = 0
    #: Fate of the candidate view created alongside the query.
    view_event: ViewEvent = ViewEvent.NONE
    #: Pages the candidate view indexes, kept or not (0 if none was
    #: generated, or it faulted).
    candidate_pages: int = 0
    #: Number of partial views existing after the query.
    partial_views_after: int = 0

    @property
    def sim_ms(self) -> float:
        """Simulated response time in milliseconds."""
        return self.sim_ns / 1e6

    def describe(self) -> str:
        """One human-readable line (mirrors ViewLifecycleEvent.describe)."""
        return (
            f"q[{self.lo}, {self.hi}]: {self.sim_ms:.3f} ms, "
            f"{self.pages_scanned}p scanned via {self.views_used} view(s), "
            f"{self.result_rows} rows, candidate {self.view_event.value}"
        )

    def __str__(self) -> str:
        return self.describe()


@dataclass
class MaintenanceStats:
    """Measurements of one batch view alignment (Figure 7's quantities)."""

    #: Updates in the raw batch.
    batch_size: int = 0
    #: Updates remaining after per-row compaction.
    compacted_size: int = 0
    #: Simulated time spent parsing /proc/PID/maps into the bimap.
    parse_ns: float = 0.0
    #: Simulated time spent deciding and (un)mapping pages.
    update_ns: float = 0.0
    #: Lines in the parsed maps file.
    maps_lines: int = 0
    #: Pages newly mapped into partial views.
    pages_added: int = 0
    #: Pages removed from partial views.
    pages_removed: int = 0
    #: Substrate faults absorbed during this alignment.
    faults: int = 0
    #: Partial views dropped because a fault left them unverifiable.
    views_dropped: int = 0
    #: The dropped views themselves (for the caller to discard from
    #: its view index).
    dropped_views: list = field(default_factory=list)
    #: Quarantined views rebuilt during this cycle's recovery pass.
    views_rebuilt: int = 0
    #: Views evicted by the mapping governor during this cycle.
    governor_evictions: int = 0

    @property
    def total_ns(self) -> float:
        """Parse plus update time."""
        return self.parse_ns + self.update_ns

    def describe(self) -> str:
        """One human-readable line (mirrors ViewLifecycleEvent.describe)."""
        line = (
            f"batch {self.batch_size}→{self.compacted_size}: "
            f"parse {self.parse_ns / 1e6:.3f} ms ({self.maps_lines} maps lines), "
            f"update {self.update_ns / 1e6:.3f} ms, "
            f"+{self.pages_added}p/-{self.pages_removed}p"
        )
        if self.faults:
            line += f", {self.faults} fault(s)/{self.views_dropped} dropped"
        if self.views_rebuilt or self.governor_evictions:
            line += (
                f", {self.views_rebuilt} rebuilt/"
                f"{self.governor_evictions} evicted (budget)"
            )
        return line

    def __str__(self) -> str:
        return self.describe()


@dataclass
class SequenceStats:
    """Aggregate over a query sequence (Table 1's quantity)."""

    queries: list[QueryStats] = field(default_factory=list)

    def append(self, stats: QueryStats) -> None:
        """Record one more query."""
        self.queries.append(stats)

    @property
    def accumulated_ns(self) -> float:
        """Accumulated simulated response time over the sequence."""
        return sum(q.sim_ns for q in self.queries)

    @property
    def accumulated_seconds(self) -> float:
        """Accumulated simulated response time in seconds."""
        return self.accumulated_ns / 1e9

    @property
    def total_pages_scanned(self) -> int:
        """Pages scanned over the whole sequence."""
        return sum(q.pages_scanned for q in self.queries)

    def __len__(self) -> int:
        return len(self.queries)
