"""The view index: all views of a column plus the retention policy.

Implements ``views.getOptimalViews`` from Listing 1 for both routing
modes (Section 2.1) and the candidate retention decision of Listing 1,
lines 21–32 (discard-as-subset with tolerance ``d``, replace-as-superset
with tolerance ``r``, insert while below the view limit, stop generation
once the limit is reached).  The decision comes before a candidate is
mapped, on every stack: only a kept candidate is built.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from ..obs.observer import NULL_OBSERVER, NullObserver
from ..storage.column import PhysicalColumn
from ..vm.cost import MAIN_LANE
from .config import AdaptiveConfig, EvictionPolicy, RoutingMode
from .creation import Candidate
from .stats import ViewEvent, ViewLifecycleEvent
from .view import VirtualView

#: Candidate fates that leave the candidate in the view catalog.
KEPT = frozenset({ViewEvent.INSERTED, ViewEvent.REPLACED, ViewEvent.EVICTED_LRU})


@dataclass
class QuarantineEntry:
    """A value range whose view was lost and awaits a rebuild.

    Lives in :attr:`ViewIndex.quarantine`; the resilience layer's
    rebuilder drains the list during maintenance or an explicit repair.
    (Defined here rather than in :mod:`repro.resilience` so the core
    never imports the resilience package.)
    """

    #: The lost view's covered value range.
    lo: int
    hi: int
    #: Why the range was quarantined (fault kind or "maintenance").
    reason: str = ""
    #: Rebuild attempts consumed so far.
    attempts: int = 0


class ViewIndex:
    """Full view plus the adaptively created partial views of a column."""

    def __init__(
        self,
        column: PhysicalColumn,
        config: AdaptiveConfig,
        observer: NullObserver | None = None,
    ) -> None:
        self.column = column
        self.config = config
        self.observer = observer or NULL_OBSERVER
        self.full_view = VirtualView.full_view(column)
        self._partials: list[VirtualView] = []
        #: Once the view limit is hit, generation of new partial views
        #: stops altogether (Section 2.2).
        self.generation_stopped = False
        #: Journal of candidate decisions (debugging / introspection).
        self.history: list[ViewLifecycleEvent] = []
        #: Logical clock for LRU bookkeeping.
        self._use_clock = 0
        self._last_used: dict[int, int] = {}
        #: Query hits per partial view (feeds the governor's utility).
        self._use_counts: dict[int, int] = {}
        #: Ranges whose views were lost to permanent faults (or dropped
        #: by maintenance) and await rebuild by the resilience layer.
        self.quarantine: list[QuarantineEntry] = []
        #: Interval index over the partial views: views sorted by
        #: ``(lo, -hi, insertion position)``, with the keys and a
        #: parallel ``lo`` list for bisect.  An insert, replace or drop
        #: moves one entry by bisection (view ranges are immutable once
        #: a view is indexed), so routing binary-searches instead of
        #: scanning the full list and never re-sorts it.  The insertion
        #: position is a counter: a replacement inherits the replaced
        #: view's, and removals keep the others' order, so it orders the
        #: views as their places in :attr:`partial_views` do.
        self._sorted_keys: list[tuple[int, int, int]] = []
        self._sorted_views: list[VirtualView] = []
        self._sorted_los: list[int] = []
        self._position: dict[int, int] = {}
        self._next_position = 0

    @property
    def partial_views(self) -> list[VirtualView]:
        """The current partial views (insertion order)."""
        return list(self._partials)

    @property
    def num_partials(self) -> int:
        """Number of partial views currently kept."""
        return len(self._partials)

    def all_views(self) -> list[VirtualView]:
        """Full view plus all partial views."""
        return [self.full_view, *self._partials]

    # -- query routing (Section 2.1) -------------------------------------

    def get_optimal_views(self, lo: int, hi: int) -> list[VirtualView]:
        """The view(s) used to answer a query selecting ``[lo, hi]``.

        Dispatches on the configured routing mode.  The result always
        fully covers ``[lo, hi]`` (the full view guarantees a fallback).
        """
        selected: list[VirtualView] | None = None
        if self.config.mode is RoutingMode.MULTI:
            selected = self._select_multi(lo, hi)
        elif self.config.mode is RoutingMode.MULTI_COST:
            selected = self._select_multi_cost(lo, hi)
        if selected is None:
            selected = [self._select_single(lo, hi)]
        self._touch(selected)
        return selected

    def _touch(self, views: list[VirtualView]) -> None:
        """Advance the LRU clock for the views a query used."""
        self._use_clock += 1
        for view in views:
            if not view.is_full_view:
                self._last_used[id(view)] = self._use_clock
                self._use_counts[id(view)] = (
                    self._use_counts.get(id(view), 0) + 1
                )

    def use_count(self, view: VirtualView) -> int:
        """How many queries this partial view has served."""
        return self._use_counts.get(id(view), 0)

    def last_used(self, view: VirtualView) -> int:
        """The LRU clock tick of the view's most recent use (0 = never)."""
        return self._last_used.get(id(view), 0)

    def _index(self, view: VirtualView, position: int) -> None:
        """Enter a partial view into the interval index."""
        key = (view.lo, -view.hi, position)
        i = bisect.bisect_left(self._sorted_keys, key)
        self._sorted_keys.insert(i, key)
        self._sorted_views.insert(i, view)
        self._sorted_los.insert(i, view.lo)
        self._position[id(view)] = position

    def _unindex(self, view: VirtualView) -> int:
        """Take a partial view out of the interval index; returns its
        insertion position."""
        position = self._position.pop(id(view))
        i = bisect.bisect_left(self._sorted_keys, (view.lo, -view.hi, position))
        del self._sorted_keys[i], self._sorted_views[i], self._sorted_los[i]
        return position

    def _select_single(self, lo: int, hi: int) -> VirtualView:
        """Single-view mode: the smallest view fully covering the range.

        Only views with ``view.lo <= lo`` can cover the range, so the
        bisect over the sorted ``lo`` array bounds the scan.  Ties on
        page count resolve to the earliest-inserted view (the first
        strict improvement wins in a linear scan), and a partial view
        must beat the full view *strictly* to be chosen.
        """
        end = bisect.bisect_right(self._sorted_los, lo)
        best = self.full_view
        best_key = (self.full_view.num_pages, -1)
        for i in range(end):
            view = self._sorted_views[i]
            if view.hi >= hi:
                key = (view.num_pages, self._sorted_keys[i][2])
                if key < best_key:
                    best = view
                    best_key = key
        return best

    def _select_multi(self, lo: int, hi: int) -> list[VirtualView] | None:
        """Multi-view mode: partial views jointly covering the range.

        The paper's current policy is deliberately simple: if the
        partial views overlapping the query range fully cover it in
        conjunction, *all* of them are used (shared physical pages are
        deduplicated by the processed-pages bitvector); choosing a
        cheaper subset "based on the covered value ranges and the number
        of indexed pages" is explicitly left as future work.  Returns
        None when the partials cannot cover the range (the caller falls
        back to single-view mode).
        """
        end = bisect.bisect_right(self._sorted_los, hi)
        # The index is already sorted by (lo, -hi, insertion order) —
        # exactly the stable order the cover walk below expects.
        overlapping = [
            v for v in self._sorted_views[:end] if v.hi >= lo
        ]
        if not overlapping:
            return None
        point = lo
        for view in overlapping:
            if view.lo > point:
                return None  # gap: the conjunction does not cover [lo, hi]
            point = max(point, view.hi + 1)
            if point > hi:
                return overlapping
        return overlapping if point > hi else None

    def _select_multi_cost(self, lo: int, hi: int) -> list[VirtualView] | None:
        """Cost-based multi-view cover (the paper's future work).

        Greedily builds a cover of ``[lo, hi]`` from the partial views,
        at each uncovered point picking the view with the lowest indexed
        pages per unit of new coverage.  The resulting cover competes
        against the best single covering view: whichever scans fewer
        pages wins.  Returns None when the partials cannot cover the
        range at all.
        """
        end = bisect.bisect_right(self._sorted_los, hi)
        # Greedy min() ties resolve to the earliest-inserted candidate,
        # so restore insertion order after the bisect-bounded overlap cut.
        indexed = [
            (self._sorted_keys[i][2], self._sorted_views[i])
            for i in range(end)
            if self._sorted_views[i].hi >= lo
        ]
        indexed.sort()
        candidates = [v for _, v in indexed]
        if not candidates:
            return None

        chosen: list[VirtualView] = []
        point = lo
        while True:
            covering = [v for v in candidates if v.lo <= point <= v.hi]
            if not covering:
                return None  # gap
            best = min(
                covering,
                key=lambda v: (
                    v.num_pages / (min(v.hi, hi) - point + 1),
                    -v.hi,
                ),
            )
            chosen.append(best)
            if best.hi >= hi:
                break
            point = best.hi + 1

        cover_pages = int(
            np.unique(
                np.concatenate([view.mapped_fpages() for view in chosen])
            ).size
        )
        single = self._select_single(lo, hi)
        if single.num_pages <= cover_pages:
            return [single]
        return chosen

    # -- candidate retention (Listing 1, lines 21-32) ------------------------

    def decide(
        self, npages: int, lo: int, hi: int
    ) -> tuple[ViewEvent, VirtualView | None]:
        """Listing 1's verdict on a candidate ``v[lo, hi]`` of ``npages``
        pages, and the partial view it names (the one replaced, the
        subset's cover, the LRU victim) or None.

        Pure: it reads the partials and the LRU clocks but changes
        nothing; :meth:`consider_candidate` acts on the verdict.
        """
        if self.generation_stopped:
            return ViewEvent.LIMIT_REACHED, None
        # Must improve over the full view at all.
        if npages >= self.full_view.num_pages:
            return ViewEvent.DISCARDED_FULL, None
        d = self.config.discard_tolerance
        r = self.config.replacement_tolerance
        for partial in self._partials:
            if (
                partial.lo <= lo
                and hi <= partial.hi
                and npages >= partial.num_pages - d
            ):
                # Smaller range, similar work: less useful than what we have.
                return ViewEvent.DISCARDED_SUBSET, partial
            if (
                lo <= partial.lo
                and partial.hi <= hi
                and npages <= partial.num_pages + r
            ):
                # Wider range, similar work: strictly more useful.
                return ViewEvent.REPLACED, partial
        if self.num_partials >= self.config.max_views:
            if self.config.eviction is EvictionPolicy.LRU and self._partials:
                victim = min(
                    self._partials,
                    key=lambda v: self._last_used.get(id(v), 0),
                )
                return ViewEvent.EVICTED_LRU, victim
            return ViewEvent.LIMIT_REACHED, None
        return ViewEvent.INSERTED, None

    def consider_candidate(
        self, candidate: Candidate, lane: str = MAIN_LANE
    ) -> ViewEvent:
        """Decide the fate of a candidate view and act on the verdict.

        Implements Listing 1's retention policy verbatim: :meth:`decide`
        first, then the side effects — replace, LRU-evict, insert, set
        the STOP latch.  The candidate is built only when kept; a
        discarded one is booked, never mapped
        (:func:`~repro.core.creation.book_discarded`).  Replaced and
        evicted views are destroyed.  Every decision is recorded in
        :attr:`history`.
        """
        event, other = self.decide(candidate.num_pages, candidate.lo, candidate.hi)
        if event not in KEPT:
            candidate.discard(lane)
            self._journal(candidate, event, other=other)
            if event is ViewEvent.LIMIT_REACHED:
                self.generation_stopped = True
            return event

        view = candidate.build(lane)
        if event is ViewEvent.REPLACED:
            self._journal(view, event, other=other)
            self.replace(other, view, lane)
        elif event is ViewEvent.EVICTED_LRU:
            self._journal(view, event, other=other)
            self.drop(other, lane)
            self.insert(view)
        else:
            self.insert(view)
            if (
                self.num_partials >= self.config.max_views
                and self.config.eviction is EvictionPolicy.STOP
            ):
                self.generation_stopped = True
            self._journal(view, event)
        return event

    def _journal(
        self,
        candidate: VirtualView | Candidate,
        event: ViewEvent,
        other: VirtualView | None = None,
    ) -> ViewEvent:
        """Append a lifecycle record, count it, and return the event."""
        record = ViewLifecycleEvent(
            sequence=len(self.history) + 1,
            event=event,
            lo=candidate.lo,
            hi=candidate.hi,
            candidate_pages=candidate.num_pages,
            other_range=(other.lo, other.hi) if other is not None else None,
            other_pages=other.num_pages if other is not None else None,
        )
        self.history.append(record)
        self.observer.on_view_event(record)
        return event

    def record_decision(
        self,
        view: VirtualView,
        event: ViewEvent,
        other: VirtualView | None = None,
    ) -> ViewEvent:
        """Journal a lifecycle decision made outside the retention path
        (e.g. a governor eviction)."""
        return self._journal(view, event, other=other)

    def record_range_event(
        self, event: ViewEvent, lo: int, hi: int, pages: int = 0
    ) -> ViewEvent:
        """Journal an event described only by a value range.

        Used for decisions without a live candidate object: faults,
        quarantines, rebuilds and budget denials.
        """
        record = ViewLifecycleEvent(
            sequence=len(self.history) + 1,
            event=event,
            lo=lo,
            hi=hi,
            candidate_pages=pages,
        )
        self.history.append(record)
        self.observer.on_view_event(record)
        return event

    def record_fault(self, lo: int, hi: int) -> ViewEvent:
        """Journal a candidate lost to a substrate fault.

        The half-built candidate was already rolled back by the caller;
        this records the failed creation attempt over ``[lo, hi]`` so
        the lifecycle journal explains the missing view.
        """
        return self.record_range_event(ViewEvent.FAULTED, lo, hi)

    # -- quarantine (resilience layer) ------------------------------------

    def quarantine_range(self, lo: int, hi: int, reason: str = "") -> None:
        """Queue a lost range for rebuild (idempotent per range)."""
        for entry in self.quarantine:
            if entry.lo == lo and entry.hi == hi:
                return
        self.quarantine.append(QuarantineEntry(lo=lo, hi=hi, reason=reason))
        self.record_range_event(ViewEvent.QUARANTINED, lo, hi)

    def release_quarantine(self, entry: QuarantineEntry) -> None:
        """Remove an entry after a rebuild (or after giving up on it)."""
        if entry in self.quarantine:
            self.quarantine.remove(entry)

    def discard(self, view: VirtualView) -> None:
        """Forget an already-destroyed partial view (fault fallout).

        Unlike :meth:`drop`, the view's region is *not* released here —
        maintenance already tore it down under fault suppression; the
        index merely stops advertising it to the router.
        """
        if view in self._partials:
            self._partials.remove(view)
            self._last_used.pop(id(view), None)
            self._use_counts.pop(id(view), None)
            self._unindex(view)

    def insert(self, view: VirtualView) -> None:
        """Add a partial view to the index."""
        if view.is_full_view:
            raise ValueError("the full view is implicit, do not insert it")
        self._partials.append(view)
        self._index(view, self._next_position)
        self._next_position += 1

    def replace(
        self, old: VirtualView, new: VirtualView, lane: str = MAIN_LANE
    ) -> None:
        """Replace partial view ``old`` by ``new``, destroying ``old``."""
        idx = self._partials.index(old)
        self._partials[idx] = new
        self._last_used.pop(id(old), None)
        self._use_counts.pop(id(old), None)
        self._index(new, self._unindex(old))
        old.destroy(lane)

    def drop(self, view: VirtualView, lane: str = MAIN_LANE) -> None:
        """Remove and destroy a partial view."""
        self._partials.remove(view)
        self._last_used.pop(id(view), None)
        self._use_counts.pop(id(view), None)
        self._unindex(view)
        view.destroy(lane)

    def rebuild_for_growth(self, lane: str = MAIN_LANE) -> None:
        """Re-anchor the index after the column gained pages.

        View capacity is fixed at creation, so a grown column (write-
        buffer merge) invalidates every existing view: the partials are
        dropped (journaled as :attr:`ViewEvent.DROPPED_GROWTH`; they
        will be re-learned adaptively) and the full view is recreated
        over the new page count.  Candidate generation restarts even if
        the view limit had been reached — the column changed shape.
        """
        for view in self.partial_views:
            self.record_decision(view, ViewEvent.DROPPED_GROWTH)
            self.drop(view, lane)
        self.full_view.destroy(lane)
        self.full_view = VirtualView.full_view(self.column, lane=lane)
        self.generation_stopped = False
