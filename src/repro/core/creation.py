"""Optimized partial-view creation (Section 2.3).

Two optimizations reduce the dominating cost of view creation — the
repeated mmap() calls:

1. **Coalescing**: consecutive qualifying physical pages are mapped with
   a single mmap() call.  The more clustered the data, the longer the
   runs and the fewer the calls.
2. **Background mapping**: the scanning thread only pushes map requests
   into a concurrent queue; a separate mapping thread pops them and
   performs the actual mmap() calls.  Once the new view is completely
   mapped, the mapping thread signals the main thread that the view can
   be inserted into the view index.

Both optimizations are implemented for real here (the background mapper
is an actual thread); their *timing* effect is accounted on the cost
model's lanes: queue pushes charge the main lane, mmap calls charge the
mapper lane, and a creation's elapsed time is the maximum over lanes.

Every partial view — a query's candidate, a rebuilt, advised, restored
or standalone view — is reserved, mapped and, on a fault, rolled back
by one function, :func:`build_view`.  A query's candidate is built only
once Listing 1 has decided to keep it; a discarded one is booked by
:func:`book_discarded`, which charges what building and destroying it
would without issuing any of it: its booked reservation is its only
fault point.
"""

from __future__ import annotations

import queue
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..faults.errors import SubstrateFault
from ..obs.observer import NULL_OBSERVER, NullObserver
from ..storage.column import PhysicalColumn
from ..vm.cost import MAIN_LANE, MAPPER_LANE, CostModel
from .routing import scan_views
from .view import MapPlan, VirtualView, split_runs

#: The plan of a candidate without pages.
_NO_RUNS = np.empty(0, dtype=np.int64)


def _issue(
    view: VirtualView, plan: MapPlan, lane: str
) -> Iterator[tuple[MapPlan, SubstrateFault]]:
    """Execute ``plan`` with one substrate call; yield the runs that fault.

    A substrate fault names the run it hit and leaves the runs before it
    mapped.  That one run is yielded with its fault — for the caller to
    heal, park or re-raise — and the rest of the plan goes out as the
    next call, first attempts all: the fault plane sees one ``map_fixed``
    per run, in plan order, whatever faults on the way.
    """
    while plan.num_runs:
        try:
            view.execute_plan(plan, lane)
            return
        except SubstrateFault as fault:
            failed = fault.run_index
            yield plan.runs(failed, failed + 1), fault
            plan = plan.runs(failed + 1)


def retryable(retry, op: str, fn, lane: str):
    """Run ``fn`` directly, or under the retry policy when one is armed."""
    if retry is None:
        return fn()
    return retry.run(op, fn, lane)


def _heal(
    retry, view: VirtualView, run: MapPlan, fault: SubstrateFault, lane: str
) -> None:
    """Re-attempt one faulted run under the retry policy, or re-raise.

    The fault plane raises before the backend mutates, so re-attempting
    the run wholesale is safe.
    """
    if retry is None:
        raise fault
    retry.resume("map_fixed", fault, lambda: view.execute_plan(run, lane), lane)


class BackgroundMapper:
    """The separate mapping thread of Section 2.3, optimization 2.

    The scanning thread submits a view's :class:`~repro.core.view.MapPlan`
    into a concurrent queue; this thread constantly polls the queue and
    performs the mmap() calls, charging the mapper lane.  ``flush``
    blocks until every submitted plan has been executed — the "view is
    completely mapped, insert it" signal.
    """

    _STOP = object()

    def __init__(self, cost: CostModel) -> None:
        self._cost = cost
        self._queue: queue.Queue = queue.Queue()
        self._thread = threading.Thread(
            target=self._run, name="view-mapper", daemon=True
        )
        self._failures: list[tuple[VirtualView, MapPlan, BaseException]] = []
        self._thread.start()

    def submit(self, view: VirtualView, plan: MapPlan) -> None:
        """Enqueue a plan (charges one queue push per run on the caller)."""
        self._cost.queue_op(plan.num_runs, MAIN_LANE)
        self._queue.put((view, plan))

    def flush(self, retry=None) -> None:
        """Wait until all submitted plans have been mapped.

        With a :class:`~repro.resilience.retry.RetryPolicy`, runs the
        mapping thread lost to *transient* substrate faults are retried
        here (on the mapper lane, like the attempt they replace) before
        any failure surfaces.  Re-raises the first unrecovered
        exception, then clears the failure list — the thread stays alive
        and the mapper is reusable for the next view.
        """
        self._queue.join()
        failures, self._failures = self._failures, []
        unrecovered: BaseException | None = None
        for view, run, exc in failures:
            if isinstance(exc, SubstrateFault):
                try:
                    _heal(retry, view, run, exc, MAPPER_LANE)
                    continue
                except SubstrateFault as final:
                    exc = final
            if unrecovered is None:
                unrecovered = exc
        if unrecovered is not None:
            raise unrecovered

    def stop(self) -> None:
        """Terminate the mapping thread (idempotent)."""
        if self._thread.is_alive():
            self._queue.put(self._STOP)
            self._thread.join()

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is self._STOP:
                    return
                view, plan = item
                self._cost.queue_op(plan.num_runs, MAPPER_LANE)
                try:
                    # Park each faulted run for the flusher, which can
                    # retry transient faults before surfacing anything,
                    # and carry on with the runs after it.
                    for run, fault in _issue(view, plan, MAPPER_LANE):
                        self._failures.append((view, run, fault))
                except BaseException as exc:
                    self._failures.append((view, plan, exc))
            finally:
                self._queue.task_done()


def materialize_pages(
    view: VirtualView,
    fpages: np.ndarray,
    coalesce: bool = True,
    background: BackgroundMapper | None = None,
    lane: str = MAIN_LANE,
    observer: NullObserver | None = None,
    retry=None,
) -> int:
    """Map the qualifying pages into a fresh view; returns mmap calls used.

    With ``coalesce`` enabled, maximal runs of consecutive physical pages
    become single calls; otherwise every page is mapped individually.
    Either way the view plans all calls in one vectorized pass and hands
    the substrate the whole plan at once.  With a ``background`` mapper,
    the plan runs on the mapping thread and this function returns only
    after the view is completely mapped.  With a ``retry`` policy,
    transient substrate faults are retried with backoff instead of
    aborting the creation.
    """
    obs = observer or NULL_OBSERVER
    fpages = np.asarray(fpages, dtype=np.int64)
    if fpages.size == 0:
        return 0
    with obs.span(
        "map-pages",
        pages=int(fpages.size),
        coalesce=coalesce,
        background=background is not None,
    ) as mspan:
        plan = view.plan_runs(fpages, coalesce=coalesce)
        if background is not None:
            background.submit(view, plan)
            background.flush(retry=retry)
        else:
            for run, fault in _issue(view, plan, lane):
                _heal(retry, view, run, fault, lane)
        runs = plan.num_runs
        mspan.set(runs=runs)
    return runs


def build_view(
    column: PhysicalColumn,
    lo: int,
    hi: int,
    fpages: np.ndarray,
    *,
    coalesce: bool = True,
    background: BackgroundMapper | None = None,
    lane: str = MAIN_LANE,
    observer: NullObserver | None = None,
    retry=None,
) -> tuple[VirtualView, int]:
    """Build a partial view ``v[lo, hi]`` of the pages ``fpages``.

    Every partial view is built here: the view's area is reserved (under
    the ``retry`` policy, when one is armed) and the pages are mapped by
    :func:`materialize_pages`.  The build is atomic: a fault while
    mapping unmaps and releases the half-built view before it surfaces,
    so no caller ever holds a partially materialized view.  Returns the
    view and the mmap calls used.
    """
    view = retryable(
        retry, "reserve", lambda: VirtualView(column, lo, hi, lane=lane), lane
    )
    try:
        calls = materialize_pages(
            view,
            fpages,
            coalesce=coalesce,
            background=background,
            lane=lane,
            observer=observer,
            retry=retry,
        )
    except Exception:
        view.destroy(lane)
        raise
    return view, calls


def book_discarded(
    column: PhysicalColumn,
    fpages: np.ndarray,
    *,
    coalesce: bool = True,
    background: BackgroundMapper | None = None,
    lane: str = MAIN_LANE,
    observer: NullObserver | None = None,
    retry=None,
) -> None:
    """Charge a discarded candidate what building and destroying it
    would, issuing nothing.

    The view's reservation, its plan's runs and its release are booked
    by one :meth:`Substrate.book_discard
    <repro.substrate.interface.Substrate.book_discard>` under the
    ``retry`` policy, as :func:`build_view` reserves: no area is
    reserved or released, and no page is mapped, on any backend.  The
    runs are counted by the rule :meth:`VirtualView.plan_runs` maps by.
    With a ``background`` mapper they land on the mapper lane, plus one
    queue operation per run on each lane, as :class:`BackgroundMapper`
    books them; without one, on ``lane``.  A candidate with pages is
    booked inside a ``book-pages`` span carrying the attributes
    :func:`materialize_pages` gives its ``map-pages`` span: booked work
    has no syscall, so calibration pairs it with no cost constant.
    """
    obs = observer or NULL_OBSERVER
    substrate = column.substrate
    fpages = np.asarray(fpages, dtype=np.int64)
    capacity = column.num_pages

    def book(npages: np.ndarray = _NO_RUNS, map_lane: str = lane) -> None:
        retryable(
            retry,
            "reserve",
            lambda: substrate.book_discard(capacity, npages, lane, map_lane),
            lane,
        )

    if not fpages.size:
        book()
        return
    with obs.span(
        "book-pages",
        pages=int(fpages.size),
        coalesce=coalesce,
        background=background is not None,
    ) as mspan:
        try:
            _, npages = split_runs(fpages, capacity, capacity, coalesce)
        except Exception:
            # A page set no view can map: a build reserves and releases
            # the area before the plan fails, so the booking does too.
            book()
            raise
        runs = int(npages.size)
        if background is None:
            book(npages)
        else:
            book(npages, MAPPER_LANE)
            column.cost.queue_op(runs, MAIN_LANE)
            column.cost.queue_op(runs, MAPPER_LANE)
        mspan.set(runs=runs)


@dataclass(eq=False)
class Candidate:
    """A query's candidate view ``v[lo, hi]`` over ``fpages``, not yet built.

    Listing 1 decides a candidate's fate from its range and page count
    alone, so :meth:`~repro.core.view_index.ViewIndex.consider_candidate`
    builds it (:meth:`build`) only when it keeps it, and books a
    discarded one (:meth:`discard`) without mapping a page.
    """

    column: PhysicalColumn
    lo: int
    hi: int
    fpages: np.ndarray
    coalesce: bool = True
    background: BackgroundMapper | None = None
    observer: NullObserver | None = None
    #: The layer's :class:`~repro.resilience.retry.RetryPolicy` (or None),
    #: under which :meth:`build` reserves and :meth:`discard` books.
    retry: object | None = None
    #: The built view, once :meth:`build` ran.
    view: VirtualView | None = field(default=None, init=False)

    @property
    def num_pages(self) -> int:
        """Pages the view would index."""
        return int(self.fpages.size)

    def build(self, lane: str = MAIN_LANE) -> VirtualView:
        """Build the view by :func:`build_view`; also kept in :attr:`view`."""
        self.view, _ = build_view(
            self.column,
            self.lo,
            self.hi,
            self.fpages,
            coalesce=self.coalesce,
            background=self.background,
            lane=lane,
            observer=self.observer,
            retry=self.retry,
        )
        return self.view

    def discard(self, lane: str = MAIN_LANE) -> None:
        """Book the discarded view by :func:`book_discarded`."""
        book_discarded(
            self.column,
            self.fpages,
            coalesce=self.coalesce,
            background=self.background,
            lane=lane,
            observer=self.observer,
            retry=self.retry,
        )


@contextmanager
def all_or_none(lane: str = MAIN_LANE) -> Iterator[list[VirtualView]]:
    """Collect the views a ``with`` body builds; destroy them all if it
    raises, before the error surfaces.

    :func:`build_view` rolls back the one view that faults; this rolls
    back the ones a multi-view build finished before it.
    """
    built: list[VirtualView] = []
    try:
        yield built
    except BaseException:
        for view in built:
            view.destroy(lane)
        raise


@dataclass
class CreationReport:
    """Timing breakdown of one standalone view creation (Figure 6)."""

    #: The created view.
    view: VirtualView
    #: Simulated elapsed creation time (lanes overlapped).
    elapsed_ns: float
    #: Time charged on the scanning (main) lane.
    main_ns: float
    #: Time charged on the mapping lane (0 without the thread).
    mapper_ns: float
    #: Number of mmap calls issued for the view's pages.
    mmap_calls: int
    #: Number of pages the view indexes.
    pages: int


def create_partial_view(
    column: PhysicalColumn,
    source_views: list[VirtualView],
    lo: int,
    hi: int,
    coalesce: bool = True,
    background: BackgroundMapper | None = None,
    retry=None,
) -> CreationReport:
    """Create a partial view ``v[lo, hi]`` from existing covering views.

    This is the standalone creation path used by Figure 6's experiment:
    scan-and-filter the source view(s), then map all qualifying pages
    with the selected optimizations.  The returned report separates the
    scanning and mapping lanes so the overlap effect is visible.
    """
    cost = column.cost
    with cost.region() as region:
        routed = scan_views(column, source_views, lo, hi)
        view, calls = build_view(
            column,
            routed.extended_lo,
            routed.extended_hi,
            routed.qualifying_fpages,
            coalesce=coalesce,
            background=background,
            retry=retry,
        )
    return CreationReport(
        view=view,
        elapsed_ns=region.elapsed_ns(overlap=True),
        main_ns=region.lane_ns(MAIN_LANE),
        mapper_ns=region.lane_ns(MAPPER_LANE),
        mmap_calls=calls,
        pages=view.num_pages,
    )
