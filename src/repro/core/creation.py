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
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..faults.errors import SubstrateFault
from ..obs.observer import NULL_OBSERVER, NullObserver
from ..storage.column import PhysicalColumn
from ..vm.cost import MAIN_LANE, MAPPER_LANE, CostModel
from .routing import scan_views
from .view import MapPlan, VirtualView


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
        mspan.set(runs=plan.num_runs)
    return plan.num_runs


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
        view = VirtualView(column, lo, hi)
        try:
            calls = materialize_pages(
                view,
                routed.qualifying_fpages,
                coalesce=coalesce,
                background=background,
                retry=retry,
            )
        except SubstrateFault:
            # Atomic rewire: a fault mid-creation unmaps and releases the
            # half-built view before surfacing, so the caller never sees
            # a partially materialized catalog entry.
            view.destroy()
            raise
        view.update_range(routed.extended_lo, routed.extended_hi)
    return CreationReport(
        view=view,
        elapsed_ns=region.elapsed_ns(overlap=True),
        main_ns=region.lane_ns(MAIN_LANE),
        mapper_ns=region.lane_ns(MAPPER_LANE),
        mmap_calls=calls,
        pages=view.num_pages,
    )
