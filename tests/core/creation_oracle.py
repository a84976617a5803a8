"""The per-request view-creation loop, kept as the parity oracle.

This is how ``repro.core.creation.materialize_pages`` mapped a view
before it handed the substrate a whole plan: split the page set into
consecutive runs, plan each run on the view with its own call, and issue
one ``Substrate.map_fixed`` per request — inline under
``RetryPolicy.run``, or one queue item per request through the mapping
thread, whose ``flush`` retried the parked ones.  ``MapRequest``,
``plan_run`` and ``execute_request`` were ``VirtualView``'s; they are
free functions over the view's own arrays here.

``tests/vm/test_map_runs.py`` and ``tests/core/test_fastpath_parity.py``
run this and the shipped path over identical stacks and require equal
mappings, ``_touched`` flags, fault journals and ledgers.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass

import numpy as np

from repro.core.view import VirtualView
from repro.faults.errors import SubstrateFault
from repro.vm.cost import MAIN_LANE, MAPPER_LANE, CostModel


@dataclass(frozen=True)
class MapRequest:
    """A planned mmap(MAP_FIXED) call: map ``npages`` physical pages
    starting at ``fpage_start`` onto the view's virtual pages starting at
    ``vpn_start``."""

    vpn_start: int
    fpage_start: int
    npages: int


def consecutive_runs(fpages: np.ndarray) -> list[np.ndarray]:
    """Split a page sequence into maximal runs of consecutive pages."""
    fpages = np.asarray(fpages, dtype=np.int64)
    if fpages.size == 0:
        return []
    breaks = np.nonzero(np.diff(fpages) != 1)[0] + 1
    return np.split(fpages, breaks)


def plan_run(view: VirtualView, fpages: np.ndarray | list[int]) -> MapRequest:
    """Reserve consecutive fresh slots for a run of consecutive
    physical pages and record the bookkeeping, without issuing the
    mmap call yet."""
    if view.is_full_view:
        raise RuntimeError("cannot map pages into the full view")
    fpages = np.asarray(fpages, dtype=np.int64)
    n = int(fpages.size)
    if n == 0:
        raise ValueError("empty map run")
    if n > 1 and not np.all(np.diff(fpages) == 1):
        raise ValueError("map run must cover consecutive physical pages")
    if view._next_fresh + n > view.capacity:
        raise RuntimeError("view over-allocation exhausted")
    if np.any(view._slot_by_fpage[fpages] >= 0):
        raise ValueError("run contains pages already indexed by this view")
    slot_start = view._next_fresh
    view._next_fresh += n
    view._fpage_at[slot_start : slot_start + n] = fpages
    view._slot_by_fpage[fpages] = np.arange(slot_start, slot_start + n)
    view._touched[slot_start : slot_start + n] = False
    view._num_mapped += n
    view._mapped_cache = None
    return MapRequest(
        vpn_start=view.base_vpn + slot_start,
        fpage_start=int(fpages[0]),
        npages=n,
    )


def execute_request(
    view: VirtualView, request: MapRequest, lane: str = MAIN_LANE
) -> None:
    """Issue the mmap(MAP_FIXED) call for a planned run."""
    view.substrate.map_fixed(
        request.vpn_start,
        request.npages,
        view.column.file,
        request.fpage_start,
        populate=True,
        lane=lane,
    )
    start_slot = request.vpn_start - view.base_vpn
    view._touched[start_slot : start_slot + request.npages] = True


class OracleBackgroundMapper:
    """The mapping thread as it was: one queue item per request."""

    _STOP = object()

    def __init__(self, cost: CostModel) -> None:
        self._cost = cost
        self._queue: queue.Queue = queue.Queue()
        self._thread = threading.Thread(
            target=self._run, name="oracle-view-mapper", daemon=True
        )
        self._failures: list[tuple[VirtualView, MapRequest, BaseException]] = []
        self._thread.start()

    def submit(self, view: VirtualView, request: MapRequest) -> None:
        self._cost.queue_op(1, MAIN_LANE)
        self._queue.put((view, request))

    def flush(self, retry=None) -> None:
        self._queue.join()
        failures, self._failures = self._failures, []
        unrecovered: BaseException | None = None
        for view, request, exc in failures:
            if (
                retry is not None
                and isinstance(exc, SubstrateFault)
                and exc.transient
            ):
                try:
                    retry.resume(
                        "map_fixed",
                        exc,
                        lambda v=view, r=request: execute_request(
                            v, r, lane=MAPPER_LANE
                        ),
                        lane=MAPPER_LANE,
                    )
                    continue
                except SubstrateFault as final:
                    exc = final
            if unrecovered is None:
                unrecovered = exc
        if unrecovered is not None:
            raise unrecovered

    def stop(self) -> None:
        if self._thread.is_alive():
            self._queue.put(self._STOP)
            self._thread.join()

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is self._STOP:
                    return
                view, request = item
                self._cost.queue_op(1, MAPPER_LANE)
                try:
                    execute_request(view, request, lane=MAPPER_LANE)
                except BaseException as exc:
                    self._failures.append((view, request, exc))
            finally:
                self._queue.task_done()


def oracle_materialize_pages(
    view: VirtualView,
    fpages: np.ndarray,
    coalesce: bool = True,
    background=None,
    lane: str = MAIN_LANE,
    observer=None,
    retry=None,
) -> int:
    """Map the qualifying pages request by request; returns mmap calls.

    ``background`` is whatever mapper the caller's stack holds; its cost
    model is all that is read of it — the requests go through a
    short-lived :class:`OracleBackgroundMapper`.
    """
    fpages = np.asarray(fpages, dtype=np.int64)
    if fpages.size == 0:
        return 0
    if coalesce:
        requests = [plan_run(view, run) for run in consecutive_runs(fpages)]
    else:
        requests = [plan_run(view, fpages[i : i + 1]) for i in range(fpages.size)]
    mapper = None
    if background is not None:
        mapper = OracleBackgroundMapper(background._cost)
    try:
        for request in requests:
            if mapper is not None:
                mapper.submit(view, request)
            elif retry is not None:
                retry.run(
                    "map_fixed",
                    lambda r=request: execute_request(view, r, lane=lane),
                    lane,
                )
            else:
                execute_request(view, request, lane=lane)
        if mapper is not None:
            mapper.flush(retry=retry)
    finally:
        if mapper is not None:
            mapper.stop()
    return len(requests)
