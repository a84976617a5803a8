"""The fault-injection plane: a substrate wrapper that fails on cue.

:class:`FaultySubstrate` implements the full
:class:`~repro.substrate.interface.Substrate` protocol around any
backend and consults a :class:`~repro.faults.schedule.FaultSchedule`
before each forwarded operation.  With no schedule (or inside a
:func:`suppress_faults` block) it is perfectly transparent: every call
delegates verbatim, so cost ledgers are bit-identical to the bare
backend — the fuzz suite asserts exactly that.

Injected failures surface as typed
:class:`~repro.faults.errors.SubstrateFault` raises *before* the inner
operation runs, so the backend state is never half-mutated by the
failing call itself; whatever was mapped before the fault stays mapped,
which is what the hardened core paths roll back against.

Page-store capacity exhaustion cannot be injected through the substrate
surface alone (``resize`` is called on the store object), so files are
handed out wrapped in :class:`FaultyPageStore` proxies that route their
mutations back through the plane: the one page-store wrapper.  The
tier's spill I/O and the WAL consult per operation only where
:func:`faults_armed` says a consult can fire.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Iterator

import numpy as np

from ..substrate.interface import PageStore, Substrate
from ..vm.cost import MAIN_LANE, CostModel
from .errors import SubstrateFault
from .schedule import FaultKind, FaultSchedule


def unwrap_store(file: PageStore) -> PageStore:
    """The real backend store behind a (possibly wrapped) page store."""
    return file._inner if isinstance(file, FaultyPageStore) else file


def faults_armed(substrate: Substrate) -> bool:
    """Whether a consult on ``substrate`` can fire: a
    :class:`FaultySubstrate` with a schedule set, not suppressed."""
    return (
        isinstance(substrate, FaultySubstrate)
        and substrate.schedule is not None
        and not substrate._suppress
    )


def check_fault(substrate: Substrate, op: str) -> None:
    """Consult ``substrate``'s fault plane for ``op``; no-op otherwise.

    The public entry point for components that sit *outside* the
    substrate surface but still model fallible I/O (the tier's spill
    reads/writes, the WAL): on a :class:`FaultySubstrate` this advances
    the schedule and raises the injected fault exactly like a forwarded
    substrate call; on a bare backend it does nothing.
    """
    if isinstance(substrate, FaultySubstrate):
        substrate._check(op)


#: What :func:`suppress_faults` hands out where there is no fault plane:
#: one shared, reusable inert context.
_INERT = nullcontext()


def suppress_faults(substrate: Substrate):
    """Context manager disabling fault injection on ``substrate``.

    Returns an inert context for substrates without a fault plane, so
    rollback and audit code can wrap any backend unconditionally.
    """
    if isinstance(substrate, FaultySubstrate):
        return substrate.suppressed()
    return _INERT


class FaultyPageStore:
    """A page-store proxy routing mutations through the fault plane.

    Read access (``data``, ``headers``, ``page_values``, ...) delegates
    straight to the wrapped store; ``resize`` consults the schedule and
    the plane's page budget first, modelling capacity exhaustion.
    """

    def __init__(self, substrate: "FaultySubstrate", inner: PageStore) -> None:
        # Bypass __setattr__-free plain attributes; the proxy itself
        # stores only these two references.
        self._substrate = substrate
        self._inner = inner

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    # What every read asks for, given directly: ``__getattr__`` runs
    # only after a failed lookup, which costs more than the read itself.
    data = property(lambda self: self._inner.data)
    headers = property(lambda self: self._inner.headers)
    num_pages = property(lambda self: self._inner.num_pages)
    slots_per_page = property(lambda self: self._inner.slots_per_page)

    def resize(self, num_pages: int) -> None:
        self._substrate._check("resize")
        self._substrate._check_budget("resize", num_pages)
        self._inner.resize(num_pages)

    def set_page_id(self, page: int, page_id: int) -> None:
        self._inner.set_page_id(page, page_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultyPageStore({self._inner!r})"


class FaultySubstrate(Substrate):
    """Substrate wrapper injecting scheduled faults into any backend."""

    def __init__(
        self,
        inner: Substrate,
        schedule: FaultSchedule | None = None,
        file_page_budget: int | None = None,
    ) -> None:
        """Wrap ``inner``; ``schedule`` may be armed (or swapped) later.

        ``file_page_budget`` caps the total physical pages the plane
        lets page stores grow to — a hard capacity limit independent of
        the schedule.
        """
        self.inner = inner
        self.schedule = schedule
        self.file_page_budget = file_page_budget
        self.backend = inner.backend
        self.cost = inner.cost
        self.wall = inner.wall
        self.observer = None
        self._suppress = 0
        self._stores: dict[str, FaultyPageStore] = {}
        #: Last fresh maps snapshot per file filter, for STALE_MAPS.
        self._last_snapshots: dict[str | None, object] = {}

    # -- the decision ----------------------------------------------------

    @contextmanager
    def suppressed(self) -> Iterator[None]:
        """Disable injection for the ``with`` body (reentrant).

        Suppressed calls neither fire nor advance the schedule's
        counters, so audits and rollback tear-down never perturb the
        fault stream the workload sees.
        """
        self._suppress += 1
        try:
            yield
        finally:
            self._suppress -= 1

    def _consult(self, op: str):
        if not faults_armed(self):
            return None
        return self.schedule.check(op)

    def _check(self, op: str) -> None:
        """Consult the schedule; raise the injected fault, if any."""
        fault = self._consult(op)
        if fault is not None:
            self._raise(op, fault)

    def _raise(self, op: str, fault, run_index: int = 0) -> None:
        self._on_fault(op, fault.kind.value)
        raise SubstrateFault(
            op,
            fault.kind.value,
            fault.call_index,
            transient=fault.transient,
            run_index=run_index,
        )

    def _check_budget(self, op: str, num_pages: int) -> None:
        """Enforce the per-store page budget (capacity exhaustion)."""
        if self.file_page_budget is None:
            return
        if num_pages > self.file_page_budget:
            self._on_fault(op, FaultKind.CAPACITY.value)
            raise SubstrateFault(op, FaultKind.CAPACITY.value)

    def _on_fault(self, op: str, kind: str) -> None:
        if self.observer is not None:
            self.observer.on_fault(op, kind)

    @property
    def journal(self):
        """The schedule's fired-fault journal ([] without a schedule)."""
        return self.schedule.journal if self.schedule is not None else []

    # -- physical-file allocation ---------------------------------------

    def _wrap(self, store: PageStore) -> FaultyPageStore:
        wrapped = self._stores.get(store.name)
        if wrapped is None or wrapped._inner is not store:
            wrapped = FaultyPageStore(self, store)
            self._stores[store.name] = wrapped
        return wrapped

    def create_file(
        self, name: str, num_pages: int, slots_per_page: int | None = None
    ) -> PageStore:
        self._check("create_file")
        self._check_budget("create_file", num_pages)
        return self._wrap(self.inner.create_file(name, num_pages, slots_per_page))

    def get_file(self, name: str) -> PageStore:
        return self._wrap(self.inner.get_file(name))

    def delete_file(self, name: str) -> None:
        self.inner.delete_file(name)
        self._stores.pop(name, None)

    def files(self) -> list[PageStore]:
        return [self._wrap(store) for store in self.inner.files()]

    # -- virtual mapping --------------------------------------------------

    # Every mapping call below, and the maps snapshot, goes to the
    # inner backend whole, page table and syscalls alike, so the plane
    # has no backend step of its own.
    _place_area = _issue_runs = _unmap_area = _read_pages = _maps_rows = None

    def reserve(self, npages: int, lane: str = MAIN_LANE) -> int:
        self._check("reserve")
        return self.inner.reserve(npages, lane=lane)

    def map_file(
        self,
        npages: int,
        file: PageStore,
        file_page: int = 0,
        lane: str = MAIN_LANE,
    ) -> int:
        self._check("map_file")
        return self.inner.map_file(
            npages, unwrap_store(file), file_page=file_page, lane=lane
        )

    def apply_runs(
        self,
        vpns: np.ndarray,
        npages: np.ndarray,
        file: PageStore | None,
        file_pages: np.ndarray,
        populate: bool = False,
    ) -> None:
        # One consultation per run, in plan order: ``unmap_slot`` for a
        # run back to the reservation, ``map_fixed`` otherwise.  A fault
        # at run k leaves runs [0, k) applied and names k, so the caller
        # can resume exactly there.
        op = "unmap_slot" if file is None else "map_fixed"
        file = unwrap_store(file)
        for k in range(len(vpns)):
            fault = self._consult(op)
            if fault is not None:
                if k:
                    self.inner.apply_runs(
                        vpns[:k], npages[:k], file, file_pages[:k],
                        populate=populate,
                    )
                self._raise(op, fault, run_index=k)
        self.inner.apply_runs(vpns, npages, file, file_pages, populate=populate)

    def book_discard(
        self,
        capacity: int,
        npages: np.ndarray,
        lane: str = MAIN_LANE,
        map_lane: str = MAIN_LANE,
    ) -> None:
        # The booked reservation is the one fault point, consulted before
        # anything is charged; its booked runs and release are not.
        self._check("reserve")
        self.inner.book_discard(capacity, npages, lane, map_lane)

    def release_region(
        self,
        vpn: int,
        npages: int,
        mapped_pages: int,
        lane: str = MAIN_LANE,
    ) -> None:
        # Not a fault point: tear-down is the rollback path.
        self.inner.release_region(vpn, npages, mapped_pages, lane=lane)

    # -- reading through the translation --------------------------------

    def read_mapped(self, vpn: int, npages: int):
        # Not a fault point: a read makes no syscall.
        return self.inner.read_mapped(vpn, npages)

    # -- the maps source --------------------------------------------------

    def maps_text(self) -> str:
        return self.inner.maps_text()

    def maps_snapshot(
        self,
        cost: CostModel | None = None,
        lane: str = MAIN_LANE,
        file_filter: str | None = None,
    ):
        fault = self._consult("maps_snapshot")
        if fault is not None:
            self._on_fault("maps_snapshot", fault.kind.value)
            if fault.kind is FaultKind.STALE_MAPS:
                stale = self._last_snapshots.get(file_filter)
                if stale is not None:
                    # Delayed maps: hand back the previous snapshot
                    # without re-parsing (and without re-caching).
                    return stale
                # Nothing to be stale against yet: degrade to a read
                # failure, the conservative interpretation.
            raise SubstrateFault(
                "maps_snapshot",
                fault.kind.value,
                fault.call_index,
                transient=fault.transient,
            )
        snapshot = self.inner.maps_snapshot(
            cost=cost, lane=lane, file_filter=file_filter
        )
        if not self._suppress:
            self._last_snapshots[file_filter] = snapshot
        return snapshot

    def maps_line_count(self, pathname: str | None = None) -> int:
        return self.inner.maps_line_count(pathname)

    def file_map_path(self, file: PageStore) -> str:
        return self.inner.file_map_path(unwrap_store(file))

    # -- observation / lifecycle ------------------------------------------

    def set_observer(self, observer) -> None:
        self.observer = observer
        self.inner.set_observer(observer)

    def close(self) -> None:
        self.inner.close()

    def __getattr__(self, name: str):
        # The inner backend's page table (``address_space``) and its
        # backend-specific introspection (``memory``) pass through, so the
        # auditor's page-table cross-check reads the book the calls
        # above update.
        return getattr(self.inner, name)
