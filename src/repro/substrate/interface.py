"""The backend-neutral substrate protocol (the paper's VM interface).

Everything the adaptive stack needs from its memory substrate is the
small surface defined here — the operations the paper names as "fully
supported by the vanilla Linux kernel":

* **physical-file allocation** — main-memory files whose pages hold the
  column data (:meth:`Substrate.create_file` and friends);
* **virtual-area reservation** — the cheap anonymous over-allocation a
  view performs at creation (:meth:`Substrate.reserve`); a view that
  would be torn down unread is only booked, reservation, runs and
  release alike (:meth:`Substrate.book_discard`);
* **fixed rewiring** — pointing runs of virtual pages at runs of file
  pages with ``mmap(MAP_FIXED)``-style calls, always as a plan: one
  unbooked :meth:`Substrate.apply_runs`, which :meth:`Substrate.map_runs`
  books and :meth:`Substrate.map_fixed` issues as a plan of one run; a
  plan without a file points its runs back at anonymous reservation
  memory;
* **tear-down** — ``munmap`` of a whole region
  (:meth:`Substrate.release_region`);
* **a read through the translation** — the file-backed pages of a
  virtual range, uncharged (:meth:`Substrate.read_mapped`): how a view,
  a snapshot and the auditor read what their mappings hold;
* **a page table** — :attr:`Substrate.address_space`, the book of every
  area the substrate mapped, run by run, merged as the kernel merges
  them: the paper's bimap (Section 2.4) kept live from the plans.
  The base class writes every mapping operation once for both backends
  — check the plan, update the book, charge the ledger, tell the
  observer — and a backend supplies only the step that differs: where
  an area lands (:meth:`Substrate._place_area`), the real syscalls
  (:meth:`Substrate._issue_runs`, :meth:`Substrate._unmap_area`),
  the read of pages the book maps to a file
  (:meth:`Substrate._read_pages`) and the columns of the maps snapshot
  (:meth:`Substrate._maps_rows`);
* **a maps source** — the ``/proc/PID/maps`` snapshot the maintenance
  algorithm parses once per update batch (:meth:`Substrate.maps_text`,
  :meth:`Substrate.maps_snapshot`), charged for the page table's lines
  on both backends;
* **accounting hooks** — a shared simulated
  :class:`~repro.vm.cost.CostModel` plus an optional
  :class:`WallClockLedger` for backends that measure real time.

The storage, core and bench layers consume *only* this protocol, so the
whole adaptive pipeline (Listing 1 creation, routing, maintenance) runs
unchanged over interchangeable translation backends: the deterministic
simulator (:class:`~repro.substrate.simulated.SimulatedSubstrate`, the
default and the source of all headline numbers) or the real Linux kernel
(:class:`~repro.substrate.native.NativeSubstrate`).
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from collections import Counter, defaultdict
from contextlib import contextmanager
from operator import add, lt
from typing import Iterator, Protocol, runtime_checkable

import numpy as np

from ..faults.errors import SubstrateFault
from ..vm.address_space import FILE, AddressSpace
from ..vm.constants import VALUES_PER_PAGE
from ..vm.cost import MAIN_LANE, CostModel
from ..vm.errors import MapError
from ..vm.procmaps import MappingSnapshot


@runtime_checkable
class PageStore(Protocol):
    """A main-memory file: page-granular physical storage.

    This is the abstract page accessor the storage layer materializes
    columns into and scans out of.  Both backends expose the page
    payloads as numpy arrays — the simulator over its own buffer, the
    native backend over a shared mapping of the real memfd/tmpfs file —
    so every scan kernel works unchanged.
    """

    name: str
    #: Inode under which the file appears in maps lines.
    inode: int

    @property
    def num_pages(self) -> int: ...

    @property
    def size_bytes(self) -> int: ...

    #: Records stored per page (< VALUES_PER_PAGE for wide records).
    slots_per_page: int

    #: Page payloads, shape ``(num_pages, slots_per_page)``, int64.
    data: np.ndarray
    #: Embedded 8 B pageID header of every physical page.
    headers: np.ndarray

    def check_page(self, page: int) -> None: ...

    def page_values(self, page: int) -> np.ndarray: ...

    def page_id(self, page: int) -> int: ...

    def set_page_id(self, page: int, page_id: int) -> None: ...

    def resize(self, num_pages: int) -> None: ...


class WallClockLedger:
    """Real elapsed nanoseconds per substrate operation kind.

    The native backend's counterpart of the simulated
    :class:`~repro.vm.cost.CostLedger`: instead of charging calibrated
    constants it records measured wall-clock time, so a native session
    reports true mechanism timings next to the simulated ones.
    """

    def __init__(self) -> None:
        self._ns: dict[str, float] = defaultdict(float)
        self._counts: Counter[str] = Counter()
        self._lock = threading.Lock()

    def charge(self, op: str, ns: float, calls: int = 1) -> None:
        """Record ``ns`` measured nanoseconds of ``calls`` calls of ``op``."""
        with self._lock:
            self._ns[op] += ns
            self._counts[op] += calls

    @contextmanager
    def timed(self, op: str) -> Iterator[None]:
        """Time the ``with`` body and charge it against ``op``."""
        started = time.perf_counter_ns()
        try:
            yield
        finally:
            self.charge(op, time.perf_counter_ns() - started)

    def ns(self, op: str) -> float:
        """Total measured nanoseconds of operation ``op``."""
        with self._lock:
            return self._ns.get(op, 0.0)

    def count(self, op: str) -> int:
        """Number of recorded calls of operation ``op``."""
        with self._lock:
            return self._counts.get(op, 0)

    def total_ns(self) -> float:
        """Total measured nanoseconds across all operations."""
        with self._lock:
            return sum(self._ns.values())

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Per-op ``{"ns": ..., "calls": ...}`` dump (diagnostics)."""
        with self._lock:
            return {
                op: {"ns": self._ns[op], "calls": float(self._counts[op])}
                for op in sorted(self._ns)
            }


def _check_run(npages: int, file: PageStore | None, file_page: int) -> None:
    """Reject an empty mapping and one that reaches outside its file."""
    if npages <= 0:
        raise MapError("mmap of zero pages")
    if file is not None and not 0 <= file_page <= file.num_pages - npages:
        raise MapError(
            f"file range [{file_page}, {file_page + npages}) outside "
            f"{file.name!r} ({file.num_pages} pages)"
        )


def _check_plan(
    vpns: list[int],
    npages: list[int],
    file: PageStore | None,
    file_pages: list[int],
) -> None:
    """Check a plan's bounds and order, a column at a time.

    A bad run rejects the whole plan with the error it would raise
    alone, as :func:`_check_run` would raise it (a negative address as
    :class:`~repro.vm.vma.Vma` would); so does a run that starts before
    the previous one ends.  That every page of every run lies inside
    the areas the page table holds is checked by the splice that books
    the plan (:meth:`~repro.vm.address_space.AddressSpace.plan_runs`).
    """
    if (
        min(npages) <= 0
        or min(vpns) < 0
        or file is not None
        and (min(file_pages) < 0 or max(map(add, file_pages, npages)) > file.num_pages)
    ):
        # the first offending run fails as it would on its own
        for vpn, n, file_page in zip(vpns, npages, file_pages):
            _check_run(n, file, file_page)
            if vpn < 0:
                raise ValueError("VMA addresses must be non-negative")
    if any(map(lt, vpns[1:], map(add, vpns, npages))):
        raise MapError("plan not in address order")


class Substrate(ABC):
    """One memory-management backend under the adaptive stack.

    Concrete backends: :class:`~repro.substrate.simulated.SimulatedSubstrate`
    (deterministic, cost-modelled; the default) and
    :class:`~repro.substrate.native.NativeSubstrate` (real Linux VM).
    """

    #: Backend identifier ("simulated" / "native").
    backend: str

    #: The shared simulated cost model.  All layers charge it regardless
    #: of backend, so simulated timings stay comparable; the native
    #: backend *additionally* measures real time in :attr:`wall`.
    cost: CostModel

    #: Measured-time ledger, or ``None`` for backends whose time is
    #: entirely simulated.
    wall: WallClockLedger | None = None

    #: The observer told of every mmap/munmap call (:meth:`set_observer`),
    #: or ``None``.
    observer = None

    def __init__(self) -> None:
        #: The page table: every area this substrate mapped, as the VMAs
        #: the maps source shows.  Each mapping operation below updates
        #: it; ``maps_line_count`` and ``read_mapped`` read it.
        self.address_space = AddressSpace()

    # -- physical-file allocation ---------------------------------------

    @abstractmethod
    def create_file(
        self, name: str, num_pages: int, slots_per_page: int | None = None
    ) -> PageStore:
        """Allocate a main-memory file of ``num_pages`` physical pages."""

    @abstractmethod
    def get_file(self, name: str) -> PageStore:
        """Look up an existing main-memory file by name."""

    @abstractmethod
    def delete_file(self, name: str) -> None:
        """Delete a main-memory file, releasing its physical pages."""

    @abstractmethod
    def files(self) -> list[PageStore]:
        """All existing main-memory files."""

    # -- virtual mapping --------------------------------------------------

    def reserve(self, npages: int, lane: str = MAIN_LANE) -> int:
        """Reserve ``npages`` of virtual address space (over-allocation).

        The cheap anonymous mmap of Section 2 — "a mere reservation ...
        almost for free".  Returns the start virtual page number.
        """
        return self._map_area(npages, None, 0, lane)

    def map_file(
        self,
        npages: int,
        file: PageStore,
        file_page: int = 0,
        lane: str = MAIN_LANE,
    ) -> int:
        """Map ``npages`` file pages at a fresh virtual address.

        The full-view mapping; returns the start virtual page number.
        """
        return self._map_area(npages, file, file_page, lane)

    def _map_area(
        self, npages: int, file: PageStore | None, file_page: int, lane: str
    ) -> int:
        _check_run(npages, file, file_page)
        vpn = self._place_area(npages, file, file_page)
        self.address_space.add_mapping(vpn, npages, file, file_page)
        if file is None:
            self.cost.anon_mmap(lane)
        else:
            self.cost.mmap_call(npages, lane)
        if self.observer is not None:
            self.observer.on_mmap("anon" if file is None else "file", npages)
        return vpn

    @abstractmethod
    def _place_area(self, npages: int, file: PageStore | None, file_page: int) -> int:
        """Map a fresh area of ``npages`` pages, anonymous and
        inaccessible without ``file``, at an address the backend picks;
        return its start virtual page number.  The area is checked
        before and booked after."""

    def apply_runs(
        self,
        vpns: np.ndarray,
        npages: np.ndarray,
        file: PageStore | None,
        file_pages: np.ndarray,
        populate: bool = False,
    ) -> None:
        """Apply a mapping plan: one ``mmap(MAP_FIXED)`` per run, unbooked.

        Run ``i`` rewires ``npages[i]`` virtual pages at ``vpns[i]`` onto
        the file pages from ``file_pages[i]``; runs come in address order
        and do not overlap.  With ``populate`` the page tables are
        installed eagerly.  A plan may span several views' areas — batch
        alignment hands over the adds of a whole block of views at once.
        With ``file=None`` each run points back at anonymous,
        inaccessible reservation memory (Section 2.4, case 2: the slot
        stays reserved and reusable); ``file_pages`` and ``populate`` are
        then ignored.  The mappings afterwards are those of issuing the
        runs one by one; the ledger is left alone (:meth:`map_runs`
        books the plan).  A bad plan is refused whole, before anything
        is issued.  A fault raised at run ``k`` names ``k`` in its
        ``run_index`` and leaves runs ``[0, k)`` applied; a backend
        error at run ``k`` leaves them applied and booked in the page
        table.
        """
        if not vpns.size:
            return
        kind = "anon" if file is None else "fixed"
        runs, firsts = npages.tolist(), vpns.tolist()
        pages = [0] * len(runs) if file is None else file_pages.tolist()
        _check_plan(firsts, runs, file, pages)
        book = self.address_space
        with book.lock:
            splice = book.plan_runs(firsts, runs, file, pages)
            applied, error = self._issue_runs(firsts, runs, file, pages, populate)
            if applied < len(runs):
                splice = book.plan_runs(firsts[:applied], runs[:applied], file, pages)
            book.commit(splice)
        if self.observer is not None:
            for n in runs[:applied]:
                self.observer.on_mmap(kind, n)
        if error is not None:
            raise error

    @abstractmethod
    def _issue_runs(
        self,
        vpns: list[int],
        npages: list[int],
        file: PageStore | None,
        file_pages: list[int],
        populate: bool,
    ) -> tuple[int, Exception | None]:
        """Issue a checked plan, as lists (file pages zero without ``file``).

        Returns how many runs took effect and, when run ``k`` failed,
        ``(k, the error)``; the base class books the runs that took
        effect, then raises the error.
        """

    def map_runs(
        self,
        vpns: np.ndarray,
        npages: np.ndarray,
        file: PageStore | None,
        file_pages: np.ndarray,
        populate: bool = False,
        lane: str = MAIN_LANE,
    ) -> None:
        """Apply a whole mapping plan (:meth:`apply_runs`) and book it.

        The plan may span several views' areas.  State, charges and
        counters afterwards are those of issuing the runs one by one:
        ``mmap_call`` per run plus, with ``populate``, a soft fault per
        page — or, for a plan without a file, ``anon_mmap`` per run —
        booked as one sum.  After a fault at run ``k`` the runs
        ``[0, k)`` are applied and booked.
        """
        try:
            self.apply_runs(vpns, npages, file, file_pages, populate=populate)
        except SubstrateFault as fault:
            self._book_runs(npages[: fault.run_index], file, populate, lane)
            raise
        self._book_runs(npages, file, populate, lane)

    def map_fixed(
        self,
        vpn: int,
        npages: int,
        file: PageStore,
        file_page: int,
        populate: bool = False,
        lane: str = MAIN_LANE,
    ) -> None:
        """Rewire ``npages`` virtual pages at ``vpn`` onto file pages.

        The hot ``mmap(MAP_FIXED)`` operation of memory rewiring, as a
        :meth:`map_runs` plan of one run.
        """
        self.map_runs(
            np.array([vpn], dtype=np.int64),
            np.array([npages], dtype=np.int64),
            file,
            np.array([file_page], dtype=np.int64),
            populate=populate,
            lane=lane,
        )

    def book_discard(
        self,
        capacity: int,
        npages: np.ndarray,
        lane: str = MAIN_LANE,
        map_lane: str = MAIN_LANE,
    ) -> None:
        """Book a view's life without issuing any of it: a reservation of
        ``capacity`` pages, a populating plan of file runs of ``npages``
        pages and the release of the whole area.

        This is for a view whose mappings would be torn down unread: a
        candidate Listing 1 discards
        (:func:`repro.core.creation.book_discarded`).  The ledger takes
        what :meth:`reserve`, :meth:`map_runs` (on ``map_lane``) and
        :meth:`release_region` would charge, as three updates in that
        order, and the observer hears of the same calls, but no mapping
        is made: only the page table's allocator moves past the area, so
        later areas land where they would have.
        """
        self.address_space.allocate_region(capacity)
        cost, observer = self.cost, self.observer
        runs = npages.tolist()
        mapped = sum(runs)
        cost.anon_mmap(lane)
        if observer is not None:
            observer.on_mmap("anon", capacity)
        if runs:
            cost.mmap_call(mapped, map_lane, calls=len(runs), populate=True)
            if observer is not None:
                for n in runs:
                    observer.on_mmap("fixed", n)
        cost.munmap_call(mapped, lane)
        if observer is not None:
            observer.on_munmap(mapped)

    def _book_runs(
        self, npages: np.ndarray, file: PageStore | None, populate: bool, lane: str
    ) -> None:
        if not npages.size:
            return
        if file is None:
            self.cost.anon_mmap(lane, calls=npages.size)
        else:
            self.cost.mmap_call(
                int(npages.sum()), lane, calls=npages.size, populate=populate
            )

    def release_region(
        self,
        vpn: int,
        npages: int,
        mapped_pages: int,
        lane: str = MAIN_LANE,
    ) -> None:
        """Tear down a whole region: one ``munmap`` of ``npages`` pages.

        The one tear-down, for a view's reservation and a snapshot's
        mapping alike.  ``mapped_pages`` is the number of file-backed
        pages the region still held — the quantity the munmap cost
        accounting and the observer hear of (releasing untouched
        reservation space is free).  Tear-down is the rollback path, so
        it is never a fault point.
        """
        self._unmap_area(vpn, npages)
        self.address_space.remove_mapping(vpn, npages)
        self.cost.munmap_call(mapped_pages, lane)
        if self.observer is not None:
            self.observer.on_munmap(mapped_pages)

    @abstractmethod
    def _unmap_area(self, vpn: int, npages: int) -> None:
        """Unmap ``npages`` pages at ``vpn``; the page table follows."""

    # -- reading through the translation --------------------------------

    def read_mapped(self, vpn: int, npages: int) -> tuple[np.ndarray, np.ndarray]:
        """The file-backed pages of the virtual range ``[vpn, vpn +
        npages)``, in address order, as read-only ``(headers, values)``:
        each page's embedded pageID (slot 0), from which rowids follow,
        and its values, a page a row.  Never cost-charged.

        The one read through the translation — of a view's scan, a
        snapshot and the auditor — so an answer is what the mappings
        hold.  The range is translated once (one ``bisect`` pair).  One
        VMA is read in place, zero-copy where the backend can; several
        of one file are one gather, an index a page (a view's VMAs are
        often a page each, and a slice per VMA costs more); a snapshot's
        (copies beside the column) are read a slice a VMA.  Anonymous and
        ``PROT_NONE`` slots and holes are skipped, never touched.
        """
        with self.address_space.lock:
            first, count, fids, fpages, stores = self.address_space.file_runs(vpn, vpn + npages)
            if len(stores) == 1 and count.size > 1:
                if first[-1] + count[-1] - first[0] > count.size:
                    # not a page a VMA, side by side: index every page
                    step = np.arange(count.sum()) - np.repeat(count.cumsum() - count, count)
                    first = np.repeat(first, count) + step
                    fpages = np.repeat(fpages, count) + step
                parts = [self._read_pages(first, *stores.values(), fpages)]
            else:
                parts = [
                    self._read_pages(slice(s, s + n), stores[f], slice(p, p + n))
                    for s, n, f, p in zip(*(c.tolist() for c in (first, count, fids, fpages)))
                ]
            if len(parts) == 1:
                [(headers, values)] = parts
            elif parts:
                headers, values = (np.concatenate(column) for column in zip(*parts))
            else:
                headers = np.empty(0, dtype=np.int64)
                values = np.empty((0, VALUES_PER_PAGE), dtype=np.int64)
        headers.flags.writeable = values.flags.writeable = False
        return headers, values

    @abstractmethod
    def _read_pages(self, vpns, file: PageStore, fpages) -> tuple[np.ndarray, np.ndarray]:
        """``(headers, values)`` of the pages at virtual pages ``vpns``,
        where the page table maps ``file``'s pages ``fpages``: two
        slices for one run, read in place where the backend can, or two
        index arrays of a page each, gathered.  Called under the page
        table's lock."""

    # -- the maps source --------------------------------------------------

    @abstractmethod
    def maps_text(self) -> str:
        """The current ``/proc/PID/maps`` content of this backend."""

    def maps_snapshot(
        self,
        cost: CostModel | None = None,
        lane: str = MAIN_LANE,
        file_filter: str | None = None,
    ) -> MappingSnapshot:
        """Parse the maps source into a page-wise bimap snapshot.

        The once-per-update-batch operation of Section 2.5, one body for
        both backends: the columns come from :meth:`_maps_rows`, and the
        parse is charged for the page table's lines, one per VMA, as
        :meth:`maps_line_count` counts them.  With ``file_filter`` only
        mappings of that pathname are materialized; the parse is still
        charged for every line of the page table.
        """
        paths, columns = self._maps_rows(file_filter)
        if cost is not None:
            cost.maps_parse(self.address_space.num_vmas, lane)
        return MappingSnapshot(paths, columns, cost=cost, lane=lane)

    def _file_rows(
        self, pathname: str | None
    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """The page table's columns with a mask of its file-backed columns
        (of ``pathname``'s file only, if given), and each file id's path.
        Read under the page table's lock."""
        table, stores = self.address_space.columns()
        paths = [self.file_map_path(store) for store in stores]
        # per file id, whether its lines count; the last entry is id -1's
        wanted = np.array([pathname in (None, path) for path in paths] + [False])
        return table, wanted[table[FILE]], paths

    def _maps_rows(self, file_filter: str | None) -> tuple[list[str], np.ndarray]:
        """The maps source's file-backed lines inside this substrate's
        areas, as snapshot columns, and the pathnames their path ids
        index; with ``file_filter`` only that pathname's lines.

        Sliced off the page table's columns: the lines :meth:`maps_text`
        would render.
        """
        with self.address_space.lock:
            table, kept, paths = self._file_rows(file_filter)
            start, end, fid, fpage = table[:, kept]
        # one path id per distinct path, in order of first appearance
        present = np.flatnonzero(np.bincount(fid, minlength=len(paths))).tolist()
        firsts = [int((fid == f).argmax()) for f in present]
        path_ids: dict[str, int] = {}
        pid_of = np.zeros(len(paths), dtype=np.int64)
        for _, f in sorted(zip(firsts, present)):
            pid_of[f] = path_ids.setdefault(paths[f], len(path_ids))
        return list(path_ids), np.stack((start, end - start, fpage, pid_of[fid]))

    def maps_line_count(self, pathname: str | None = None) -> int:
        """Lines of the maps source inside the areas this substrate
        mapped: one per VMA of its page table, read without a parse.

        With ``pathname``, only lines mapping that file are counted.
        The page table merges like VMAs as the kernel does, across two
        areas placed side by side too; the kernel may also merge an
        area's edge with a like mapping the page table does not hold,
        so on the native backend this is an upper bound of the kernel's
        lines inside the areas.
        """
        if pathname is None:
            return self.address_space.num_vmas
        with self.address_space.lock:
            return int(np.count_nonzero(self._file_rows(pathname)[1]))

    @abstractmethod
    def file_map_path(self, file: PageStore) -> str:
        """The pathname under which ``file`` appears in maps lines."""

    # -- observation / lifecycle ------------------------------------------

    def set_observer(self, observer) -> None:
        """Attach an observer notified of mmap/munmap syscalls."""
        self.observer = observer

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def __enter__(self) -> "Substrate":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
