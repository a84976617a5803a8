"""The backend-neutral substrate protocol (the paper's VM interface).

Everything the adaptive stack needs from its memory substrate is the
small surface defined here — the operations the paper names as "fully
supported by the vanilla Linux kernel":

* **physical-file allocation** — main-memory files whose pages hold the
  column data (:meth:`Substrate.create_file` and friends);
* **virtual-area reservation** — the cheap anonymous over-allocation a
  view performs at creation (:meth:`Substrate.reserve`);
* **fixed rewiring** — pointing runs of virtual pages at runs of file
  pages with single ``mmap(MAP_FIXED)``-style calls
  (:meth:`Substrate.map_fixed`, :meth:`Substrate.unmap_slot`), or a
  view's whole plan of them at once (:meth:`Substrate.map_runs`);
* **tear-down** — ``munmap`` semantics (:meth:`Substrate.munmap`,
  :meth:`Substrate.release_region`) and permission changes
  (:meth:`Substrate.protect`);
* **a maps source** — the ``/proc/PID/maps`` snapshot the maintenance
  algorithm parses once per update batch (:meth:`Substrate.maps_text`,
  :meth:`Substrate.maps_snapshot`);
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
from typing import TYPE_CHECKING, Iterator, Protocol, runtime_checkable

import numpy as np

from ..vm.cost import MAIN_LANE, CostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
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

    def charge(self, op: str, ns: float) -> None:
        """Record ``ns`` measured nanoseconds against operation ``op``."""
        with self._lock:
            self._ns[op] += ns
            self._counts[op] += 1

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

    @abstractmethod
    def reserve(self, npages: int, lane: str = MAIN_LANE) -> int:
        """Reserve ``npages`` of virtual address space (over-allocation).

        The cheap anonymous mmap of Section 2 — "a mere reservation ...
        almost for free".  Returns the start virtual page number.
        """

    @abstractmethod
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

    @abstractmethod
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

        The hot ``mmap(MAP_FIXED)`` operation of memory rewiring.  With
        ``populate`` the page tables are installed eagerly.
        """

    def map_runs(
        self,
        vpns: np.ndarray,
        npages: np.ndarray,
        file: PageStore,
        file_pages: np.ndarray,
        populate: bool = False,
        lane: str = MAIN_LANE,
    ) -> None:
        """Apply a view's whole mapping plan: :meth:`map_fixed` per run.

        Run ``i`` rewires ``npages[i]`` virtual pages at ``vpns[i]`` onto
        the file pages from ``file_pages[i]``; runs come in address order
        and do not overlap.  State, charges and counters afterwards are
        those of issuing the runs one by one, which is what this default
        does; a backend may take the plan in one step instead.
        """
        for vpn, n, file_page in zip(
            vpns.tolist(), npages.tolist(), file_pages.tolist()
        ):
            self.map_fixed(vpn, n, file, file_page, populate=populate, lane=lane)

    @abstractmethod
    def unmap_slot(self, vpn: int, npages: int = 1, lane: str = MAIN_LANE) -> None:
        """Point virtual pages back at inaccessible reservation memory.

        Used when a page leaves a view (Section 2.4, case 2): the
        virtual slot stays reserved and reusable, but no longer maps a
        file page.
        """

    @abstractmethod
    def munmap(self, vpn: int, npages: int, lane: str = MAIN_LANE) -> int:
        """Unmap ``[vpn, vpn + npages)``; returns pages removed."""

    @abstractmethod
    def release_region(
        self,
        vpn: int,
        npages: int,
        mapped_pages: int,
        lane: str = MAIN_LANE,
    ) -> None:
        """Tear down a whole reserved region (view destruction).

        ``mapped_pages`` is the number of file-backed pages the region
        still held — the quantity the munmap cost accounting is based
        on (releasing untouched reservation space is free).
        """

    @abstractmethod
    def protect(
        self, vpn: int, npages: int, perms: str, lane: str = MAIN_LANE
    ) -> None:
        """Change the permissions of a mapped range (``mprotect``)."""

    # -- page access through virtual addresses ---------------------------

    @abstractmethod
    def read_virtual(self, vpn: int, lane: str = MAIN_LANE) -> np.ndarray:
        """The data values behind virtual page ``vpn``.

        Reads through the translation machinery (simulated page tables
        or the real MMU), not the physical file — the read that proves
        a view's virtual page really is rewired where the bookkeeping
        says it is.
        """

    def peek_virtual(self, vpn: int) -> np.ndarray:
        """Diagnostic read of virtual page ``vpn`` — never cost-charged.

        Same translation semantics as :meth:`read_virtual` (unmapped or
        anonymous pages read as zeros), but without charging the
        simulated cost model or mutating fault state: the read the
        invariant auditor uses to cross-check mappings against physical
        contents without perturbing the measured session.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement peek_virtual"
        )

    # -- the maps source --------------------------------------------------

    @abstractmethod
    def maps_text(self) -> str:
        """The current ``/proc/PID/maps`` content of this backend."""

    @abstractmethod
    def maps_snapshot(
        self,
        cost: CostModel | None = None,
        lane: str = MAIN_LANE,
        file_filter: str | None = None,
    ) -> "MappingSnapshot":
        """Parse the maps source into a page-wise bimap snapshot.

        The once-per-update-batch operation of Section 2.5.  With
        ``file_filter`` only mappings of that pathname are materialized
        (parse cost is still charged for every line, as the real parse
        must read them all).
        """

    @abstractmethod
    def maps_line_count(self, pathname: str | None = None) -> int:
        """Lines the maps source currently holds.

        With ``pathname``, only lines mapping that file are counted —
        the backend-comparable quantity (a real process carries many
        unrelated mappings).
        """

    @abstractmethod
    def file_map_path(self, file: PageStore) -> str:
        """The pathname under which ``file`` appears in maps lines."""

    # -- observation / lifecycle ------------------------------------------

    def set_observer(self, observer) -> None:
        """Attach an observer notified of mmap/munmap syscalls."""

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def __enter__(self) -> "Substrate":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
