"""The syscall-style mapping interface (mmap / munmap / access).

:class:`MemoryMapper` mirrors the subset of the ``mmap(2)`` interface the
paper relies on:

* anonymous over-allocation — ``mmap(npages)`` with no file; this is the
  cheap *reservation* of virtual memory performed when a new partial view
  is created ("this first call to mmap() acts as a mere reservation ...
  and is almost for free");
* fixed file-backed remapping — ``mmap(..., addr=..., fixed=True,
  file=..., file_page=...)``, the ``MAP_FIXED`` rewiring step that points
  a virtual page of a view at a qualifying physical page;
* ``munmap`` and fault-charged ``access``.

All operations charge the shared :class:`~repro.vm.cost.CostModel`:
anonymous reservations cost only the syscall base, file-backed mappings
additionally pay a small per-page cost, and the first access after a
(re-)mapping pays one soft fault.
"""

from __future__ import annotations

import numpy as np

from .address_space import AddressSpace
from .cost import MAIN_LANE, CostModel
from .errors import MapError
from .physical import MemoryFile, PhysicalMemory
from .vma import Vma


def _check_run(npages: int, file: MemoryFile | None, file_page: int) -> None:
    """Reject an empty mapping and one that reaches outside its file."""
    if npages <= 0:
        raise MapError("mmap of zero pages")
    if file is not None and not 0 <= file_page <= file.num_pages - npages:
        raise MapError(
            f"file range [{file_page}, {file_page + npages}) outside "
            f"{file.name!r} ({file.num_pages} pages)"
        )


class MemoryMapper:
    """mmap-style interface over one simulated address space."""

    def __init__(
        self, memory: PhysicalMemory, address_space: AddressSpace | None = None
    ) -> None:
        self.memory = memory
        self.cost: CostModel = memory.cost
        self.address_space = address_space or AddressSpace()
        #: Optional :class:`repro.obs.observer.Observer` notified of every
        #: mmap/munmap syscall (kind and page count).  ``None`` (the
        #: default) keeps the syscall path free of observation work.
        self.observer = None

    # -- syscalls -----------------------------------------------------------

    def mmap(
        self,
        npages: int,
        *,
        addr: int | None = None,
        fixed: bool = False,
        file: MemoryFile | None = None,
        file_page: int = 0,
        shared: bool = True,
        perms: str = "rw",
        populate: bool = False,
        lane: str = MAIN_LANE,
    ) -> int:
        """Map ``npages`` pages; returns the start virtual page number.

        Without ``file`` the mapping is anonymous (a reservation).  With
        ``fixed=True`` the mapping is placed exactly at ``addr``,
        atomically replacing whatever was there (``MAP_FIXED``).  With
        ``populate=True`` the page-table entries are installed eagerly
        (``MAP_POPULATE``): the soft faults are paid here and later
        accesses are fault-free.
        """
        _check_run(npages, file, file_page)
        if fixed and addr is None:
            raise MapError("MAP_FIXED requires an explicit address")

        if addr is None:
            addr = self.address_space.allocate_region(npages)

        vma = Vma(
            start=addr,
            npages=npages,
            file=file,
            file_page=file_page if file is not None else 0,
            shared=shared,
            perms=perms,
        )
        if fixed:
            self.address_space.replace_mapping(vma)
        else:
            self.address_space.add_mapping(vma)

        if file is None:
            self.cost.anon_mmap(lane)
        else:
            self.cost.mmap_call(npages, lane)
        if populate:
            # Bulk page-table install: one call records all first
            # touches; the eager soft faults are charged in one ledger
            # call either way.
            self.address_space.fault_in_range(addr, npages)
            self.cost.soft_fault(npages, lane)
        if self.observer is not None:
            kind = "anon" if file is None else ("fixed" if fixed else "file")
            self.observer.on_mmap(kind, npages)
        return addr

    def munmap(self, start: int, npages: int, lane: str = MAIN_LANE) -> int:
        """Unmap ``[start, start + npages)``; returns pages removed."""
        removed = self.address_space.remove_mapping(start, npages)
        self.cost.munmap_call(removed, lane)
        if self.observer is not None:
            self.observer.on_munmap(removed)
        return removed

    def apply_runs(
        self,
        vpns: np.ndarray,
        npages: np.ndarray,
        file: MemoryFile | None,
        file_pages: np.ndarray,
        populate: bool = False,
    ) -> None:
        """Apply a whole rewiring plan — ``MAP_FIXED`` mappings, one per
        run — without booking it.

        Run ``i`` rewires ``npages[i]`` virtual pages from ``vpns[i]`` onto
        the file pages from ``file_pages[i]``; runs come in address order
        and do not overlap, and may lie in several views' areas.  With
        ``file=None`` every run is an anonymous area, the one
        ``mmap(fixed=True)`` builds without a file, and ``file_pages``
        and ``populate`` are ignored.  The plan's bounds are checked
        once, as columns, and a bad run rejects the whole plan with the
        error it would raise alone; the runs are then built unchecked
        and the address space takes them in one step.  The observer
        hears of every run; the ledger hears nothing
        (:meth:`repro.substrate.interface.Substrate.map_runs` books it).
        """
        if vpns.size == 0:
            return
        bad = (npages <= 0) | (vpns < 0)
        if file is None:
            file_pages, populate, kind = np.zeros_like(npages), False, "anon"
        else:
            kind = "fixed"
            bad |= (file_pages < 0) | (file_pages > file.num_pages - npages)
        if bad.any():
            # the first offending run fails as it would on its own
            i = int(bad.argmax())
            _check_run(int(npages[i]), file, int(file_pages[i]))
            Vma(int(vpns[i]), int(npages[i]), file, int(file_pages[i]))
        placed = Vma._placed
        runs = [
            placed(vpn, n, file, file_page)
            for vpn, n, file_page in zip(
                vpns.tolist(), npages.tolist(), file_pages.tolist()
            )
        ]
        self.address_space.map_runs(runs, populate)
        if self.observer is not None:
            for run in runs:
                self.observer.on_mmap(kind, run.npages)

    def mprotect(
        self, start: int, npages: int, perms: str, lane: str = MAIN_LANE
    ) -> None:
        """Change the permissions of a mapped range (``mprotect(2)``).

        Costs one syscall; resident pages stay resident.
        """
        self.address_space.protect_mapping(start, npages, perms)
        self.cost.mprotect_call(lane)

    # -- accesses -----------------------------------------------------------

    def access(
        self, vpn: int, write: bool = False, lane: str = MAIN_LANE
    ) -> tuple[MemoryFile, int] | None:
        """Touch virtual page ``vpn``; returns its backing physical page.

        Charges one soft fault if this is the first touch since the page
        was (re-)mapped.  Returns ``None`` for anonymous pages.  Raises
        :class:`~repro.vm.errors.ProtectionError` when the mapping's
        permissions forbid the access (a segfault, in kernel terms).
        """
        vma = self.address_space.find_vma(vpn)
        if vma is not None:
            needed = "w" if write else "r"
            if needed not in vma.perms:
                from .errors import ProtectionError

                raise ProtectionError(
                    f"{'write' if write else 'read'} access to page "
                    f"{vpn:#x} denied (perms={vma.perms!r})"
                )
        if self.address_space.fault_in(vpn):
            self.cost.soft_fault(1, lane)
        return self.address_space.translate(vpn)

    def read_page_values(self, vpn: int, lane: str = MAIN_LANE) -> np.ndarray:
        """The data values behind virtual page ``vpn`` (numpy view).

        Anonymous pages read as zeros, like fresh anonymous memory.
        """
        backing = self.access(vpn, lane=lane)
        if backing is None:
            from .constants import VALUES_PER_PAGE

            return np.zeros(VALUES_PER_PAGE, dtype=np.int64)
        file, fpage = backing
        return file.page_values(fpage)

    def translate(self, vpn: int) -> tuple[MemoryFile, int] | None:
        """Translation without fault accounting (debug / assertions)."""
        return self.address_space.translate(vpn)
