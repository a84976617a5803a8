"""The simulated backend: the default substrate behind the headline numbers.

:class:`SimulatedSubstrate` is the simulated kernel.  It drives one
:class:`~repro.vm.address_space.AddressSpace` over the main-memory files
of a :class:`~repro.vm.physical.PhysicalMemory` directly: each mapping
operation checks its arguments as ``mmap(2)`` would, splices the VMA
list and charges the shared :class:`~repro.vm.cost.CostModel` —
anonymous reservations the syscall base only, file-backed mappings a
small per-page cost as well — and :mod:`repro.vm.procmaps` renders and
parses the result as the maps source.  The charges are the ones the
layers booked before the substrate existed, so the
:class:`~repro.vm.cost.CostLedger` stream is bit-identical to that code
— the figure and parity tests are the guardrail for that invariant.
"""

from __future__ import annotations

import numpy as np

from ..vm.address_space import AddressSpace
from ..vm.constants import VALUES_PER_PAGE
from ..vm.cost import MAIN_LANE, CostModel
from ..vm.errors import BadAddressError, MapError
from ..vm.physical import MemoryFile, PhysicalMemory
from ..vm.procmaps import (
    MappingSnapshot,
    render_maps,
    snapshot_address_space,
)
from ..vm.vma import Vma
from .interface import Substrate

#: Mount point under which simulated main-memory files appear in
#: rendered maps lines, mirroring tmpfs on a real system.
SHM_PREFIX = "/dev/shm/"


def _check_run(npages: int, file: MemoryFile | None, file_page: int) -> None:
    """Reject an empty mapping and one that reaches outside its file."""
    if npages <= 0:
        raise MapError("mmap of zero pages")
    if file is not None and not 0 <= file_page <= file.num_pages - npages:
        raise MapError(
            f"file range [{file_page}, {file_page + npages}) outside "
            f"{file.name!r} ({file.num_pages} pages)"
        )


class SimulatedSubstrate(Substrate):
    """Substrate over the simulated VM (cost-modelled, deterministic)."""

    backend = "simulated"

    def __init__(
        self,
        memory: PhysicalMemory | None = None,
        capacity_bytes: int | None = None,
        cost: CostModel | None = None,
    ) -> None:
        """Run a fresh address space over ``memory``.

        Without ``memory``, a machine of ``capacity_bytes`` is created.
        """
        if memory is None:
            kwargs = {"cost": cost} if cost is not None else {}
            if capacity_bytes is not None:
                memory = PhysicalMemory(capacity_bytes, **kwargs)
            else:
                memory = PhysicalMemory(**kwargs)
        self.memory = memory
        self.cost = self.memory.cost
        self.wall = None
        #: The simulated process's address space (simulated-only
        #: introspection).
        self.address_space = AddressSpace()
        #: Names of the files this substrate created and has not deleted;
        #: ``memory`` may be shared with other substrates.
        self._own: set[str] = set()

    # -- physical-file allocation ---------------------------------------

    def create_file(
        self, name: str, num_pages: int, slots_per_page: int | None = None
    ) -> MemoryFile:
        file = self.memory.create_file(
            name,
            num_pages,
            slots_per_page if slots_per_page is not None else VALUES_PER_PAGE,
        )
        self._own.add(name)
        return file

    def get_file(self, name: str) -> MemoryFile:
        return self.memory.get_file(name)

    def delete_file(self, name: str) -> None:
        self.memory.delete_file(name)
        self._own.discard(name)

    def files(self) -> list[MemoryFile]:
        return self.memory.files()

    # -- virtual mapping --------------------------------------------------

    def reserve(self, npages: int, lane: str = MAIN_LANE) -> int:
        return self._mmap(npages, None, 0, lane)

    def map_file(
        self,
        npages: int,
        file: MemoryFile,
        file_page: int = 0,
        lane: str = MAIN_LANE,
    ) -> int:
        return self._mmap(npages, file, file_page, lane)

    def _mmap(
        self, npages: int, file: MemoryFile | None, file_page: int, lane: str
    ) -> int:
        """``mmap`` of ``npages`` pages at a fresh address, anonymous
        without ``file``; returns the start virtual page number."""
        _check_run(npages, file, file_page)
        vpn = self.address_space.allocate_region(npages)
        self.address_space.add_mapping(Vma(vpn, npages, file, file_page))
        if file is None:
            self.cost.anon_mmap(lane)
        else:
            self.cost.mmap_call(npages, lane)
        if self.observer is not None:
            self.observer.on_mmap("anon" if file is None else "file", npages)
        return vpn

    def apply_runs(
        self,
        vpns: np.ndarray,
        npages: np.ndarray,
        file: MemoryFile | None,
        file_pages: np.ndarray,
        populate: bool = False,
    ) -> None:
        # The plan's bounds are checked once, as columns; a bad run
        # rejects the whole plan with the error it would raise alone.
        # The runs are then built unchecked and the address space takes
        # them in one step.  ``populate`` only changes what the plan is
        # booked at: the simulated page tables keep no residency.
        if vpns.size == 0:
            return
        bad = (npages <= 0) | (vpns < 0)
        if file is None:
            file_pages, kind = np.zeros_like(npages), "anon"
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
        self.address_space.map_runs(runs)
        if self.observer is not None:
            for run in runs:
                self.observer.on_mmap(kind, run.npages)

    def book_discard(
        self,
        capacity: int,
        npages: np.ndarray,
        lane: str = MAIN_LANE,
        map_lane: str = MAIN_LANE,
    ) -> None:
        # The area a reservation would have taken, and nothing else:
        # no VMA is placed, so the maps text stays as it was.
        self.address_space.allocate_region(capacity)
        super().book_discard(capacity, npages, lane, map_lane)

    def release_region(
        self,
        vpn: int,
        npages: int,
        mapped_pages: int,
        lane: str = MAIN_LANE,
    ) -> None:
        # Drop the whole region from the address space; charge munmap
        # only for the file-backed pages.
        self.address_space.remove_mapping(vpn, npages)
        self.cost.munmap_call(mapped_pages, lane)
        if self.observer is not None:
            self.observer.on_munmap(mapped_pages)

    # -- page access through virtual addresses ---------------------------

    def peek_virtual(self, vpn: int):
        try:
            backing = self.address_space.translate(vpn)
        except BadAddressError:
            backing = None
        if backing is None:
            return np.zeros(VALUES_PER_PAGE, dtype=np.int64)
        file, fpage = backing
        return file.page_values(fpage).copy()

    # -- the maps source --------------------------------------------------

    def maps_text(self) -> str:
        return render_maps(self.address_space, shm_prefix=SHM_PREFIX)

    def maps_snapshot(
        self,
        cost: CostModel | None = None,
        lane: str = MAIN_LANE,
        file_filter: str | None = None,
    ) -> MappingSnapshot:
        return snapshot_address_space(
            self.address_space,
            cost=cost,
            lane=lane,
            file_filter=file_filter,
            shm_prefix=SHM_PREFIX,
        )

    def maps_line_count(self, pathname: str | None = None) -> int:
        if pathname is None:
            return self.address_space.num_vmas
        count = 0
        for vma in self.address_space.vmas():
            if vma.file is not None and f"{SHM_PREFIX}{vma.file.name}" == pathname:
                count += 1
        return count

    def file_map_path(self, file: MemoryFile) -> str:
        return f"{SHM_PREFIX}{file.name}"

    # -- observation / lifecycle ------------------------------------------

    def close(self) -> None:
        """Delete the main-memory files this substrate created.

        Each file refers to its machine and the machine to each file:
        while the machine lists them, a closed database's page stores
        live on until a cyclic GC pass.  Deleted here, they are freed
        with their last holder, as the native backend's are.  Files that
        other substrates created on a shared machine stay.
        """
        for name in sorted(self._own):
            self.memory.delete_file(name)
        self._own.clear()
