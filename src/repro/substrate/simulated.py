"""The simulated backend: the default substrate behind the headline numbers.

:class:`SimulatedSubstrate` is the simulated kernel over the main-memory
files of a :class:`~repro.vm.physical.PhysicalMemory`.  The base class's
page table (:class:`~repro.vm.address_space.AddressSpace`) is the whole
of its virtual memory: the base checks each mapping operation as
``mmap(2)`` would, splices the VMA columns and charges the shared
:class:`~repro.vm.cost.CostModel` — anonymous reservations the syscall
base only, file-backed mappings a small per-page cost as well.  What is
left here is what only a simulator needs: a bump allocator picks each
area's address, mapped pages are read straight from their file, and
:mod:`repro.vm.procmaps` renders the page table as the maps source,
whose snapshot the base class slices off the VMA columns.  The charges are the ones the
layers booked before the substrate existed, so the
:class:`~repro.vm.cost.CostLedger` stream is bit-identical to that code
— the figure and parity tests are the guardrail for that invariant.
"""

from __future__ import annotations

import numpy as np

from ..vm.constants import VALUES_PER_PAGE
from ..vm.cost import CostModel
from ..vm.physical import MemoryFile, PhysicalMemory
from ..vm.procmaps import render_maps
from .interface import Substrate

#: Mount point under which simulated main-memory files appear in
#: rendered maps lines, mirroring tmpfs on a real system.
SHM_PREFIX = "/dev/shm/"


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
        super().__init__()
        if memory is None:
            kwargs = {"cost": cost} if cost is not None else {}
            if capacity_bytes is not None:
                memory = PhysicalMemory(capacity_bytes, **kwargs)
            else:
                memory = PhysicalMemory(**kwargs)
        self.memory = memory
        self.cost = self.memory.cost
        self.wall = None
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

    def _place_area(
        self, npages: int, file: MemoryFile | None, file_page: int
    ) -> int:
        return self.address_space.allocate_region(npages)

    def _issue_runs(
        self,
        vpns: list[int],
        npages: list[int],
        file: MemoryFile | None,
        file_pages: list[int],
        populate: bool,
    ) -> tuple[int, None]:
        # The page table is the whole simulated kernel: every run takes
        # effect when the base class books it.  ``populate`` only changes
        # what the plan is booked at, as no residency is kept.
        return len(vpns), None

    def _unmap_area(self, vpn: int, npages: int) -> None:
        pass  # the page table is the mapping

    def _read_pages(self, vpns, file: MemoryFile, fpages) -> tuple[np.ndarray, np.ndarray]:
        # a run is a slice of the file's arrays, a gather an index of them
        return file.headers[fpages], file.data[fpages]

    # -- the maps source --------------------------------------------------

    def maps_text(self) -> str:
        return render_maps(self.address_space, shm_prefix=SHM_PREFIX)

    def file_map_path(self, file: MemoryFile) -> str:
        return f"{SHM_PREFIX}{file.name}"

    # -- observation / lifecycle ------------------------------------------

    def close(self) -> None:
        """Delete the main-memory files this substrate created.

        Their pages go back to the machine, which may outlive this
        substrate: a shared machine lists only the files other
        substrates created, and those stay.
        """
        for name in sorted(self._own):
            self.memory.delete_file(name)
        self._own.clear()
