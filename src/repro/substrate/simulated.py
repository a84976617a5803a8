"""The simulated backend: the default substrate behind the headline numbers.

:class:`SimulatedSubstrate` adapts the deterministic VM subsystem
(:class:`~repro.vm.physical.PhysicalMemory`,
:class:`~repro.vm.mmap_api.MemoryMapper`,
:mod:`repro.vm.procmaps`) to the :class:`~repro.substrate.interface.Substrate`
protocol.  Every operation delegates *verbatim* to the same VM calls the
layers used to issue directly, so the :class:`~repro.vm.cost.CostLedger`
stream is bit-identical to the pre-substrate code — the existing figure
and parity tests are the guardrail for that invariant.
"""

from __future__ import annotations

import numpy as np

from ..vm.constants import VALUES_PER_PAGE
from ..vm.cost import MAIN_LANE, CostModel
from ..vm.errors import BadAddressError
from ..vm.mmap_api import MemoryMapper
from ..vm.physical import MemoryFile, PhysicalMemory
from ..vm.procmaps import (
    MappingSnapshot,
    render_maps,
    snapshot_address_space,
)
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
        mapper: MemoryMapper | None = None,
        capacity_bytes: int | None = None,
        cost: CostModel | None = None,
    ) -> None:
        """Wrap an existing memory/mapper pair or build a fresh one.

        Passing ``mapper`` adopts its memory and address space (the path
        the compatibility shims take when old code hands a
        :class:`MemoryMapper` to a substrate-speaking layer); otherwise
        a machine of ``capacity_bytes`` is created.
        """
        if mapper is not None:
            self.memory = mapper.memory
            self.mapper = mapper
        else:
            if memory is None:
                kwargs = {"cost": cost} if cost is not None else {}
                if capacity_bytes is not None:
                    memory = PhysicalMemory(capacity_bytes, **kwargs)
                else:
                    memory = PhysicalMemory(**kwargs)
            self.memory = memory
            self.mapper = MemoryMapper(memory)
        self.cost = self.memory.cost
        self.wall = None

    @property
    def address_space(self):
        """The simulated address space (simulated-only introspection)."""
        return self.mapper.address_space

    # -- physical-file allocation ---------------------------------------

    def create_file(
        self, name: str, num_pages: int, slots_per_page: int | None = None
    ) -> MemoryFile:
        return self.memory.create_file(
            name,
            num_pages,
            slots_per_page if slots_per_page is not None else VALUES_PER_PAGE,
        )

    def get_file(self, name: str) -> MemoryFile:
        return self.memory.get_file(name)

    def delete_file(self, name: str) -> None:
        self.memory.delete_file(name)

    def files(self) -> list[MemoryFile]:
        return self.memory.files()

    # -- virtual mapping --------------------------------------------------

    def reserve(self, npages: int, lane: str = MAIN_LANE) -> int:
        return self.mapper.mmap(npages, lane=lane)

    def map_file(
        self,
        npages: int,
        file: MemoryFile,
        file_page: int = 0,
        lane: str = MAIN_LANE,
    ) -> int:
        return self.mapper.mmap(npages, file=file, file_page=file_page, lane=lane)

    def map_fixed(
        self,
        vpn: int,
        npages: int,
        file: MemoryFile,
        file_page: int,
        populate: bool = False,
        lane: str = MAIN_LANE,
    ) -> None:
        self.mapper.remap_fixed(
            vpn, npages, file, file_page, populate=populate, lane=lane
        )

    def map_runs(
        self,
        vpns: np.ndarray,
        npages: np.ndarray,
        file: MemoryFile,
        file_pages: np.ndarray,
        populate: bool = False,
        lane: str = MAIN_LANE,
    ) -> None:
        self.mapper.map_runs(
            vpns, npages, file, file_pages, populate=populate, lane=lane
        )

    def unmap_slot(self, vpn: int, npages: int = 1, lane: str = MAIN_LANE) -> None:
        self.mapper.mmap(npages, addr=vpn, fixed=True, lane=lane)

    def munmap(self, vpn: int, npages: int, lane: str = MAIN_LANE) -> int:
        return self.mapper.munmap(vpn, npages, lane=lane)

    def release_region(
        self,
        vpn: int,
        npages: int,
        mapped_pages: int,
        lane: str = MAIN_LANE,
    ) -> None:
        # View-destruction semantics: drop the whole reservation from the
        # address space, charge munmap only for the file-backed pages.
        self.mapper.address_space.remove_mapping(vpn, npages)
        self.cost.munmap_call(mapped_pages, lane)

    def protect(
        self, vpn: int, npages: int, perms: str, lane: str = MAIN_LANE
    ) -> None:
        self.mapper.mprotect(vpn, npages, perms, lane=lane)

    # -- page access through virtual addresses ---------------------------

    def read_virtual(self, vpn: int, lane: str = MAIN_LANE):
        return self.mapper.read_page_values(vpn, lane)

    def peek_virtual(self, vpn: int):
        # Uncharged diagnostic read: translate without fault accounting,
        # then copy the physical page bytes directly.
        try:
            backing = self.mapper.translate(vpn)
        except BadAddressError:
            backing = None
        if backing is None:
            return np.zeros(VALUES_PER_PAGE, dtype=np.int64)
        file, fpage = backing
        return file.page_values(fpage).copy()

    # -- the maps source --------------------------------------------------

    def maps_text(self) -> str:
        return render_maps(self.mapper.address_space, shm_prefix=SHM_PREFIX)

    def maps_snapshot(
        self,
        cost: CostModel | None = None,
        lane: str = MAIN_LANE,
        file_filter: str | None = None,
    ) -> MappingSnapshot:
        return snapshot_address_space(
            self.mapper.address_space,
            cost=cost,
            lane=lane,
            file_filter=file_filter,
            shm_prefix=SHM_PREFIX,
        )

    def maps_line_count(self, pathname: str | None = None) -> int:
        if pathname is None:
            return self.mapper.address_space.num_vmas
        count = 0
        for vma in self.mapper.address_space.vmas():
            if vma.file is not None and f"{SHM_PREFIX}{vma.file.name}" == pathname:
                count += 1
        return count

    def file_map_path(self, file: MemoryFile) -> str:
        return f"{SHM_PREFIX}{file.name}"

    # -- observation / lifecycle ------------------------------------------

    def set_observer(self, observer) -> None:
        self.mapper.observer = observer

    def close(self) -> None:
        pass
