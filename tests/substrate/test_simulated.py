"""Unit tests for the simulated substrate and the backend factory.

The critical invariant: :class:`SimulatedSubstrate` delegates *verbatim*
to the VM calls the layers used to issue directly, so the cost-ledger
stream is bit-identical to pre-substrate code.  The bit-identity guard
below replays the same operation sequence through the substrate and
through a raw :class:`~repro.vm.mmap_api.MemoryMapper` and compares the
complete ledger snapshots.
"""

import numpy as np
import pytest

from repro.storage.table import Catalog
from repro.substrate import (
    BACKENDS,
    SHM_PREFIX,
    SimulatedSubstrate,
    Substrate,
    make_substrate,
)
from repro.vm.cost import CostModel
from repro.vm.errors import FileError
from repro.vm.mmap_api import MemoryMapper
from repro.vm.physical import PhysicalMemory


@pytest.fixture
def sub() -> SimulatedSubstrate:
    return SimulatedSubstrate(
        memory=PhysicalMemory(capacity_bytes=64 * 1024 * 1024, cost=CostModel())
    )


class TestFactory:
    def test_backend_names(self):
        assert BACKENDS == ("simulated", "native")

    def test_default_is_simulated(self):
        sub = make_substrate("simulated")
        assert isinstance(sub, SimulatedSubstrate)
        assert sub.backend == "simulated"

    def test_instance_passes_through(self, sub):
        assert make_substrate(sub) is sub

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_substrate("gpu")

    def test_capacity_and_cost_forwarded(self):
        cost = CostModel()
        sub = make_substrate(
            "simulated", capacity_bytes=16 * 1024 * 1024, cost=cost
        )
        assert sub.cost is cost
        assert sub.memory.capacity_pages == 16 * 1024 * 1024 // 4096


class TestProtocolDelegation:
    def test_file_lifecycle(self, sub):
        file = sub.create_file("col", 8)
        assert sub.get_file("col") is file
        assert file in sub.files()
        assert sub.file_map_path(file) == f"{SHM_PREFIX}col"
        sub.delete_file("col")
        with pytest.raises(FileError):
            sub.get_file("col")

    def test_reserve_then_rewire_then_read(self, sub):
        file = sub.create_file("col", 8)
        file.data[5, :3] = [7, 8, 9]
        base = sub.reserve(4)
        assert sub.read_virtual(base)[0] == 0  # reservation reads zeros
        sub.map_fixed(base + 1, 1, file, 5)
        assert list(sub.read_virtual(base + 1)[:3]) == [7, 8, 9]
        sub.unmap_slot(base + 1)
        assert sub.read_virtual(base + 1)[0] == 0

    def test_map_file_and_line_counts(self, sub):
        file = sub.create_file("col", 8)
        sub.map_file(8, file)
        base = sub.reserve(4)
        sub.map_fixed(base, 1, file, 6)
        path = sub.file_map_path(file)
        assert sub.maps_line_count(path) == 2
        assert sub.maps_line_count() == sub.address_space.num_vmas

    def test_snapshot_matches_address_space(self, sub):
        file = sub.create_file("col", 8)
        base = sub.map_file(8, file)
        snap = sub.maps_snapshot(cost=sub.cost, file_filter=sub.file_map_path(file))
        assert snap.physical_of(base + 3) == (sub.file_map_path(file), 3)

    def test_release_region_charges_mapped_pages_only(self, sub):
        file = sub.create_file("col", 8)
        base = sub.reserve(6)
        sub.map_fixed(base, 2, file, 0)
        before = sub.cost.ledger.counter("pages_unmapped")
        sub.release_region(base, 6, mapped_pages=2)
        assert sub.cost.ledger.counter("pages_unmapped") - before == 2
        assert sub.address_space.num_vmas == 0

    def test_protect_counts(self, sub):
        file = sub.create_file("col", 4)
        base = sub.map_file(4, file)
        sub.protect(base, 2, "r")
        assert sub.cost.ledger.counter("mprotect_calls") == 1


class TestBitIdentity:
    """The same op sequence through substrate and raw mapper must charge
    the ledger identically — the refactor may not move a nanosecond."""

    @staticmethod
    def _run_via_substrate(sub: SimulatedSubstrate):
        file = sub.create_file("col", 16)
        sub.map_file(16, file)
        base = sub.reserve(8)
        sub.map_fixed(base + 0, 3, file, 4)
        sub.map_fixed(base + 3, 2, file, 9, populate=True)
        sub.unmap_slot(base + 1)
        sub.protect(base + 0, 1, "r")
        sub.read_virtual(base + 4)
        sub.maps_snapshot(cost=sub.cost, file_filter=sub.file_map_path(file))
        sub.release_region(base, 8, mapped_pages=4)

    @staticmethod
    def _run_via_mapper(mapper: MemoryMapper):
        from repro.vm.procmaps import snapshot_address_space

        cost = mapper.memory.cost
        file = mapper.memory.create_file("col", 16)
        mapper.mmap(16, file=file)
        base = mapper.mmap(8)
        mapper.remap_fixed(base + 0, 3, file, 4)
        mapper.remap_fixed(base + 3, 2, file, 9, populate=True)
        mapper.mmap(1, addr=base + 1, fixed=True)
        mapper.mprotect(base + 0, 1, "r")
        mapper.read_page_values(base + 4)
        snapshot_address_space(
            mapper.address_space,
            cost=cost,
            shm_prefix=SHM_PREFIX,
            file_filter=f"{SHM_PREFIX}col",
        )
        mapper.address_space.remove_mapping(base, 8)
        cost.munmap_call(4)

    def test_ledgers_identical(self):
        sub = SimulatedSubstrate(memory=PhysicalMemory(cost=CostModel()))
        mapper = MemoryMapper(PhysicalMemory(cost=CostModel()))
        self._run_via_substrate(sub)
        self._run_via_mapper(mapper)
        assert sub.cost.ledger.snapshot() == mapper.memory.cost.ledger.snapshot()


class TestCatalogWiring:
    def test_substrate_and_memory_exclusive(self, memory, sub):
        with pytest.raises(ValueError):
            Catalog(memory=memory, substrate=sub)

    def test_catalog_adopts_substrate(self, sub):
        catalog = Catalog(substrate=sub)
        assert catalog.substrate is sub
        assert catalog.cost is sub.cost
        table = catalog.create_table(
            "t", {"x": np.arange(100, dtype=np.int64)}
        )
        assert table.column("x").substrate is sub

    def test_legacy_memory_kwarg(self, memory):
        catalog = Catalog(memory=memory)
        assert isinstance(catalog.substrate, SimulatedSubstrate)
        assert catalog.memory is memory


class TestNativeFactoryGate:
    def test_native_requested_off_linux_raises_cleanly(self):
        from repro.native import is_supported

        if is_supported():
            sub = make_substrate("native")
            try:
                assert sub.backend == "native"
                assert isinstance(sub, Substrate)
            finally:
                sub.close()
        else:
            from repro.native.rewiring import RewiringUnsupportedError

            with pytest.raises(RewiringUnsupportedError):
                make_substrate("native")
