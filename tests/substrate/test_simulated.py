"""Unit tests for the simulated substrate and the backend factory.

The critical invariant: :class:`SimulatedSubstrate` books exactly the
charges the layers used to book when they edited the address space
directly, so the cost-ledger stream is bit-identical to pre-substrate
code.  The bit-identity guard below replays the same operation sequence
through the substrate and as raw :class:`~repro.vm.address_space.AddressSpace`
edits plus the per-syscall charges, and compares the complete ledger
snapshots and the rendered maps text.
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
from repro.vm.address_space import AddressSpace
from repro.vm.cost import CostModel
from repro.vm.errors import FileError
from repro.vm.physical import PhysicalMemory
from repro.vm.procmaps import render_maps, snapshot_address_space
from repro.vm.vma import Vma

from ..conftest import to_reservation


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

    def test_close_deletes_only_its_own_files(self, sub):
        other = SimulatedSubstrate(memory=sub.memory)
        sub.create_file("mine", 4)
        sub.create_file("gone", 4)
        sub.delete_file("gone")
        theirs = other.create_file("theirs", 4)
        sub.close()
        assert sub.memory.files() == [theirs]
        assert sub.memory.free_pages == sub.memory.capacity_pages - 4
        other.close()
        assert sub.memory.files() == []

    def test_reserve_then_rewire_then_read(self, sub):
        file = sub.create_file("col", 8)
        file.data[5, :3] = [7, 8, 9]
        base = sub.reserve(4)
        assert sub.peek_virtual(base)[0] == 0  # reservation reads zeros
        sub.map_fixed(base + 1, 1, file, 5)
        assert list(sub.peek_virtual(base + 1)[:3]) == [7, 8, 9]
        to_reservation(sub, base + 1)
        assert sub.peek_virtual(base + 1)[0] == 0

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


class TestBitIdentity:
    """The same op sequence through the substrate and as raw address-space
    edits must charge the ledger identically — the refactor may not move
    a nanosecond."""

    @staticmethod
    def _run_via_substrate(sub: SimulatedSubstrate) -> str:
        file = sub.create_file("col", 16)
        sub.map_file(16, file)
        base = sub.reserve(8)
        sub.map_fixed(base + 0, 3, file, 4)
        sub.map_fixed(base + 3, 2, file, 9, populate=True)
        to_reservation(sub, base + 1)
        sub.peek_virtual(base + 4)
        sub.maps_snapshot(cost=sub.cost, file_filter=sub.file_map_path(file))
        sub.release_region(base, 8, mapped_pages=4)
        return sub.maps_text()

    @staticmethod
    def _run_via_address_space(memory: PhysicalMemory) -> str:
        cost, aspace = memory.cost, AddressSpace()
        file = memory.create_file("col", 16)
        aspace.add_mapping(Vma(aspace.allocate_region(16), 16, file, 0))
        cost.mmap_call(16)
        base = aspace.allocate_region(8)
        aspace.add_mapping(Vma(base, 8))
        cost.anon_mmap()
        aspace.map_runs([Vma(base + 0, 3, file, 4)])
        cost.mmap_call(3)
        aspace.map_runs([Vma(base + 3, 2, file, 9)])
        cost.mmap_call(2)
        cost.soft_fault(2)
        aspace.map_runs([Vma(base + 1, 1)])
        cost.anon_mmap()
        aspace.translate(base + 4)
        snapshot_address_space(
            aspace,
            cost=cost,
            shm_prefix=SHM_PREFIX,
            file_filter=f"{SHM_PREFIX}col",
        )
        aspace.remove_mapping(base, 8)
        cost.munmap_call(4)
        return render_maps(aspace, shm_prefix=SHM_PREFIX)

    def test_ledgers_identical(self):
        sub = SimulatedSubstrate(memory=PhysicalMemory(cost=CostModel()))
        memory = PhysicalMemory(cost=CostModel())
        assert self._run_via_substrate(sub) == self._run_via_address_space(memory)
        assert sub.cost.ledger.snapshot() == memory.cost.ledger.snapshot()


class TestCatalogWiring:
    def test_catalog_adopts_substrate(self, sub):
        catalog = Catalog(substrate=sub)
        assert catalog.substrate is sub
        assert catalog.cost is sub.cost
        table = catalog.create_table(
            "t", {"x": np.arange(100, dtype=np.int64)}
        )
        assert table.column("x").substrate is sub


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
