"""Unit tests for the simulated kernel's mmap-style mapping operations."""

import numpy as np
import pytest

from repro.vm.errors import MapError
from repro.vm.constants import VALUES_PER_PAGE


@pytest.fixture
def file(memory):
    f = memory.create_file("f", 64)
    f.data[:] = np.arange(64)[:, None]
    return f


class TestMmap:
    def test_anonymous_reservation(self, substrate):
        base = substrate.reserve(100)
        assert substrate.address_space.find_vma(base) is not None
        assert substrate.address_space.find_vma(base + 99) is not None
        assert substrate.address_space.translate(base) is None

    def test_anonymous_is_cheap(self, substrate):
        """A reservation charges only the syscall base, no per-page cost."""
        before = substrate.cost.ledger.lane_ns()
        substrate.reserve(10_000)
        charged = substrate.cost.ledger.lane_ns() - before
        assert charged == pytest.approx(substrate.cost.params.mmap_syscall_ns)

    def test_file_backed_mapping(self, substrate, file):
        base = substrate.map_file(4, file, file_page=8)
        assert substrate.address_space.translate(base + 1) == (file, 9)

    def test_file_backed_charges_per_page(self, substrate, file):
        before = substrate.cost.ledger.lane_ns()
        substrate.map_file(4, file, file_page=0)
        charged = substrate.cost.ledger.lane_ns() - before
        params = substrate.cost.params
        assert charged == pytest.approx(
            params.mmap_syscall_ns + 4 * params.mmap_per_page_ns
        )

    def test_zero_pages_rejected(self, substrate, file):
        with pytest.raises(MapError):
            substrate.reserve(0)
        with pytest.raises(MapError):
            substrate.map_file(0, file)

    def test_file_range_validated(self, substrate, file):
        with pytest.raises(MapError):
            substrate.map_file(8, file, file_page=60)
        with pytest.raises(MapError):
            substrate.map_file(1, file, file_page=-1)

    def test_fixed_replaces_existing(self, substrate, file):
        base = substrate.reserve(8)
        substrate.map_fixed(base + 3, 2, file, 20)
        assert substrate.address_space.translate(base + 3) == (file, 20)
        assert substrate.address_space.translate(base + 2) is None


class TestRemapFixed:
    def test_rewiring(self, substrate, file):
        base = substrate.reserve(4)
        substrate.map_fixed(base, 2, file, 10)
        assert substrate.address_space.translate(base) == (file, 10)
        substrate.map_fixed(base, 2, file, 30)
        assert substrate.address_space.translate(base + 1) == (file, 31)

    def test_counters(self, substrate, file):
        base = substrate.reserve(4)
        substrate.map_fixed(base, 3, file, 0)
        assert substrate.cost.ledger.counter("pages_mapped") == 3
        assert substrate.cost.ledger.counter("mmap_calls") == 2  # reserve + remap


class TestMunmap:
    def test_munmap_removes_and_charges(self, substrate, file):
        base = substrate.map_file(4, file, file_page=0)
        substrate.release_region(base, 4, mapped_pages=4)
        assert substrate.address_space.find_vma(base) is None
        assert substrate.address_space.num_vmas == 0
        assert substrate.cost.ledger.counter("pages_unmapped") == 4


class TestAccess:
    def test_access_returns_backing(self, substrate, file):
        base = substrate.map_file(2, file, file_page=5)
        assert substrate.address_space.translate(base + 1) == (file, 6)
        headers, values = substrate.read_mapped(base + 1, 1)
        assert np.array_equal(values[0], file.page_values(6))
        assert headers.tolist() == [6]

    def test_read_page_values_file(self, substrate, file):
        base = substrate.map_file(1, file, file_page=7)
        _, values = substrate.read_mapped(base, 1)
        assert int(values[0, 0]) == 7

    def test_read_anonymous_returns_no_page(self, substrate):
        base = substrate.reserve(1)
        headers, values = substrate.read_mapped(base, 1)
        assert headers.size == 0
        assert values.shape == (0, VALUES_PER_PAGE)

    def test_read_charges_nothing(self, substrate, file):
        base = substrate.map_file(1, file, file_page=7)
        before = substrate.cost.ledger.snapshot()
        substrate.read_mapped(base, 1)
        assert substrate.read_mapped(base + 5, 1)[0].size == 0  # unmapped: no page, no error
        assert substrate.cost.ledger.snapshot() == before
