"""Unit tests for the syscall-style mapping interface."""

import numpy as np
import pytest

from repro.vm.cost import MAIN_LANE, MAPPER_LANE
from repro.vm.errors import MapError
from repro.vm.constants import VALUES_PER_PAGE


@pytest.fixture
def file(memory):
    f = memory.create_file("f", 64)
    f.data[:] = np.arange(64)[:, None]
    return f


class TestMmap:
    def test_anonymous_reservation(self, mapper):
        base = mapper.mmap(100)
        assert mapper.address_space.is_mapped(base)
        assert mapper.address_space.is_mapped(base + 99)
        assert mapper.translate(base) is None

    def test_anonymous_is_cheap(self, mapper):
        """A reservation charges only the syscall base, no per-page cost."""
        before = mapper.cost.ledger.lane_ns()
        mapper.mmap(10_000)
        charged = mapper.cost.ledger.lane_ns() - before
        assert charged == pytest.approx(mapper.cost.params.mmap_syscall_ns)

    def test_file_backed_mapping(self, mapper, file):
        base = mapper.mmap(4, file=file, file_page=8)
        assert mapper.translate(base + 1) == (file, 9)

    def test_file_backed_charges_per_page(self, mapper, file):
        before = mapper.cost.ledger.lane_ns()
        mapper.mmap(4, file=file, file_page=0)
        charged = mapper.cost.ledger.lane_ns() - before
        params = mapper.cost.params
        assert charged == pytest.approx(
            params.mmap_syscall_ns + 4 * params.mmap_per_page_ns
        )

    def test_zero_pages_rejected(self, mapper):
        with pytest.raises(MapError):
            mapper.mmap(0)

    def test_fixed_requires_address(self, mapper):
        with pytest.raises(MapError):
            mapper.mmap(1, fixed=True)

    def test_file_range_validated(self, mapper, file):
        with pytest.raises(MapError):
            mapper.mmap(8, file=file, file_page=60)
        with pytest.raises(MapError):
            mapper.mmap(1, file=file, file_page=-1)

    def test_fixed_replaces_existing(self, mapper, file):
        base = mapper.mmap(8)
        mapper.mmap(2, addr=base + 3, fixed=True, file=file, file_page=20)
        assert mapper.translate(base + 3) == (file, 20)
        assert mapper.translate(base + 2) is None


class TestRemapFixed:
    def test_rewiring(self, mapper, file):
        base = mapper.mmap(4)
        mapper.remap_fixed(base, 2, file, 10)
        assert mapper.translate(base) == (file, 10)
        mapper.remap_fixed(base, 2, file, 30)
        assert mapper.translate(base + 1) == (file, 31)

    def test_counters(self, mapper, file):
        base = mapper.mmap(4)
        mapper.remap_fixed(base, 3, file, 0)
        assert mapper.cost.ledger.counter("pages_mapped") == 3
        assert mapper.cost.ledger.counter("mmap_calls") == 2  # reserve + remap


class TestMunmap:
    def test_munmap_removes_and_charges(self, mapper, file):
        base = mapper.mmap(4, file=file, file_page=0)
        removed = mapper.munmap(base, 4)
        assert removed == 4
        assert not mapper.address_space.is_mapped(base)
        assert mapper.cost.ledger.counter("pages_unmapped") == 4


class TestAccess:
    def test_first_access_faults_once(self, mapper, file):
        base = mapper.mmap(2, file=file, file_page=0)
        mapper.access(base)
        mapper.access(base)
        assert mapper.cost.ledger.counter("soft_faults") == 1

    def test_access_returns_backing(self, mapper, file):
        base = mapper.mmap(2, file=file, file_page=5)
        assert mapper.access(base + 1) == (file, 6)

    def test_read_page_values_file(self, mapper, file):
        base = mapper.mmap(1, file=file, file_page=7)
        values = mapper.read_page_values(base)
        assert int(values[0]) == 7

    def test_read_page_values_charges_the_given_lane(self, mapper, file):
        """Regression: ``lane`` used to land in ``access``'s ``write``
        parameter, so a mapper-lane read was charged to the main lane."""
        base = mapper.mmap(1, file=file, file_page=7)
        main = mapper.cost.ledger.lane_ns(MAIN_LANE)
        mapper.read_page_values(base, lane=MAPPER_LANE)
        assert mapper.cost.ledger.lane_ns(MAIN_LANE) == main
        assert mapper.cost.ledger.lane_ns(MAPPER_LANE) == mapper.cost.params.soft_fault_ns

    def test_read_page_values_anonymous_is_zero(self, mapper):
        base = mapper.mmap(1)
        values = mapper.read_page_values(base)
        assert values.shape == (VALUES_PER_PAGE,)
        assert not values.any()
