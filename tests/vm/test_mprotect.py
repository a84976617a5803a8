"""Unit and property tests for mprotect and permission enforcement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vm.errors import BadAddressError, MapError, ProtectionError
from repro.vm.mmap_api import MemoryMapper
from repro.vm.physical import PhysicalMemory
from repro.vm.procmaps import parse_maps, render_maps


@pytest.fixture
def file(memory):
    return memory.create_file("f", 64)


class TestMprotect:
    def test_read_only_blocks_writes(self, mapper, file):
        base = mapper.mmap(4, file=file, file_page=0)
        mapper.mprotect(base, 4, "r")
        assert mapper.access(base) is not None  # reads fine
        with pytest.raises(ProtectionError):
            mapper.access(base, write=True)

    def test_read_only_page_values_readable(self, mapper, file):
        """Regression: ``read_page_values`` asked for *write* access (its
        lane argument sat in the ``write`` slot) and was denied here."""
        base = mapper.mmap(1, file=file, file_page=3)
        mapper.mprotect(base, 1, "r")
        assert mapper.read_page_values(base) is not None
        assert mapper.cost.ledger.counter("soft_faults") == 1

    def test_none_blocks_everything(self, mapper, file):
        base = mapper.mmap(2, file=file, file_page=0)
        mapper.mprotect(base, 2, "")
        with pytest.raises(ProtectionError):
            mapper.access(base)

    def test_restore_permissions(self, mapper, file):
        base = mapper.mmap(2, file=file, file_page=0)
        mapper.mprotect(base, 2, "r")
        mapper.mprotect(base, 2, "rw")
        assert mapper.access(base, write=True) == (file, 0)

    def test_partial_range_splits_vma(self, mapper, file):
        base = mapper.mmap(8, file=file, file_page=0)
        before = mapper.address_space.num_vmas
        mapper.mprotect(base + 2, 3, "r")
        assert mapper.address_space.num_vmas == before + 2
        # translations unaffected on all pieces
        for i in range(8):
            assert mapper.translate(base + i) == (file, i)
        with pytest.raises(ProtectionError):
            mapper.access(base + 3, write=True)
        assert mapper.access(base + 1, write=True) == (file, 1)

    def test_reprotect_merges_back(self, mapper, file):
        base = mapper.mmap(8, file=file, file_page=0)
        mapper.mprotect(base + 2, 3, "r")
        mapper.mprotect(base + 2, 3, "rw")
        assert mapper.address_space.num_vmas == 1

    def test_resident_pages_stay_resident(self, mapper, file):
        base = mapper.mmap(2, file=file, file_page=0)
        mapper.access(base)
        faults_before = mapper.cost.ledger.counter("soft_faults")
        mapper.mprotect(base, 2, "r")
        mapper.access(base)
        assert mapper.cost.ledger.counter("soft_faults") == faults_before

    def test_unmapped_range_rejected(self, mapper):
        with pytest.raises(BadAddressError):
            mapper.mprotect(0x500, 2, "r")

    def test_hole_rejected(self, mapper, file):
        a = mapper.mmap(2, addr=100, fixed=True, file=file, file_page=0)
        mapper.mmap(2, addr=104, fixed=True, file=file, file_page=2)
        with pytest.raises(BadAddressError):
            mapper.mprotect(100, 6, "r")

    def test_bad_perms_rejected(self, mapper, file):
        base = mapper.mmap(1, file=file, file_page=0)
        with pytest.raises(MapError):
            mapper.mprotect(base, 1, "rq")
        with pytest.raises(MapError):
            mapper.mprotect(base, 0, "r")

    def test_charges_syscall(self, mapper, file):
        base = mapper.mmap(1, file=file, file_page=0)
        mapper.mprotect(base, 1, "r")
        assert mapper.cost.ledger.counter("mprotect_calls") == 1

    def test_rendered_in_maps(self, mapper, file):
        base = mapper.mmap(4, file=file, file_page=0)
        mapper.mprotect(base, 2, "r")
        text = render_maps(mapper.address_space)
        perms = [line.split()[1] for line in text.splitlines()]
        assert "r--s" in perms
        assert "rw-s" in perms


@settings(max_examples=100, deadline=None)
@given(
    start=st.integers(0, 28),
    npages=st.integers(1, 16),
    perms=st.sampled_from(["r", "rw", "rx", ""]),
)
def test_mprotect_preserves_translations(start, npages, perms):
    """Any in-range mprotect keeps every page's translation intact and
    the maps file parseable."""
    memory = PhysicalMemory(capacity_bytes=64 * 1024 * 1024)
    mapper = MemoryMapper(memory)
    file = memory.create_file("f", 64)
    base = mapper.mmap(44, file=file, file_page=0)
    if start + npages > 44:
        npages = 44 - start
    if npages < 1:
        npages = 1
    mapper.mprotect(base + start, npages, perms)
    for i in range(44):
        assert mapper.translate(base + i) == (file, i)
    entries = parse_maps(render_maps(mapper.address_space))
    assert sum(e.npages for e in entries) == 44
