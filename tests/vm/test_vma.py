"""Unit and property tests for virtual memory areas."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vm.cost import CostModel
from repro.vm.physical import PhysicalMemory
from repro.vm.vma import Vma

from .mapping_oracle import can_merge, clipped, merged, overlaps, split_at


@pytest.fixture
def file():
    memory = PhysicalMemory(capacity_bytes=64 * 1024 * 1024, cost=CostModel())
    return memory.create_file("f", 64)


class TestVmaBasics:
    def test_geometry(self, file):
        vma = Vma(start=10, npages=4, file=file, file_page=2)
        assert vma.end == 14
        assert vma.file is not None
        assert vma.contains(13)
        assert not vma.contains(14)

    def test_anonymous(self):
        vma = Vma(start=0, npages=2)
        assert vma.file is None
        assert vma.translate(1) is None

    def test_validation(self, file):
        with pytest.raises(ValueError):
            Vma(start=0, npages=0)
        with pytest.raises(ValueError):
            Vma(start=-1, npages=1)

    def test_translate(self, file):
        vma = Vma(start=10, npages=4, file=file, file_page=20)
        assert vma.translate(12) == (file, 22)
        with pytest.raises(ValueError):
            vma.translate(14)

    def test_overlaps(self):
        vma = Vma(start=10, npages=4)
        assert overlaps(vma, 13, 1)
        assert overlaps(vma, 8, 3)
        assert not overlaps(vma, 14, 2)
        assert not overlaps(vma, 6, 4)


class TestVmaMerge:
    def test_merge_file_backed_contiguous(self, file):
        a = Vma(start=0, npages=2, file=file, file_page=10)
        b = Vma(start=2, npages=3, file=file, file_page=12)
        assert can_merge(a, b)
        joined = merged(a, b)
        assert joined.npages == 5
        assert joined.translate(4) == (file, 14)

    def test_no_merge_with_file_gap(self, file):
        a = Vma(start=0, npages=2, file=file, file_page=10)
        b = Vma(start=2, npages=3, file=file, file_page=13)
        assert not can_merge(a, b)

    def test_no_merge_with_virtual_gap(self, file):
        a = Vma(start=0, npages=2, file=file, file_page=10)
        b = Vma(start=3, npages=1, file=file, file_page=12)
        assert not can_merge(a, b)

    def test_no_merge_across_files(self, file):
        other = PhysicalMemory(capacity_bytes=8 * 4096).create_file("g", 8)
        a = Vma(start=0, npages=2, file=file, file_page=0)
        b = Vma(start=2, npages=2, file=other, file_page=2)
        assert not can_merge(a, b)

    def test_anonymous_merge(self):
        a = Vma(start=0, npages=2)
        b = Vma(start=2, npages=2)
        assert can_merge(a, b)
        assert merged(a, b).npages == 4

    def test_merge_rejects_incompatible(self, file):
        a = Vma(start=0, npages=2, file=file, file_page=0)
        b = Vma(start=5, npages=2, file=file, file_page=2)
        with pytest.raises(ValueError):
            merged(a, b)


class TestVmaSplit:
    """A split is two clips, as the address space's splice makes them."""

    def test_split_file_backed(self, file):
        vma = Vma(start=10, npages=6, file=file, file_page=20)
        head, tail = clipped(vma, 10, 12), clipped(vma, 12, 16)
        assert (head.start, head.npages, head.file_page) == (10, 2, 20)
        assert (tail.start, tail.npages, tail.file_page) == (12, 4, 22)

    def test_split_anonymous(self):
        vma = Vma(start=0, npages=4)
        head, tail = clipped(vma, 0, 1), clipped(vma, 1, 4)
        assert head.npages == 1 and tail.npages == 3
        assert tail.file_page == 0

    def test_split_bounds(self):
        vma = Vma(start=10, npages=4)
        for bad in (10, 14, 9, 15):
            with pytest.raises(ValueError):
                split_at(vma, bad)


@settings(max_examples=150, deadline=None)
@given(
    start=st.integers(0, 100),
    npages=st.integers(2, 50),
    file_page=st.integers(0, 100),
    cut=st.data(),
)
def test_split_then_merge_roundtrip(start, npages, file_page, cut):
    """Splitting any VMA and merging the halves reproduces the original."""
    vma = Vma(start=start, npages=npages, file=None, file_page=0)
    point = cut.draw(st.integers(start + 1, start + npages - 1))
    head, tail = clipped(vma, start, point), clipped(vma, point, start + npages)
    assert (head, tail) == split_at(vma, point)
    assert can_merge(head, tail)
    joined = merged(head, tail)
    assert joined == vma

    # translations of a file-backed VMA survive split at every page
    memory = PhysicalMemory(capacity_bytes=512 * 4096 + 4096)
    file = memory.create_file("f", min(file_page + npages, 512) or 1)
    if file_page + npages <= file.num_pages:
        fvma = Vma(start=start, npages=npages, file=file, file_page=file_page)
        fhead, ftail = clipped(fvma, start, point), clipped(fvma, point, start + npages)
        for vpn in range(start, start + npages):
            part = fhead if fhead.contains(vpn) else ftail
            assert part.translate(vpn) == fvma.translate(vpn)
