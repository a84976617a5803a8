"""Unit and property tests for the address space (VMA bookkeeping)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vm.address_space import AddressSpace
from repro.vm.cost import CostModel
from repro.vm.errors import BadAddressError, MapError
from repro.vm.physical import PhysicalMemory
from repro.vm.vma import Vma

from . import mapping_oracle


@pytest.fixture
def asp():
    return AddressSpace()


@pytest.fixture
def file():
    memory = PhysicalMemory(capacity_bytes=64 * 1024 * 1024, cost=CostModel())
    return memory.create_file("f", 256)


class TestMapping:
    def test_add_and_translate(self, asp, file):
        asp.add_mapping(Vma(start=100, npages=4, file=file, file_page=8))
        assert asp.translate(102) == (file, 10)
        assert asp.is_mapped(103)
        assert not asp.is_mapped(104)

    def test_translate_unmapped_raises(self, asp):
        with pytest.raises(BadAddressError):
            asp.translate(5)

    def test_overlap_rejected(self, asp):
        asp.add_mapping(Vma(start=10, npages=4))
        with pytest.raises(MapError):
            asp.add_mapping(Vma(start=12, npages=4))
        with pytest.raises(MapError):
            asp.add_mapping(Vma(start=8, npages=3))

    def test_adjacent_compatible_vmas_merge(self, asp, file):
        asp.add_mapping(Vma(start=0, npages=2, file=file, file_page=0))
        asp.add_mapping(Vma(start=2, npages=2, file=file, file_page=2))
        assert asp.num_vmas == 1
        assert asp.translate(3) == (file, 3)

    def test_merge_with_both_neighbours(self, asp, file):
        asp.add_mapping(Vma(start=0, npages=2, file=file, file_page=0))
        asp.add_mapping(Vma(start=4, npages=2, file=file, file_page=4))
        asp.add_mapping(Vma(start=2, npages=2, file=file, file_page=2))
        assert asp.num_vmas == 1

    def test_incompatible_neighbours_do_not_merge(self, asp, file):
        asp.add_mapping(Vma(start=0, npages=2, file=file, file_page=0))
        asp.add_mapping(Vma(start=2, npages=2, file=file, file_page=7))
        assert asp.num_vmas == 2


class TestUnmapping:
    def test_remove_whole_vma(self, asp):
        asp.add_mapping(Vma(start=10, npages=4))
        assert asp.remove_mapping(10, 4) == 4
        assert not asp.is_mapped(10)
        assert asp.num_vmas == 0

    def test_remove_splits_head_and_tail(self, asp, file):
        asp.add_mapping(Vma(start=10, npages=10, file=file, file_page=0))
        assert asp.remove_mapping(13, 4) == 4
        assert asp.num_vmas == 2
        assert asp.translate(12) == (file, 2)
        assert asp.translate(17) == (file, 7)
        assert not asp.is_mapped(15)

    def test_remove_across_holes(self, asp):
        asp.add_mapping(Vma(start=0, npages=2))
        asp.add_mapping(Vma(start=5, npages=2))
        assert asp.remove_mapping(0, 10) == 4

    def test_remove_nothing(self, asp):
        assert asp.remove_mapping(50, 5) == 0

    def test_remove_empty_range_rejected(self, asp):
        with pytest.raises(MapError):
            asp.remove_mapping(0, 0)


class TestReplace:
    def test_replace_overwrites_atomically(self, asp, file):
        asp.add_mapping(Vma(start=0, npages=8))
        asp.replace_mapping(Vma(start=2, npages=2, file=file, file_page=30))
        assert asp.translate(2) == (file, 30)
        assert asp.translate(1) is None  # anonymous remainder
        assert asp.translate(4) is None

    def test_replace_resets_fault_state(self, asp, file):
        asp.add_mapping(Vma(start=0, npages=4, file=file, file_page=0))
        assert asp.fault_in(1) is True
        assert asp.fault_in(1) is False
        asp.replace_mapping(Vma(start=0, npages=4, file=file, file_page=4))
        assert asp.fault_in(1) is True  # remap invalidates the fault


class TestFaults:
    def test_first_touch_only_once(self, asp):
        asp.add_mapping(Vma(start=0, npages=2))
        assert asp.fault_in(0) is True
        assert asp.fault_in(0) is False

    def test_fault_on_unmapped_raises(self, asp):
        with pytest.raises(BadAddressError):
            asp.fault_in(99)

    def test_unmap_clears_fault_state(self, asp):
        asp.add_mapping(Vma(start=0, npages=2))
        asp.fault_in(0)
        asp.remove_mapping(0, 2)
        asp.add_mapping(Vma(start=0, npages=2))
        assert asp.fault_in(0) is True


def _fault_in_range(fast: bool):
    """The bulk method, or the per-page loop it must agree with."""
    return AddressSpace.fault_in_range if fast else mapping_oracle.fault_in_range


class TestBulkFaults:
    @pytest.mark.parametrize("fast", [True, False])
    def test_counts_first_touches_only(self, asp, fast):
        asp.add_mapping(Vma(start=0, npages=8))
        asp.fault_in(2)
        asp.fault_in(5)
        assert _fault_in_range(fast)(asp, 0, 8) == 6
        assert _fault_in_range(fast)(asp, 0, 8) == 0

    @pytest.mark.parametrize("fast", [True, False])
    def test_range_spanning_merged_vmas(self, asp, file, fast):
        asp.add_mapping(Vma(start=0, npages=4))
        asp.add_mapping(Vma(start=4, npages=4, file=file, file_page=0))
        assert _fault_in_range(fast)(asp, 2, 5) == 5

    @pytest.mark.parametrize("fast", [True, False])
    def test_unmapped_hole_raises(self, asp, fast):
        asp.add_mapping(Vma(start=0, npages=2))
        asp.add_mapping(Vma(start=4, npages=2))
        with pytest.raises(BadAddressError):
            _fault_in_range(fast)(asp, 0, 6)

    def test_empty_range_rejected(self, asp):
        with pytest.raises(MapError):
            asp.fault_in_range(0, 0)

    def test_invalidation_with_sparse_fault_set(self, asp):
        # A huge remap over a barely-touched area walks the (smaller)
        # fault set, not the range — and must still forget the faults.
        asp.add_mapping(Vma(start=0, npages=10_000))
        asp.fault_in(17)
        asp.fault_in(9_000)
        asp.fault_in(3)
        asp.remove_mapping(10, 9_980)  # drops 17 and 9000, keeps 3
        asp.add_mapping(Vma(start=10, npages=9_980))
        assert asp.fault_in(17) is True
        assert asp.fault_in(9_000) is True
        assert asp.fault_in(3) is False


class TestAllocator:
    def test_regions_do_not_collide(self, asp):
        a = asp.allocate_region(16)
        b = asp.allocate_region(16)
        assert b >= a + 16

    def test_allocator_skips_fixed_mappings(self, asp):
        a = asp.allocate_region(4)
        asp.add_mapping(Vma(start=a + 100, npages=8))
        c = asp.allocate_region(4)
        assert c >= a + 108

    def test_empty_allocation_rejected(self, asp):
        with pytest.raises(MapError):
            asp.allocate_region(0)


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["map", "unmap", "replace"]),
            st.integers(0, 60),
            st.integers(1, 12),
        ),
        max_size=40,
    )
)
def test_address_space_matches_page_model(ops):
    """VMA bookkeeping must agree with a naive page-by-page model."""
    asp = AddressSpace()
    model: dict[int, int | None] = {}
    memory = PhysicalMemory(capacity_bytes=1024 * 4096)
    file = memory.create_file("f", 200)

    for op, start, npages in ops:
        if op == "map":
            overlap = any(v in model for v in range(start, start + npages))
            vma = Vma(start=start, npages=npages, file=file, file_page=start)
            if overlap:
                with pytest.raises(MapError):
                    asp.add_mapping(vma)
            else:
                asp.add_mapping(vma)
                for i in range(npages):
                    model[start + i] = start + i
        elif op == "unmap":
            removed = asp.remove_mapping(start, npages)
            expected = sum(
                1 for v in range(start, start + npages) if model.pop(v, None) is not None
            )
            assert removed == expected
        else:
            vma = Vma(start=start, npages=npages, file=file, file_page=0)
            asp.replace_mapping(vma)
            for v in range(start, start + npages):
                model[v] = v - start

    for vpn in range(0, 80):
        if vpn in model:
            assert asp.translate(vpn) == (file, model[vpn])
        else:
            assert not asp.is_mapped(vpn)

    # VMAs are sorted, non-overlapping, and non-adjacent-compatible
    vmas = list(asp.vmas())
    for first, second in zip(vmas, vmas[1:]):
        assert first.end <= second.start
        assert not first.can_merge_with(second)
