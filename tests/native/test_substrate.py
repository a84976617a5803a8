"""Unit tests for :class:`~repro.substrate.native.NativeSubstrate`.

Everything here issues real syscalls — memfd files, anonymous
``PROT_NONE`` reservations, ``mmap(MAP_FIXED)`` rewiring, reads of the
kernel's ``/proc/self/maps`` — and skips on platforms without them.
"""

import ctypes

import numpy as np
import pytest

from repro.native import is_supported
from repro.vm.constants import PAGE_HEADER_BYTES, PAGE_SIZE, VALUES_PER_PAGE
from repro.vm.errors import FileError

from ..conftest import to_reservation

pytestmark = pytest.mark.skipif(
    not is_supported(), reason="native rewiring unsupported on this platform"
)


@pytest.fixture
def sub():
    from repro.substrate.native import NativeSubstrate

    substrate = NativeSubstrate()
    yield substrate
    substrate.close()


@pytest.fixture
def file(sub):
    store = sub.create_file("t.col", 8)
    for p in range(8):
        store.data[p, :] = p * 1000 + np.arange(store.slots_per_page)
    return store


class TestNativePageStore:
    def test_layout_matches_simulated(self, file):
        assert file.num_pages == 8
        assert file.slots_per_page == VALUES_PER_PAGE
        assert file.size_bytes == 8 * 4096
        assert file.data.shape == (8, VALUES_PER_PAGE)

    def test_headers_initialized_like_memory_file(self, file):
        assert [file.page_id(p) for p in range(8)] == list(range(8))
        file.set_page_id(3, 99)
        assert file.page_id(3) == 99

    def test_page_values_roundtrip(self, file):
        assert file.page_values(5)[0] == 5000
        file.page_values(5)[0] = -7
        assert file.data[5, 0] == -7

    def test_bounds_checked(self, file):
        with pytest.raises(FileError):
            file.check_page(8)
        with pytest.raises(FileError):
            file.page_values(-1)

    def test_resize_preserves_data(self, file):
        old = file.data[:, :4].copy()
        file.resize(12)
        assert file.num_pages == 12
        assert np.array_equal(file.data[:8, :4], old)
        assert [file.page_id(p) for p in range(8, 12)] == [8, 9, 10, 11]

    def test_maps_path_is_live(self, sub, file):
        assert file.map_path in sub.maps_text()

    def test_duplicate_name_rejected(self, sub, file):
        with pytest.raises(FileError):
            sub.create_file("t.col", 2)

    def test_delete_file(self, sub, file):
        sub.delete_file("t.col")
        with pytest.raises(FileError):
            sub.get_file("t.col")

    def test_zero_pages_rejected(self, sub):
        with pytest.raises(FileError):
            sub.create_file("empty", 0)


def first_value(sub, vpn):
    """The first data slot of virtual page ``vpn``, read through its mapping."""
    return int(sub.read_mapped(vpn, 1)[1][0, 0])


def write_first_value(vpn, value):
    """Store ``value`` in the first data slot through virtual page ``vpn``."""
    ctypes.c_int64.from_address(vpn * PAGE_SIZE + PAGE_HEADER_BYTES).value = value


class TestNativeMapping:
    def test_reserve_returns_no_page(self, sub):
        base = sub.reserve(4)
        assert sub.read_mapped(base, 1)[0].size == 0
        assert sub.read_mapped(base + 3, 1)[1].shape == (0, VALUES_PER_PAGE)

    def test_map_fixed_rewires_into_reservation(self, sub, file):
        base = sub.reserve(4)
        sub.map_fixed(base + 1, 1, file, 5)
        assert first_value(sub, base + 1) == 5000
        # The core trick: repoint the same virtual page.
        sub.map_fixed(base + 1, 1, file, 2)
        assert first_value(sub, base + 1) == 2000

    def test_unmap_slot_restores_hole(self, sub, file):
        base = sub.reserve(2)
        sub.map_fixed(base, 1, file, 7)
        assert first_value(sub, base) == 7000
        to_reservation(sub, base)
        assert sub.read_mapped(base, 1)[0].size == 0
        sub.map_fixed(base, 1, file, 1)
        assert first_value(sub, base) == 1000

    def test_write_through_store_visible_in_view(self, sub, file):
        base = sub.reserve(1)
        sub.map_fixed(base, 1, file, 4)
        file.data[4, 0] = 123456
        assert first_value(sub, base) == 123456

    def test_write_through_view_reaches_store(self, sub, file):
        base = sub.reserve(2)
        sub.map_fixed(base, 1, file, 3)
        write_first_value(base, -99)
        assert file.data[3, 0] == -99

    def test_two_virtual_pages_share_physical_page(self, sub, file):
        """Multiple virtual pages can map the same physical page — the
        property that lets partial views overlap."""
        base = sub.reserve(4)
        sub.map_fixed(base, 1, file, 2)
        sub.map_fixed(base + 3, 1, file, 2)
        write_first_value(base, 4242)
        assert first_value(sub, base + 3) == 4242

    def test_coalesced_run(self, sub, file):
        base = sub.reserve(8)
        sub.map_fixed(base + 1, 3, file, 4)
        assert sub.read_mapped(base + 1, 3)[1][:, 0].tolist() == [4000, 5000, 6000]
        assert sub.maps_line_count(sub.file_map_path(file)) == 1

    def test_map_file_whole(self, sub, file):
        base = sub.map_file(8, file)
        assert first_value(sub, base + 6) == 6000
        before = sub.cost.ledger.counter("pages_unmapped")
        sub.release_region(base, 8, mapped_pages=8)
        assert sub.cost.ledger.counter("pages_unmapped") - before == 8
        assert sub.address_space.find_vma(base) is None

    def test_populate_charges_soft_faults(self, sub, file):
        base = sub.reserve(2)
        before = sub.cost.ledger.counter("soft_faults")
        sub.map_fixed(base, 2, file, 0, populate=True)
        assert sub.cost.ledger.counter("soft_faults") - before == 2

    def test_release_region_drops_reservation(self, sub, file):
        base = sub.reserve(4)
        sub.map_fixed(base, 2, file, 0)
        before = sub.cost.ledger.counter("pages_unmapped")
        sub.release_region(base, 4, mapped_pages=2)
        assert sub.cost.ledger.counter("pages_unmapped") - before == 2


class TestNativeMapsSource:
    def test_kernel_merges_adjacent_rewires(self, sub, file):
        """Adjacent MAP_FIXED rewires of consecutive file pages merge
        into one kernel VMA — the effect behind Figure 7's clustered
        advantage, observed on the real kernel."""
        path = sub.file_map_path(file)
        base = sub.reserve(4)
        sub.map_fixed(base, 1, file, 2)
        sub.map_fixed(base + 1, 1, file, 3)
        assert sub.maps_line_count(path) == 1

    def test_internal_store_mapping_excluded(self, sub, file):
        """The store's own whole-file mapping must not leak into
        view-level maps accounting."""
        assert sub.maps_line_count(sub.file_map_path(file)) == 0

    def test_same_named_file_of_another_substrate_excluded(self, sub, file):
        """Shards name their slices alike, so the maps pathname is shared;
        each substrate still sees only its own file's mappings."""
        from repro.substrate.native import NativeSubstrate

        path = sub.file_map_path(file)
        with NativeSubstrate() as other:
            twin = other.create_file("t.col", 8)
            assert other.file_map_path(twin) == path
            other.map_fixed(other.reserve(2), 2, twin, 0)
            assert sub.maps_line_count(path) == 0
            assert len(sub.maps_snapshot(file_filter=path)) == 0
            assert other.maps_line_count(path) == 1

    def test_snapshot_over_kernel_maps(self, sub, file):
        path = sub.file_map_path(file)
        base = sub.reserve(4)
        sub.map_fixed(base + 2, 1, file, 6)
        snap = sub.maps_snapshot(cost=sub.cost, file_filter=path)
        assert snap.physical_of(base + 2) == (path, 6)
        assert snap.physical_of(base) is None

    @pytest.mark.parametrize("filtered", [True, False])
    def test_column_built_snapshot_matches_dict_snapshot(self, sub, file, filtered):
        """Real ``/proc/self/maps`` → entries → both snapshot classes:
        same answers and same charges (the array one expands the
        entries' columns, the dict one loops page by page)."""
        from ..oracle_paths import production_paths, reference_paths
        from repro.vm.cost import CostModel

        other = sub.create_file("t.aux", 4)
        base = sub.reserve(12)
        sub.map_fixed(base, 2, file, 3)
        sub.map_fixed(base + 2, 1, file, 5)  # merges with the run before
        sub.map_fixed(base + 5, 2, other, 1)
        sub.map_fixed(base + 9, 1, file, 3)  # page 3 shared by two vpns
        path, other_path = sub.file_map_path(file), sub.file_map_path(other)
        file_filter = path if filtered else None

        built = []
        for ctx in (reference_paths, production_paths):
            cost = CostModel()
            with ctx():
                snap = sub.maps_snapshot(
                    cost=cost, lane="mapper", file_filter=file_filter
                )
            asked = np.array([5, 3, 0, 4, 1, 99])
            built.append(
                {
                    "type": type(snap),
                    "len": len(snap),
                    "forward": [snap.physical_of(base + i) for i in range(12)],
                    "reverse": [
                        snap.virtuals_of((p, f))
                        for p in (path, other_path)
                        for f in range(8)
                    ],
                    "bulk": [
                        sorted(zip(*(a.tolist() for a in
                                     snap.virtuals_of_pages(p, asked))))
                        for p in (path, other_path)
                    ],
                    "ledger": cost.ledger.snapshot(),
                }
            )
        reference, fast = built
        assert fast.pop("type") is not reference.pop("type")
        assert fast == reference
        assert fast["len"] == (4 if filtered else 6)
        assert fast["bulk"][0] == [(0, base + 2), (1, base), (1, base + 9), (3, base + 1)]

    def test_wall_clock_ledger_records_syscalls(self, sub, file):
        sub.reserve(2)
        sub.maps_text()
        counts = {op: sub.wall.count(op) for op in ("reserve", "maps_read")}
        assert counts["reserve"] >= 1
        assert counts["maps_read"] >= 1
        assert sub.wall.total_ns() > 0


class TestNativeObserver:
    def test_mmap_callbacks_fire(self, sub, file):
        events = []

        class Spy:
            def on_mmap(self, kind, npages):
                events.append(("mmap", kind, npages))

            def on_munmap(self, npages):
                events.append(("munmap", npages))

        sub.set_observer(Spy())
        base = sub.reserve(2)
        sub.map_fixed(base, 1, file, 0)
        to_reservation(sub, base)
        sub.map_fixed(base + 1, 1, file, 1)
        sub.release_region(base, 2, mapped_pages=1)
        kinds = [e[1] for e in events if e[0] == "mmap"]
        assert kinds == ["anon", "fixed", "anon", "fixed"]
        assert events[-1] == ("munmap", 1)


class TestNativeLifecycle:
    def test_close_releases_everything(self):
        from repro.substrate.native import NativeSubstrate

        sub = NativeSubstrate()
        store = sub.create_file("x", 2)
        sub.reserve(2)
        sub.close()
        assert store.fd == -1
        assert sub.address_space.num_vmas == 0
        sub.close()
        store.close()
