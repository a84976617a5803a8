"""Unit tests for physical memory and main-memory files."""

import numpy as np
import pytest

from repro.vm.constants import PAGE_SIZE, VALUES_PER_PAGE
from repro.vm.errors import FileError, OutOfMemoryError
from repro.vm.physical import PhysicalMemory


class TestPhysicalMemory:
    def test_capacity_accounting(self, memory):
        before = memory.free_pages
        memory.create_file("a", 10)
        assert memory.free_pages == memory.capacity_pages - 10
        assert memory.free_pages == before - 10

    def test_capacity_enforced(self):
        small = PhysicalMemory(capacity_bytes=PAGE_SIZE * 4)
        small.create_file("a", 3)
        with pytest.raises(OutOfMemoryError):
            small.create_file("b", 2)

    def test_tiny_capacity_rejected(self):
        with pytest.raises(OutOfMemoryError):
            PhysicalMemory(capacity_bytes=PAGE_SIZE - 1)

    def test_duplicate_file_name_rejected(self, memory):
        memory.create_file("a", 1)
        with pytest.raises(FileError):
            memory.create_file("a", 1)

    def test_get_missing_file(self, memory):
        with pytest.raises(FileError):
            memory.get_file("ghost")

    def test_delete_releases_pages(self, memory):
        memory.create_file("a", 8)
        memory.delete_file("a")
        assert memory.free_pages == memory.capacity_pages
        with pytest.raises(FileError):
            memory.get_file("a")

    def test_release_validation(self, memory):
        with pytest.raises(ValueError):
            memory.release_pages(1)
        with pytest.raises(ValueError):
            memory.reserve_pages(-1)

    def test_files_listing_and_inodes(self, memory):
        a = memory.create_file("a", 1)
        b = memory.create_file("b", 1)
        assert memory.files() == [a, b]
        assert a.inode != b.inode
        assert a.inode > 0


class TestMemoryFile:
    def test_geometry(self, memory):
        f = memory.create_file("f", 4)
        assert f.num_pages == 4
        assert f.size_bytes == 4 * PAGE_SIZE
        assert f.data.shape == (4, VALUES_PER_PAGE)

    def test_zero_pages_rejected(self, memory):
        with pytest.raises(FileError):
            memory.create_file("f", 0)

    def test_page_ids_default_to_identity(self, memory):
        f = memory.create_file("f", 5)
        assert [f.page_id(i) for i in range(5)] == list(range(5))

    def test_set_page_id(self, memory):
        f = memory.create_file("f", 2)
        f.set_page_id(1, 42)
        assert f.page_id(1) == 42

    def test_page_bounds_checked(self, memory):
        f = memory.create_file("f", 2)
        with pytest.raises(FileError):
            f.page_values(2)
        with pytest.raises(FileError):
            f.page_id(-1)

    def test_page_values_is_a_view(self, memory):
        f = memory.create_file("f", 2)
        f.page_values(0)[:] = 7
        assert int(f.data[0, 0]) == 7

    def test_resize_grow(self, memory):
        f = memory.create_file("f", 2)
        f.data[:] = 5
        f.resize(4)
        assert f.num_pages == 4
        assert memory.free_pages == memory.capacity_pages - 4
        assert int(f.data[1, 0]) == 5  # old data preserved
        assert int(f.data[3, 0]) == 0  # new pages zeroed
        assert f.page_id(3) == 3

    def test_resize_shrink(self, memory):
        f = memory.create_file("f", 4)
        f.resize(2)
        assert f.num_pages == 2
        assert memory.free_pages == memory.capacity_pages - 2

    def test_resize_to_zero_rejected(self, memory):
        f = memory.create_file("f", 2)
        with pytest.raises(FileError):
            f.resize(0)

    def test_resize_respects_capacity(self):
        small = PhysicalMemory(capacity_bytes=PAGE_SIZE * 4)
        f = small.create_file("f", 3)
        with pytest.raises(OutOfMemoryError):
            f.resize(5)

    def test_data_dtype_is_int64(self, memory):
        f = memory.create_file("f", 1)
        assert f.data.dtype == np.int64
        assert f.headers.dtype == np.int64
