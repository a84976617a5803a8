"""Unit tests for physical columns."""

import numpy as np
import pytest

from repro.storage.column import PhysicalColumn
from repro.substrate import SimulatedSubstrate
from repro.vm.constants import VALUES_PER_PAGE
from repro.vm.cost import CostModel
from repro.vm.mmap_api import MemoryMapper
from repro.vm.physical import PhysicalMemory

from ..conftest import build_column


class TestCreate:
    def test_full_pages(self):
        values = np.arange(VALUES_PER_PAGE * 3)
        col = build_column(values)
        assert col.num_pages == 3
        assert col.num_rows == values.size
        assert col.valid_count(2) == VALUES_PER_PAGE

    def test_partial_last_page(self):
        values = np.arange(VALUES_PER_PAGE + 10)
        col = build_column(values)
        assert col.num_pages == 2
        assert col.valid_count(1) == 10
        assert col.valid_count(0) == VALUES_PER_PAGE

    def test_rejects_empty_and_2d(self):
        memory = PhysicalMemory(cost=CostModel())
        substrate = SimulatedSubstrate(mapper=MemoryMapper(memory))
        with pytest.raises(ValueError):
            PhysicalColumn.create(substrate, "c", np.array([]))
        with pytest.raises(ValueError):
            PhysicalColumn.create(substrate, "c", np.zeros((2, 2)))

    def test_load_charges_writes(self):
        values = np.arange(100)
        col = build_column(values)
        assert col.mapper.cost.ledger.counter("values_written") == 100

    def test_page_ids_embedded(self):
        col = build_column(np.arange(VALUES_PER_PAGE * 4))
        assert col.file.page_id(3) == 3


class TestPointAccess:
    def test_read_write_roundtrip(self):
        col = build_column(np.arange(1000))
        assert col.read(999) == 999
        old = col.write(999, -5)
        assert old == 999
        assert col.read(999) == -5

    def test_bounds_checked(self):
        col = build_column(np.arange(10))
        with pytest.raises(IndexError):
            col.read(10)
        with pytest.raises(IndexError):
            col.write(-1, 0)

    def test_values_reflects_writes(self):
        values = np.arange(VALUES_PER_PAGE + 3)
        col = build_column(values)
        col.write(0, 777)
        out = col.values()
        assert out.size == values.size
        assert out[0] == 777
        assert out[-1] == values[-1]

    def test_values_is_a_copy(self):
        col = build_column(np.arange(10))
        out = col.values()
        out[0] = 123456
        assert col.read(0) == 0


class TestScans:
    def test_scan_page_respects_valid_count(self):
        values = np.full(VALUES_PER_PAGE + 5, 9)
        col = build_column(values)
        result = col.scan_page(1, 0, 10)
        assert result.rowids.size == 5

    def test_scan_page_zero_padding_invisible(self):
        values = np.full(VALUES_PER_PAGE + 5, 9)
        col = build_column(values)
        # zeros in the padding must not match a [0, 10] query
        result = col.scan_page(1, 0, 0)
        assert result.empty

    def test_pages_with_values_in(self):
        values = np.zeros(VALUES_PER_PAGE * 4, dtype=np.int64)
        values[VALUES_PER_PAGE * 2 + 5] = 99
        col = build_column(values)
        assert col.pages_with_values_in(50, 150).tolist() == [2]
        assert col.pages_with_values_in(0, 0).tolist() == [0, 1, 2, 3]

    def test_pages_with_values_in_ignores_padding(self):
        values = np.full(VALUES_PER_PAGE + 1, 7)
        col = build_column(values)
        # the padding zeros on page 1 must not qualify for [0, 0]
        assert col.pages_with_values_in(0, 0).tolist() == []

    def test_scan_page_charge_flag(self):
        col = build_column(np.arange(100))
        before = col.mapper.cost.ledger.counter("pages_scanned")
        col.scan_page(0, 0, 10, charge=False)
        assert col.mapper.cost.ledger.counter("pages_scanned") == before
        col.scan_page(0, 0, 10)
        assert col.mapper.cost.ledger.counter("pages_scanned") == before + 1
