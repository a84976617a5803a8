"""Geometry sanity checks and small cross-cutting vm tests."""

import threading

import numpy as np
import pytest

from repro.vm.constants import (
    MAX_VALUE,
    MIN_VALUE,
    PAGE_HEADER_BYTES,
    PAGE_SIZE,
    VALUE_WIDTH,
    VALUES_PER_PAGE,
)
from repro.vm.cost import CostLedger


class TestConstants:
    def test_page_geometry(self):
        """The paper's layout: 4 KiB pages, 8 B pageID, 8 B values."""
        assert PAGE_SIZE == 4096
        assert PAGE_HEADER_BYTES == 8
        assert VALUE_WIDTH == 8
        assert VALUES_PER_PAGE == (PAGE_SIZE - PAGE_HEADER_BYTES) // VALUE_WIDTH
        assert VALUES_PER_PAGE == 511

    def test_value_domain(self):
        assert MAX_VALUE == 2**63 - 1
        assert MIN_VALUE == -(2**63)

    def test_header_plus_values_fit_one_page(self):
        assert PAGE_HEADER_BYTES + VALUES_PER_PAGE * VALUE_WIDTH <= PAGE_SIZE


class TestLedgerConcurrency:
    def test_concurrent_charges_are_not_lost(self):
        """The ledger is hammered by the background mapping thread;
        charges and counters must never race away."""
        ledger = CostLedger()
        per_thread = 2_000
        threads = 8

        def worker():
            for _ in range(per_thread):
                ledger.charge(1.0, "main")
                ledger.charge(2.0, "mapper")
                ledger.count("ops")

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert ledger.lane_ns("main") == pytest.approx(per_thread * threads)
        assert ledger.lane_ns("mapper") == pytest.approx(2.0 * per_thread * threads)
        assert ledger.counter("ops") == per_thread * threads


class TestMmapPopulate:
    def test_populate_faults_upfront(self, substrate, memory):
        file = memory.create_file("f", 8)
        base = substrate.reserve(4)
        substrate.map_fixed(base, 4, file, 0, populate=True)
        assert substrate.cost.ledger.counter("soft_faults") == 4

    def test_a_plan_without_a_file_books_no_faults(self, substrate):
        """A plan without a file points back at the reservation, which
        has nothing to populate."""
        base = substrate.reserve(3)
        npages = np.array([3])
        substrate.map_runs(np.array([base]), npages, None, npages, populate=True)
        assert substrate.cost.ledger.counter("soft_faults") == 0
        assert substrate.address_space.translate(base) is None

    def test_remap_populate_resets_then_prefaults(self, substrate, memory):
        file = memory.create_file("f", 8)
        base = substrate.reserve(2)
        substrate.map_fixed(base, 2, file, 0, populate=True)
        substrate.map_fixed(base, 2, file, 4, populate=True)
        # 2 faults for the first map + 2 for the remap
        assert substrate.cost.ledger.counter("soft_faults") == 4


class TestProcmapsPrefix:
    def test_custom_shm_prefix(self, substrate, memory):
        from repro.vm.procmaps import render_maps

        file = memory.create_file("db", 4)
        substrate.map_file(2, file)
        text = render_maps(substrate.address_space, shm_prefix="/mnt/ram/")
        assert "/mnt/ram/db" in text
