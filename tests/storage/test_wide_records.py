"""Unit tests for wide-record columns (key + payload tuples).

The paper's Figure 3 page fractions (0.52 % of pages indexed at
k = 12,500 over a [0, 100M] uniform domain) imply roughly 42 records per
4 KiB page, i.e. ~96 B records.  Wide-record columns model exactly that;
these tests pin the layout arithmetic and the end-to-end behaviour.
"""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveStorageLayer
from repro.core.config import AdaptiveConfig
from repro.core.snapshot import SnapshotManager
from repro.storage import layout
from repro.storage.column import PhysicalColumn
from repro.substrate import SimulatedSubstrate
from repro.vm.constants import PAGE_SIZE, VALUES_PER_PAGE
from repro.vm.cost import CostModel
from repro.vm.physical import PhysicalMemory

from ..conftest import reference_rows


def wide_column(num_rows=2000, record_bytes=96, seed=0, hi=100_000_000):
    memory = PhysicalMemory(capacity_bytes=256 * 1024**2, cost=CostModel())
    rng = np.random.default_rng(seed)
    values = rng.integers(0, hi, num_rows)
    return PhysicalColumn.create(
        SimulatedSubstrate(memory=memory), "wide", values, record_bytes=record_bytes
    )


class TestLayoutArithmetic:
    def test_records_per_page(self):
        assert layout.records_per_page(8) == VALUES_PER_PAGE
        assert layout.records_per_page(96) == 42
        assert layout.records_per_page(PAGE_SIZE - 8) == 1

    def test_bad_record_sizes(self):
        with pytest.raises(ValueError):
            layout.records_per_page(4)
        with pytest.raises(ValueError):
            layout.records_per_page(PAGE_SIZE * 2)

    def test_row_arithmetic_with_per_page(self):
        assert layout.row_to_page(42, per_page=42) == 1
        assert layout.row_to_slot(42, per_page=42) == 0

    def test_paper_fig3_fractions(self):
        """With 42 records/page, i.i.d. uniform [0, 100M] data indexes
        ~0.52 % of pages at k = 12,500 and ~28 % at k = 800,000 — the
        paper's stated numbers."""
        per_page = layout.records_per_page(96)
        p_low = 1 - (1 - 12_500 / 1e8) ** per_page
        p_high = 1 - (1 - 800_000 / 1e8) ** per_page
        assert p_low == pytest.approx(0.0052, rel=0.02)
        assert p_high == pytest.approx(0.279, rel=0.05)


class TestWideColumn:
    def test_geometry(self):
        col = wide_column(num_rows=100, record_bytes=96)
        assert col.values_per_page == 42
        assert col.num_pages == layout.pages_for_rows(100, 42)
        assert col.value_cost_factor == 12

    def test_point_access(self):
        col = wide_column(num_rows=100)
        old = col.write(50, 12345)
        assert col.read(50) == 12345
        assert isinstance(old, int)

    def test_scan_page_rowids(self):
        col = wide_column(num_rows=100, record_bytes=96, hi=1000)
        result = col.scan_page(1, 0, 1000)
        assert result.rowids.min() >= 42
        assert result.rowids.max() < 84

    def test_scan_cost_scales_with_record_bytes(self):
        narrow = wide_column(num_rows=4200, record_bytes=8)
        wide = wide_column(num_rows=4200, record_bytes=96)
        with narrow.cost.region() as narrow_region:
            narrow.scan_page(0, 0, 10)
        with wide.cost.region() as wide_region:
            wide.scan_page(0, 0, 10)
        # both scans stream roughly one page worth of bytes
        assert wide_region.elapsed_ns() == pytest.approx(
            narrow_region.elapsed_ns(), rel=0.05
        )

    def test_values_roundtrip(self):
        col = wide_column(num_rows=100)
        assert col.values().size == 100


class TestWideAdaptiveLayer:
    def test_queries_match_reference(self):
        col = wide_column(num_rows=42 * 64, record_bytes=96, hi=1_000_000)
        layer = AdaptiveStorageLayer(col, AdaptiveConfig(max_views=5))
        values = col.values()
        for lo, hi in [(0, 100_000), (500_000, 600_000), (0, 100_000)]:
            result = layer.answer_query(lo, hi)
            expected = reference_rows(values, lo, hi)
            assert np.array_equal(np.sort(result.rowids), expected)

    def test_maintenance_on_wide_column(self):
        from repro.storage.updates import UpdateBatch, UpdateRecord

        col = wide_column(num_rows=42 * 64, record_bytes=96, hi=1_000_000)
        layer = AdaptiveStorageLayer(col, AdaptiveConfig(max_views=5))
        layer.answer_query(0, 100_000)
        batch = UpdateBatch()
        rng = np.random.default_rng(1)
        for row in rng.integers(0, col.num_rows, 100).tolist():
            new = int(rng.integers(0, 1_000_000))
            old = col.write(int(row), new)
            batch.append(UpdateRecord(row=int(row), old=old, new=new))
        layer.apply_updates(batch)
        result = layer.answer_query(0, 100_000)
        expected = reference_rows(col.values(), 0, 100_000)
        assert np.array_equal(np.sort(result.rowids), expected)

    def test_snapshot_on_wide_column(self):
        col = wide_column(num_rows=42 * 16, record_bytes=96, hi=1000)
        with SnapshotManager(col) as manager:
            snap = manager.create_snapshot()
            frozen = col.values()
            col.write(0, 999_999)
            assert np.array_equal(snap.values(), frozen)
            rowids, _ = snap.scan(0, 1000)
            assert np.array_equal(
                np.sort(rowids), reference_rows(frozen, 0, 1000)
            )


class TestWideBaselines:
    def test_all_variants_agree(self):
        from repro.baselines import VARIANTS
        from repro.storage.updates import UpdateBatch, UpdateRecord

        results = []
        for variant_cls in VARIANTS.values():
            col = wide_column(num_rows=42 * 32, record_bytes=96, seed=2)
            index = variant_cls(col, 0, 10_000_000)
            index.build()
            rng = np.random.default_rng(3)
            batch = UpdateBatch()
            for row in rng.integers(0, col.num_rows, 50).tolist():
                new = int(rng.integers(0, 100_000_000))
                old = col.write(int(row), new)
                batch.append(UpdateRecord(row=int(row), old=old, new=new))
            index.apply_updates(batch)
            rowids, _ = index.query(0, 5_000_000)
            results.append(sorted(rowids.tolist()))
        assert all(r == results[0] for r in results)
