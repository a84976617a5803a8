"""Unit and property tests for the explicit-index baselines (§3.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    VARIANTS,
    BitmapIndex,
    FullScanBaseline,
    PageVectorIndex,
    VirtualViewIndex,
    ZoneMapIndex,
)
from repro.storage.updates import UpdateBatch, UpdateRecord
from repro.vm.constants import VALUES_PER_PAGE

from ..conftest import reference_rows, uniform_column


def built_index(variant_cls, column, lo=0, hi=200_000):
    index = variant_cls(column, lo, hi)
    index.build()
    return index


def apply_and_log(column, updates):
    batch = UpdateBatch()
    for row, new in updates:
        old = column.write(row, new)
        batch.append(UpdateRecord(row=row, old=old, new=new))
    return batch


class TestRegistry:
    def test_all_four_variants_registered(self):
        assert set(VARIANTS) == {
            "zone_map",
            "bitmap",
            "page_vector",
            "virtual_view",
        }
        assert VARIANTS["zone_map"] is ZoneMapIndex
        assert VARIANTS["virtual_view"] is VirtualViewIndex


@pytest.mark.parametrize("variant_cls", list(VARIANTS.values()), ids=list(VARIANTS))
class TestAllVariants:
    def test_query_matches_reference(self, variant_cls):
        column = uniform_column(num_pages=16)
        index = built_index(variant_cls, column)
        rowids, values = index.query(50_000, 150_000)
        expected = reference_rows(column.values(), 50_000, 150_000)
        assert np.array_equal(np.sort(rowids), expected)

    def test_query_requires_build(self, variant_cls):
        column = uniform_column(num_pages=4)
        index = variant_cls(column, 0, 100)
        with pytest.raises(RuntimeError):
            index.query(0, 10)

    def test_query_outside_indexed_range_rejected(self, variant_cls):
        column = uniform_column(num_pages=4)
        index = built_index(variant_cls, column, 100, 200)
        with pytest.raises(ValueError):
            index.query(50, 150)
        with pytest.raises(ValueError):
            index.query(150, 250)

    def test_inverted_range_rejected(self, variant_cls):
        column = uniform_column(num_pages=4)
        with pytest.raises(ValueError):
            variant_cls(column, 10, 5)

    def test_indexed_pages_counts_qualifying(self, variant_cls):
        column = uniform_column(num_pages=16)
        index = built_index(variant_cls, column)
        expected = column.pages_with_values_in(0, 200_000).size
        assert index.indexed_pages() == expected

    def test_query_after_updates_matches_reference(self, variant_cls):
        column = uniform_column(num_pages=16)
        index = built_index(variant_cls, column)
        rng = np.random.default_rng(3)
        updates = [
            (int(r), int(v))
            for r, v in zip(
                rng.integers(0, column.num_rows, 300),
                rng.integers(0, 1_000_000, 300),
            )
        ]
        index.apply_updates(apply_and_log(column, updates))
        rowids, _ = index.query(0, 200_000)
        expected = reference_rows(column.values(), 0, 200_000)
        assert np.array_equal(np.sort(rowids), expected)

    def test_update_moves_value_into_range(self, variant_cls):
        column = uniform_column(num_pages=8, lo=500_000, hi=900_000)
        index = built_index(variant_cls, column, 0, 100)
        assert index.indexed_pages() == 0
        index.apply_updates(apply_and_log(column, [(3, 50)]))
        rowids, values = index.query(0, 100)
        assert rowids.tolist() == [3]
        assert values.tolist() == [50]


class TestZoneMapSpecifics:
    def test_conservative_after_removal(self):
        """Zone maps only widen: a page whose in-range value was removed
        may still be scanned, but results stay exact."""
        column = uniform_column(num_pages=8, lo=500_000, hi=900_000)
        index = built_index(ZoneMapIndex, column, 0, 100)
        index.apply_updates(apply_and_log(column, [(3, 50)]))
        index.apply_updates(apply_and_log(column, [(3, 600_000)]))
        assert index.indexed_pages() >= 1  # stale but safe
        rowids, _ = index.query(0, 100)
        assert rowids.size == 0  # exactness preserved by the scan filter

    def test_partial_last_page_min_max(self):
        values = np.concatenate(
            [np.full(VALUES_PER_PAGE, 10), np.array([5, 7])]
        )
        from ..conftest import build_column

        column = build_column(values)
        index = built_index(ZoneMapIndex, column, 0, 100)
        # page 1's zone entry must ignore the padding zeros
        assert index._page_min[1] == 5
        assert index._page_max[1] == 7


class TestBitmapSpecifics:
    def test_bit_cleared_when_page_empties(self):
        column = uniform_column(num_pages=8, lo=500_000, hi=900_000)
        index = built_index(BitmapIndex, column, 0, 100)
        index.apply_updates(apply_and_log(column, [(3, 50)]))
        assert index.indexed_pages() == 1
        index.apply_updates(apply_and_log(column, [(3, 600_000)]))
        assert index.indexed_pages() == 0


class TestPageVectorSpecifics:
    def test_removal_scatters_order(self):
        column = uniform_column(num_pages=16)
        index = built_index(PageVectorIndex, column)
        pages_before = list(index._pages)
        victim = pages_before[0]
        # empty the victim page of in-range values
        rows = [victim * VALUES_PER_PAGE + i for i in range(VALUES_PER_PAGE)]
        index.apply_updates(
            apply_and_log(column, [(r, 900_000) for r in rows])
        )
        assert victim not in index._pages
        # swap-with-last: the former last page moved to the front
        if len(pages_before) > 2:
            assert index._pages[0] == pages_before[-1]

    def test_add_is_idempotent(self):
        column = uniform_column(num_pages=8)
        index = built_index(PageVectorIndex, column)
        n = index.indexed_pages()
        index._add(index._pages[0])
        assert index.indexed_pages() == n


class TestVirtualViewSpecifics:
    def test_wraps_a_real_view(self):
        column = uniform_column(num_pages=8)
        index = built_index(VirtualViewIndex, column)
        assert index.view.num_pages == index.indexed_pages()
        assert index.view.lo <= 0 and 200_000 <= index.view.hi

    def test_scan_is_sequential_kind(self):
        column = uniform_column(num_pages=8)
        index = built_index(VirtualViewIndex, column)
        cost = column.cost
        before = cost.ledger.lane_ns()
        index.query(0, 100_000)
        charged = cost.ledger.lane_ns() - before
        pages = index.indexed_pages()
        expected = pages * cost.params.page_scan_ns(VALUES_PER_PAGE, "seq")
        assert charged == pytest.approx(expected, rel=0.01)


class TestFullScanBaseline:
    def test_matches_reference(self):
        column = uniform_column(num_pages=8)
        baseline = FullScanBaseline(column)
        rowids, values, stats = baseline.query(100, 900_000)
        expected = reference_rows(column.values(), 100, 900_000)
        assert np.array_equal(np.sort(rowids), expected)
        assert stats.pages_scanned == 8
        assert stats.sim_ns > 0
        assert stats.result_rows == rowids.size


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 50),
    hi=st.integers(1_000, 900_000),
    updates=st.lists(
        st.tuples(st.integers(0, 8 * VALUES_PER_PAGE - 1), st.integers(0, 999_999)),
        max_size=30,
    ),
)
def test_variants_agree_with_each_other(seed, hi, updates):
    """All four variants return identical results for any workload."""
    results = []
    for variant_cls in VARIANTS.values():
        column = uniform_column(num_pages=8, seed=seed)
        index = built_index(variant_cls, column, 0, hi)
        index.apply_updates(apply_and_log(column, updates))
        rowids, _ = index.query(0, hi // 2)
        results.append(sorted(rowids.tolist()))
    assert all(r == results[0] for r in results)
