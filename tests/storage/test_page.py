"""Unit and property tests for page-level scan-and-filter."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.page import clamp_range, scan_and_filter
from repro.vm.constants import MAX_VALUE, MIN_VALUE, VALUES_PER_PAGE
from repro.vm.cost import CostModel
from repro.vm.physical import PhysicalMemory


def make_file(page_values: np.ndarray):
    memory = PhysicalMemory(capacity_bytes=64 * 1024 * 1024, cost=CostModel())
    f = memory.create_file("f", 1)
    f.data[0, : page_values.size] = page_values
    return f


class TestScanAndFilter:
    def test_basic_filter(self):
        f = make_file(np.array([5, 10, 15, 20, 25]))
        result = scan_and_filter(f, 0, 10, 20, valid_count=5)
        assert result.rowids.tolist() == [1, 2, 3]
        assert result.values.tolist() == [10, 15, 20]
        assert result.max_below == 5
        assert result.min_above == 25

    def test_rowids_derive_from_page_id(self):
        f = make_file(np.array([1, 2, 3]))
        f.set_page_id(0, 7)
        result = scan_and_filter(f, 0, 0, 100, valid_count=3)
        assert result.rowids.tolist() == [
            7 * VALUES_PER_PAGE,
            7 * VALUES_PER_PAGE + 1,
            7 * VALUES_PER_PAGE + 2,
        ]

    def test_empty_result_page(self):
        f = make_file(np.array([1, 2, 100, 200]))
        result = scan_and_filter(f, 0, 10, 50, valid_count=4)
        assert result.empty
        assert result.max_below == 2
        assert result.min_above == 100

    def test_no_values_below(self):
        f = make_file(np.array([50, 60]))
        result = scan_and_filter(f, 0, 40, 45, valid_count=2)
        assert result.max_below is None
        assert result.min_above == 50

    def test_no_values_above(self):
        f = make_file(np.array([10, 20]))
        result = scan_and_filter(f, 0, 30, 40, valid_count=2)
        assert result.max_below == 20
        assert result.min_above is None

    def test_valid_count_limits_scan(self):
        f = make_file(np.array([5, 5, 5]))
        # padding zeros beyond valid_count must be invisible
        result = scan_and_filter(f, 0, 0, 10, valid_count=3)
        assert result.rowids.size == 3
        assert result.max_below is None

    def test_cost_charged(self):
        f = make_file(np.array([1]))
        cost = CostModel()
        scan_and_filter(f, 0, 0, 10, valid_count=1, cost=cost, access_kind="random")
        assert cost.ledger.counter("pages_scanned") == 1
        assert cost.ledger.counter("values_scanned") == 1

    def test_boundaries_inclusive(self):
        f = make_file(np.array([10, 20, 30]))
        result = scan_and_filter(f, 0, 10, 30, valid_count=3)
        assert result.rowids.size == 3


class TestClampRange:
    def test_clamps_to_int64(self):
        lo, hi = clamp_range(-(2**70), 2**70)
        assert lo == MIN_VALUE
        assert hi == MAX_VALUE

    def test_leaves_normal_ranges(self):
        assert clamp_range(5, 10) == (5, 10)


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=VALUES_PER_PAGE),
    lo=st.integers(-(2**40), 2**40),
    width=st.integers(0, 2**40),
)
def test_scan_matches_reference(values, lo, width):
    """scan_and_filter agrees with a naive reference on any page."""
    hi = lo + width
    arr = np.array(values, dtype=np.int64)
    f = make_file(arr)
    result = scan_and_filter(f, 0, lo, hi, valid_count=arr.size)

    expected_slots = [i for i, v in enumerate(values) if lo <= v <= hi]
    assert result.rowids.tolist() == expected_slots
    assert result.values.tolist() == [values[i] for i in expected_slots]

    below = [v for v in values if v < lo]
    above = [v for v in values if v > hi]
    assert result.max_below == (max(below) if below else None)
    assert result.min_above == (min(above) if above else None)
    assert result.empty == (not expected_slots)
