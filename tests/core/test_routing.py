"""Unit tests for query routing over selected views."""

import numpy as np
import pytest

from repro.core.routing import scan_views
from repro.core.view import VirtualView
from repro.vm.constants import MAX_VALUE, MIN_VALUE, VALUES_PER_PAGE

from ..conftest import build_column, reference_rows, uniform_column


def banded_column(num_pages=10, band=100):
    """Page p holds values in [p*band, p*band + band/2]: fully clustered."""
    pages = []
    rng = np.random.default_rng(1)
    for p in range(num_pages):
        pages.append(rng.integers(p * band, p * band + band // 2, VALUES_PER_PAGE))
    return build_column(np.concatenate(pages))


def view_over(column, lo, hi):
    """A correctly populated partial view for [lo, hi]."""
    view = VirtualView(column, lo, hi)
    for page in column.pages_with_values_in(lo, hi).tolist():
        view.add_page(page)
    return view


class TestScanViewsSingle:
    def test_full_view_answers_anything(self):
        col = uniform_column(num_pages=8)
        full = VirtualView.full_view(col)
        routed = scan_views(col, [full], 100, 5000)
        expected = reference_rows(col.values(), 100, 5000)
        assert np.array_equal(np.sort(routed.rowids), expected)
        assert routed.pages_scanned == 8
        assert routed.views_used == 1

    def test_partial_view_scans_fewer_pages(self):
        col = banded_column()
        view = view_over(col, 200, 399)
        routed = scan_views(col, [view], 200, 399)
        assert routed.pages_scanned < col.num_pages
        expected = reference_rows(col.values(), 200, 399)
        assert np.array_equal(np.sort(routed.rowids), expected)

    def test_views_must_cover_range(self):
        col = banded_column()
        view = view_over(col, 200, 399)
        with pytest.raises(ValueError):
            scan_views(col, [view], 100, 399)

    def test_empty_view_list_rejected(self):
        col = banded_column()
        with pytest.raises(ValueError):
            scan_views(col, [], 0, 10)


class TestScanViewsMulti:
    def test_union_answers_query(self):
        col = banded_column()
        a = view_over(col, 100, 299)
        b = view_over(col, 300, 499)
        routed = scan_views(col, [a, b], 150, 450)
        expected = reference_rows(col.values(), 150, 450)
        assert np.array_equal(np.sort(routed.rowids), expected)
        assert routed.views_used == 2

    def test_shared_pages_scanned_once(self):
        col = banded_column()
        a = view_over(col, 100, 399)
        b = view_over(col, 300, 499)  # overlaps a on pages of [300, 399]
        shared = set(a.mapped_fpages().tolist()) & set(b.mapped_fpages().tolist())
        assert shared, "test requires overlapping views"
        routed = scan_views(col, [a, b], 150, 450)
        total_pages = len(
            set(a.mapped_fpages().tolist()) | set(b.mapped_fpages().tolist())
        )
        assert routed.pages_scanned == total_pages
        # results still correct (no duplicates from double scanning)
        expected = reference_rows(col.values(), 150, 450)
        assert np.array_equal(np.sort(routed.rowids), expected)

    def test_duplicate_scan_would_break_results(self):
        """Negative control: without dedup, shared pages would duplicate
        rows — the bitvector exists for exactly this reason."""
        col = banded_column()
        a = view_over(col, 100, 399)
        b = view_over(col, 300, 499)
        routed = scan_views(col, [a, b], 150, 450)
        assert len(routed.rowids.tolist()) == len(set(routed.rowids.tolist()))


class TestExtendedRange:
    def test_extension_bounded_by_observed_values(self):
        col = banded_column()  # page p: values in [100p, 100p+50)
        full = VirtualView.full_view(col)
        routed = scan_views(col, [full], 210, 240)
        # values below 210 on non-qualifying pages: up to 149 (page 1);
        # page 2 itself qualifies (its low values are < 210 but the page
        # holds qualifying values too, so it does not constrain)
        assert routed.extended_lo <= 210
        assert routed.extended_hi >= 240
        # no value in (extended range) lives outside qualifying pages
        values = col.values()
        in_range = reference_rows(values, routed.extended_lo, routed.extended_hi)
        qualifying = set(routed.qualifying_fpages.tolist())
        pages_of_rows = set((in_range // VALUES_PER_PAGE).tolist())
        assert pages_of_rows <= qualifying

    def test_extension_starts_from_covered_range(self):
        col = banded_column()
        a = view_over(col, 200, 399)
        routed = scan_views(col, [a], 250, 350)
        # extension cannot exceed the view's own covered range
        assert routed.extended_lo >= 200
        assert routed.extended_hi <= 399

    def test_full_view_extension_can_reach_infinity(self):
        """If no values exist outside the query range, the extension
        covers the whole domain."""
        col = build_column(np.full(VALUES_PER_PAGE * 2, 500))
        full = VirtualView.full_view(col)
        routed = scan_views(col, [full], 400, 600)
        assert routed.extended_lo == MIN_VALUE
        assert routed.extended_hi == MAX_VALUE

    def test_multi_view_extension_is_the_evidence_of_non_qualifying_pages(self):
        """Section 2.2 by brute force: l' and u' are taken over the
        non-qualifying pages of all scanned views, each page once."""
        col = banded_column()  # page p: values in [100p, 100p+50)
        a = view_over(col, 100, 449)
        b = view_over(col, 400, 849)
        lo, hi = 310, 520  # pages 1, 2, 6, 7, 8 are scanned and hold no hit
        routed = scan_views(col, [a, b], lo, hi)

        data = col.file.data
        scanned = np.union1d(a.mapped_fpages(), b.mapped_fpages())
        non_qualifying = [
            data[p] for p in scanned if not ((data[p] >= lo) & (data[p] <= hi)).any()
        ]
        assert len(non_qualifying) == 5
        largest_below = max(int(v[v < lo].max()) for v in non_qualifying if (v < lo).any())
        smallest_above = min(int(v[v > hi].min()) for v in non_qualifying if (v > hi).any())
        assert routed.extended_lo == max(a.lo, largest_below + 1)
        assert routed.extended_hi == min(b.hi, smallest_above - 1)
        assert a.lo < routed.extended_lo <= lo and hi <= routed.extended_hi < b.hi

    def test_qualifying_pages_in_scan_order(self):
        col = banded_column()
        full = VirtualView.full_view(col)
        routed = scan_views(col, [full], 210, 440)
        assert routed.qualifying_fpages.tolist() == sorted(
            routed.qualifying_fpages.tolist()
        )


class TestCostAccounting:
    def test_multi_view_charges_bitvector(self):
        col = banded_column()
        a = view_over(col, 100, 299)
        b = view_over(col, 300, 499)
        before = col.mapper.cost.ledger.counter("bitvector_words_scanned")
        scan_views(col, [a, b], 150, 450)
        assert col.mapper.cost.ledger.counter("bitvector_words_scanned") > before

    def test_single_view_skips_bitvector(self):
        col = banded_column()
        full = VirtualView.full_view(col)
        before = col.mapper.cost.ledger.counter("bitvector_words_scanned")
        scan_views(col, [full], 0, 100)
        assert col.mapper.cost.ledger.counter("bitvector_words_scanned") == before
