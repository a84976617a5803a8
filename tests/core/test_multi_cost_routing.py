"""Unit tests for cost-based multi-view routing (the paper's future work)."""

import numpy as np

from repro.core.adaptive import AdaptiveStorageLayer
from repro.core.config import AdaptiveConfig, RoutingMode
from repro.core.view import VirtualView
from repro.core.view_index import ViewIndex
from repro.vm.constants import VALUES_PER_PAGE

from ..conftest import build_column, reference_rows


def banded_column(num_pages=32, band=100):
    values = np.repeat(np.arange(num_pages) * band, VALUES_PER_PAGE)
    return build_column(values)


def make_view(column, lo, hi, pages):
    view = VirtualView(column, lo, hi)
    for page in pages:
        view.add_page(page)
    return view


def cost_index(column):
    return ViewIndex(
        column, AdaptiveConfig(max_views=20, mode=RoutingMode.MULTI_COST)
    )


class TestSelection:
    def test_prefers_cheap_cover_over_fat_single_view(self):
        column = banded_column()
        index = cost_index(column)
        fat = make_view(column, 0, 1000, list(range(20)))  # covers alone, 20 pages
        a = make_view(column, 0, 500, [0, 1])
        b = make_view(column, 400, 1000, [2, 3])
        for view in (fat, a, b):
            index.insert(view)
        selected = index.get_optimal_views(100, 900)
        assert set(selected) == {a, b}

    def test_prefers_single_view_when_cheaper(self):
        column = banded_column()
        index = cost_index(column)
        lean = make_view(column, 0, 1000, [0])
        a = make_view(column, 0, 500, [1, 2, 3])
        b = make_view(column, 400, 1000, [4, 5, 6])
        for view in (lean, a, b):
            index.insert(view)
        selected = index.get_optimal_views(100, 900)
        assert selected == [lean]

    def test_shared_pages_counted_once_against_single_view(self):
        column = banded_column()
        index = cost_index(column)
        # a and b share pages 1 and 2: their cover scans 4 distinct pages,
        # cheaper than the 7-page single view even though each member
        # alone looks mediocre
        a = make_view(column, 0, 500, [0, 1, 2])
        b = make_view(column, 400, 1000, [1, 2, 3])
        single = make_view(column, 0, 1000, [4, 5, 6, 7, 8, 9, 10])
        for view in (a, b, single):
            index.insert(view)
        selected = index.get_optimal_views(100, 900)
        assert set(selected) == {a, b}

    def test_gap_falls_back_to_single_mode(self):
        column = banded_column()
        index = cost_index(column)
        index.insert(make_view(column, 0, 300, [0]))
        index.insert(make_view(column, 600, 1000, [1]))
        selected = index.get_optimal_views(100, 900)
        assert selected == [index.full_view]

    def test_no_partials_falls_back(self):
        column = banded_column()
        index = cost_index(column)
        assert index.get_optimal_views(0, 10) == [index.full_view]

    def test_greedy_picks_lowest_cost_per_coverage(self):
        column = banded_column()
        index = cost_index(column)
        # both start at 0; expensive reaches further but costs much more
        # per covered unit
        cheap = make_view(column, 0, 600, [0])
        expensive = make_view(column, 0, 800, list(range(1, 13)))
        tail = make_view(column, 500, 1000, [13])
        for view in (cheap, expensive, tail):
            index.insert(view)
        selected = index.get_optimal_views(0, 1000)
        assert set(selected) == {cheap, tail}


class TestEndToEnd:
    def test_correctness_matches_reference(self):
        column = banded_column()
        layer = AdaptiveStorageLayer(
            column, AdaptiveConfig(max_views=10, mode=RoutingMode.MULTI_COST)
        )
        values = column.values()
        for lo, hi in [(100, 900), (50, 450), (400, 1200), (100, 900)]:
            result = layer.answer_query(lo, hi)
            expected = reference_rows(values, lo, hi)
            assert np.array_equal(np.sort(result.rowids), expected)

    def test_scans_no_more_pages_than_naive_multi(self):
        """On the same view set, cost-based routing never scans more
        distinct pages than take-all-overlapping routing."""
        column = banded_column()
        naive = ViewIndex(column, AdaptiveConfig(mode=RoutingMode.MULTI))
        cost = cost_index(column)
        for index in (naive, cost):
            index.insert(make_view(column, 0, 500, [0, 1]))
            index.insert(make_view(column, 400, 1000, [2, 3]))
            index.insert(make_view(column, 0, 1000, list(range(4, 16))))

        def distinct_pages(views):
            return len({p for v in views for p in v.mapped_fpages().tolist()})

        naive_pages = distinct_pages(naive.get_optimal_views(100, 900))
        cost_pages = distinct_pages(cost.get_optimal_views(100, 900))
        assert cost_pages <= naive_pages
