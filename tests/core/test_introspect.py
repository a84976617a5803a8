"""Unit tests for view-index introspection."""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveStorageLayer
from repro.core.config import AdaptiveConfig
from repro.core.introspect import (
    _value_coverage,
    inspect_view_index,
    render_index_report,
)
from repro.core.view import VirtualView
from repro.core.view_index import ViewIndex
from repro.vm.constants import VALUES_PER_PAGE

from ..conftest import build_column


def banded_column(num_pages=16, band=1000):
    values = np.repeat(np.arange(num_pages) * band, VALUES_PER_PAGE)
    return build_column(values)


def view_over(column, lo, hi):
    view = VirtualView(column, lo, hi)
    for page in column.pages_with_values_in(lo, hi).tolist():
        view.add_page(page)
    return view


@pytest.fixture
def index():
    column = banded_column()
    idx = ViewIndex(column, AdaptiveConfig(max_views=10))
    idx.insert(view_over(column, 1000, 3999))
    idx.insert(view_over(column, 3000, 5999))
    return idx


class TestInspect:
    def test_view_summaries(self, index):
        report = inspect_view_index(index)
        assert len(report.views) == 2
        first = report.views[0]
        assert (first.lo, first.hi) == (1000, 3999)
        assert first.pages == 3
        assert first.capacity == 16
        assert first.fill_fraction == pytest.approx(3 / 16)

    def test_page_coverage(self, index):
        report = inspect_view_index(index)
        # pages 1..5 are indexed by at least one view
        assert report.page_coverage == pytest.approx(5 / 16)

    def test_value_coverage(self, index):
        report = inspect_view_index(index)
        # column values span [0, 15000]; views cover [1000, 5999]
        assert report.value_coverage == pytest.approx(5000 / 15001, rel=0.01)

    def test_overlaps(self, index):
        report = inspect_view_index(index)
        assert report.overlaps == {(0, 1): 1}  # page 3 is shared

    def test_virtual_amplification(self, index):
        report = inspect_view_index(index)
        # full view (16) + 2 reservations (16 each) over 16 physical
        assert report.virtual_amplification == pytest.approx(3.0)

    def test_maps_lines_positive(self, index):
        report = inspect_view_index(index)
        assert report.maps_lines >= 3

    def test_maps_lines_consistent_with_maintenance_stats(self):
        """Regression: the report and MaintenanceStats must count the
        same maps file (one line per VMA, via maps_line_count)."""
        from repro.bench.harness import make_update_batch
        from repro.vm.procmaps import maps_line_count

        column = banded_column()
        layer = AdaptiveStorageLayer(column, AdaptiveConfig(max_views=5))
        for band in range(4):
            layer.answer_query(band * 1000, band * 1000 + 2500)
        batch = make_update_batch(column, 8, 0, 15_000, seed=3)
        lines_at_parse_time = maps_line_count(column.substrate.mapper.address_space)
        stats = layer.apply_updates(batch)
        assert stats.maps_lines == lines_at_parse_time
        report = inspect_view_index(layer.view_index)
        assert report.maps_lines == maps_line_count(column.substrate.mapper.address_space)
        layer.shutdown()

    def test_empty_index(self):
        column = banded_column()
        report = inspect_view_index(ViewIndex(column, AdaptiveConfig()))
        assert report.views == []
        assert report.page_coverage == 0.0
        assert report.value_coverage == 0.0

    def test_generation_stop_reflected(self):
        column = banded_column()
        layer = AdaptiveStorageLayer(column, AdaptiveConfig(max_views=1))
        layer.answer_query(1000, 1999)
        report = inspect_view_index(layer.view_index)
        assert report.generation_stopped


class TestValueCoverage:
    def test_disjoint_intervals(self):
        column = banded_column()
        views = [view_over(column, 0, 99), view_over(column, 200, 299)]
        assert _value_coverage(views, 0, 999) == pytest.approx(200 / 1000)

    def test_overlapping_intervals_not_double_counted(self):
        column = banded_column()
        views = [view_over(column, 0, 499), view_over(column, 300, 799)]
        assert _value_coverage(views, 0, 999) == pytest.approx(800 / 1000)

    def test_no_views(self):
        assert _value_coverage([], 0, 10) == 0.0

    def test_full_cover_capped_at_one(self):
        column = banded_column()
        views = [view_over(column, -10, 2000)]
        assert _value_coverage(views, 0, 999) == 1.0


class TestRender:
    def test_render_contains_key_facts(self, index):
        text = render_index_report(inspect_view_index(index))
        assert "partial views        : 2" in text
        assert "view[0]" in text
        assert "shared pages" in text

    def test_render_empty(self):
        column = banded_column()
        text = render_index_report(
            inspect_view_index(ViewIndex(column, AdaptiveConfig()))
        )
        assert "partial views        : 0" in text

    def test_recent_decisions_in_report(self):
        column = banded_column()
        layer = AdaptiveStorageLayer(column, AdaptiveConfig(max_views=5))
        layer.answer_query(3000, 3999)
        layer.answer_query(3000, 3999)
        report = inspect_view_index(layer.view_index)
        assert len(report.recent_decisions) == 2
        text = render_index_report(report)
        assert "recent decisions" in text
        assert "inserted" in text
        assert "discarded_subset" in text

    def test_recent_decisions_capped_at_five(self):
        column = banded_column()
        layer = AdaptiveStorageLayer(column, AdaptiveConfig(max_views=20))
        for band in range(8):
            layer.answer_query(band * 1000, band * 1000 + 500)
        report = inspect_view_index(layer.view_index)
        assert len(report.recent_decisions) == 5
