"""Unit tests for column histograms and selectivity estimation."""

import numpy as np
import pytest

from repro.storage.statistics import ColumnHistogram, SelectivityEstimate
from repro.vm.constants import VALUES_PER_PAGE

from ..conftest import build_column, uniform_column


class TestColumnHistogram:
    def test_uniform_estimates_are_accurate(self):
        column = uniform_column(num_pages=32, hi=1_000_000, seed=1)
        histogram = ColumnHistogram(column, buckets=64)
        values = column.values()
        for lo, hi in [(0, 100_000), (250_000, 750_000), (900_000, 1_000_000)]:
            actual = int(((values >= lo) & (values <= hi)).sum())
            estimated = histogram.estimate_rows(lo, hi)
            assert estimated == pytest.approx(actual, rel=0.10)

    def test_disjoint_range_estimates_zero(self):
        column = uniform_column(num_pages=4, hi=1000)
        histogram = ColumnHistogram(column)
        assert histogram.estimate_rows(5_000, 9_000) == 0.0
        assert histogram.estimate_rows(10, 5) == 0.0

    def test_full_range_estimates_all_rows(self):
        column = uniform_column(num_pages=4, hi=1000)
        histogram = ColumnHistogram(column)
        estimate = histogram.estimate(0, 1000)
        assert estimate.rows == pytest.approx(column.num_rows, rel=0.01)
        assert estimate.fraction == pytest.approx(1.0, rel=0.01)

    def test_constant_column(self):
        column = build_column(np.full(VALUES_PER_PAGE * 2, 7))
        histogram = ColumnHistogram(column)
        assert histogram.estimate_rows(7, 7) == pytest.approx(
            column.num_rows
        )
        assert histogram.estimate_rows(8, 9) == 0.0

    def test_page_estimate_uniform(self):
        """On uniform data the binomial page formula is near-exact."""
        column = uniform_column(num_pages=64, hi=1_000_000, seed=2)
        histogram = ColumnHistogram(column)
        lo, hi = 0, 10_000
        estimate = histogram.estimate(lo, hi)
        actual_pages = column.pages_with_values_in(lo, hi).size
        assert estimate.pages == pytest.approx(actual_pages, rel=0.25)

    def test_page_estimate_capped_at_column_size(self):
        column = uniform_column(num_pages=8, hi=100)
        estimate = ColumnHistogram(column).estimate(0, 100)
        assert estimate.pages == column.num_pages

    def test_empty_column_estimates_zero_rows(self):
        column = build_column(np.array([], dtype=np.int64))
        estimate = ColumnHistogram(column).estimate(-10, 10)
        assert (estimate.rows, estimate.fraction, estimate.pages) == (0.0, 0.0, 0.0)

    def test_bucket_validation(self):
        column = uniform_column(num_pages=2)
        with pytest.raises(ValueError):
            ColumnHistogram(column, buckets=0)

    def test_describe(self):
        estimate = SelectivityEstimate(rows=1234.0, fraction=0.05, pages=17.0)
        text = estimate.describe()
        assert "1,234 rows" in text
        assert "5.00%" in text
        assert "17 pages" in text
