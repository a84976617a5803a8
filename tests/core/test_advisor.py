"""Unit tests for the offline view advisor."""

import numpy as np
import pytest

from repro.core.advisor import ViewAdvisor
from repro.core.scan import batch_scan
from repro.vm.constants import VALUES_PER_PAGE

from ..conftest import build_column, reference_rows


def clustered_column(num_pages=32, band=1000):
    return build_column(np.repeat(np.arange(num_pages) * band, VALUES_PER_PAGE))


class TestMerge:
    def test_overlapping_ranges_merge(self):
        clusters = ViewAdvisor._merge([(0, 10), (5, 20), (40, 50)])
        assert clusters == [(0, 20, 2), (40, 50, 1)]

    def test_touching_ranges_merge(self):
        clusters = ViewAdvisor._merge([(0, 10), (11, 20)])
        assert clusters == [(0, 20, 2)]

    def test_disjoint_stay_separate(self):
        clusters = ViewAdvisor._merge([(0, 10), (12, 20)])
        assert len(clusters) == 2

    def test_contained_range(self):
        clusters = ViewAdvisor._merge([(0, 100), (10, 20)])
        assert clusters == [(0, 100, 2)]


class TestRecommend:
    def test_hot_cluster_ranks_first(self):
        column = clustered_column()
        advisor = ViewAdvisor(column)
        queries = [(3000, 3999)] * 10 + [(20_000, 20_999)]
        recommendations = advisor.recommend(queries, max_views=2)
        assert recommendations[0].lo == 3000
        assert recommendations[0].queries_covered == 10
        assert recommendations[0].benefit_pages > recommendations[1].benefit_pages

    def test_max_views_respected(self):
        column = clustered_column()
        advisor = ViewAdvisor(column)
        queries = [(i * 2000, i * 2000 + 100) for i in range(8)]
        assert len(advisor.recommend(queries, max_views=3)) == 3

    def test_empty_workload(self):
        advisor = ViewAdvisor(clustered_column())
        assert advisor.recommend([]) == []

    def test_invalid_max_views(self):
        advisor = ViewAdvisor(clustered_column())
        with pytest.raises(ValueError):
            advisor.recommend([(0, 1)], max_views=0)

    def test_wide_range_has_low_benefit(self):
        column = clustered_column()
        advisor = ViewAdvisor(column)
        narrow = advisor.recommend([(3000, 3999)], max_views=1)[0]
        wide = advisor.recommend([(0, 32_000)], max_views=1)[0]
        assert narrow.benefit_pages > wide.benefit_pages


class TestMaterialize:
    def test_materialized_views_are_correct(self):
        column = clustered_column()
        advisor = ViewAdvisor(column)
        recommendations = advisor.recommend(
            [(3000, 3999), (3100, 3500), (9000, 9999)], max_views=2
        )
        views = advisor.materialize(recommendations)
        values = column.values()
        for view in views:
            result = batch_scan(
                column, view.mapped_fpages(), view.lo, view.hi, charge=False
            )
            expected = reference_rows(values, view.lo, view.hi)
            assert np.array_equal(np.sort(result.rowids), expected)

    def test_advised_views_speed_up_repetitive_workload(self):
        """The advisor's static views beat full scans on the workload
        they were advised for (the offline counterpart of Figure 4)."""
        from repro.baselines.full_scan import FullScanBaseline

        workload = [(3000, 3999)] * 5 + [(9000, 9999)] * 5
        column_static = clustered_column()
        advisor = ViewAdvisor(column_static)
        views = advisor.materialize(advisor.recommend(workload, max_views=2))
        by_range = {(v.lo, v.hi): v for v in views}

        cost = column_static.cost
        with cost.region() as static_region:
            for lo, hi in workload:
                view = next(
                    v for v in views if v.lo <= lo and v.hi >= hi
                )
                batch_scan(column_static, view.mapped_fpages(), lo, hi)

        column_full = clustered_column()
        baseline = FullScanBaseline(column_full)
        with column_full.cost.region() as full_region:
            for lo, hi in workload:
                baseline.query(lo, hi)

        assert static_region.elapsed_ns() < full_region.elapsed_ns()
