"""Unit tests for the query sequence generators."""

import pytest

from repro.workloads.queries import (
    QuerySequence,
    RangeQuery,
    fixed_selectivity,
    point_queries,
    selectivity_sweep,
)


class TestRangeQuery:
    def test_width(self):
        assert RangeQuery(10, 30).width == 20

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            RangeQuery(10, 5)


class TestQuerySequence:
    def test_container_protocol(self):
        seq = QuerySequence([RangeQuery(0, 1), RangeQuery(2, 3)])
        assert len(seq) == 2
        assert seq[1].lo == 2
        assert [q.hi for q in seq] == [1, 3]


class TestSelectivitySweep:
    def test_paper_defaults(self):
        seq = selectivity_sweep()
        assert len(seq) == 250
        widths = sorted(q.width for q in seq)
        assert widths[0] == pytest.approx(5_000, rel=0.01)
        assert widths[-1] == pytest.approx(50_000_000, rel=0.01)

    def test_widths_step_geometrically(self):
        seq = selectivity_sweep(num_queries=5, shuffle=False)
        widths = [q.width for q in seq]
        assert widths == sorted(widths, reverse=True)
        ratios = [widths[i] / widths[i + 1] for i in range(4)]
        assert max(ratios) / min(ratios) < 1.1

    def test_queries_fit_domain(self):
        seq = selectivity_sweep(domain=(0, 10**8), seed=5)
        for q in seq:
            assert 0 <= q.lo <= q.hi <= 10**8

    def test_shuffle_is_seeded(self):
        a = selectivity_sweep(seed=4)
        b = selectivity_sweep(seed=4)
        c = selectivity_sweep(seed=5)
        assert [(q.lo, q.hi) for q in a] == [(q.lo, q.hi) for q in b]
        assert [(q.lo, q.hi) for q in a] != [(q.lo, q.hi) for q in c]

    def test_unshuffled_order_descends(self):
        seq = selectivity_sweep(num_queries=10, shuffle=False)
        widths = [q.width for q in seq]
        assert widths == sorted(widths, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            selectivity_sweep(num_queries=0)
        with pytest.raises(ValueError):
            selectivity_sweep(width_start=10, width_end=100)
        with pytest.raises(ValueError):
            selectivity_sweep(width_start=10**9, domain=(0, 10**8))


class TestFixedSelectivity:
    def test_constant_width(self):
        seq = fixed_selectivity(0.01, num_queries=50, domain=(0, 10**8))
        widths = {q.width for q in seq}
        assert widths == {10**6}

    def test_positions_vary(self):
        seq = fixed_selectivity(0.01, num_queries=50, seed=1)
        assert len({q.lo for q in seq}) > 10

    def test_fits_domain(self):
        seq = fixed_selectivity(0.10, num_queries=100, domain=(0, 10**8), seed=2)
        for q in seq:
            assert 0 <= q.lo <= q.hi <= 10**8

    def test_validation(self):
        with pytest.raises(ValueError):
            fixed_selectivity(0.0)
        with pytest.raises(ValueError):
            fixed_selectivity(1.5)
        with pytest.raises(ValueError):
            fixed_selectivity(0.5, num_queries=0)

    def test_full_selectivity(self):
        seq = fixed_selectivity(1.0, num_queries=3, domain=(0, 1000))
        assert all(q.width == 1000 for q in seq)


class TestPointQueries:
    def test_degenerate_ranges(self):
        seq = point_queries(20, domain=(0, 100), seed=0)
        assert len(seq) == 20
        assert all(q.lo == q.hi for q in seq)
        assert all(0 <= q.lo <= 100 for q in seq)
