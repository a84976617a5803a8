"""Unit and property tests for batch view alignment (Sections 2.4/2.5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.maintenance import align_partial_views, rebuild_partial_views
from repro.core.view import VirtualView
from repro.storage.updates import UpdateBatch, UpdateRecord
from repro.vm.constants import VALUES_PER_PAGE
from repro.vm.cost import MAIN_LANE, MAPPER_LANE

from ..conftest import build_column, reference_rows


def banded_column(num_pages=12, band=1000):
    """Page p holds the constant value p * band (fully clustered)."""
    values = np.repeat(np.arange(num_pages) * band, VALUES_PER_PAGE)
    return build_column(values)


def aligned_view(column, lo, hi):
    view = VirtualView(column, lo, hi)
    for page in column.pages_with_values_in(lo, hi).tolist():
        view.add_page(page)
    return view


def apply_and_log(column, updates):
    """Write updates through the column and build the batch."""
    batch = UpdateBatch()
    for row, new in updates:
        old = column.write(row, new)
        batch.append(UpdateRecord(row=row, old=old, new=new))
    return batch


def check_invariant(column, views):
    for view in views:
        required = set(column.pages_with_values_in(view.lo, view.hi).tolist())
        mapped = set(view.mapped_fpages().tolist())
        assert required <= mapped


class TestCaseOne:
    """Case 1: page not indexed, updates bring a value into range."""

    def test_page_added(self):
        col = banded_column()
        view = aligned_view(col, 3000, 3999)  # indexes only page 3
        assert view.mapped_fpages().tolist() == [3]
        batch = apply_and_log(col, [(0, 3500)])  # page 0 now holds 3500
        stats = align_partial_views(col, [view], batch)
        assert stats.pages_added == 1
        assert view.contains_page(0)
        check_invariant(col, [view])

    def test_irrelevant_update_ignored(self):
        col = banded_column()
        view = aligned_view(col, 3000, 3999)
        batch = apply_and_log(col, [(0, 7777)])  # outside [3000, 3999]
        stats = align_partial_views(col, [view], batch)
        assert stats.pages_added == 0 and stats.pages_removed == 0
        assert not view.contains_page(0)


class TestCaseTwo:
    """Case 2: page indexed; decide whether it may be removed."""

    def test_new_value_in_range_keeps_page(self):
        col = banded_column()
        view = aligned_view(col, 3000, 3999)
        row = 3 * VALUES_PER_PAGE
        batch = apply_and_log(col, [(row, 3500)])
        stats = align_partial_views(col, [view], batch)
        assert stats.pages_removed == 0
        assert view.contains_page(3)

    def test_old_outside_range_keeps_page_without_scan(self):
        """Updates that never touched the view's range cannot deindex."""
        col = banded_column()
        view = aligned_view(col, 3000, 3999)
        view.add_page(5)  # pretend page 5 also holds an in-range value
        col.write(5 * VALUES_PER_PAGE, 3500)  # make that true
        row = 5 * VALUES_PER_PAGE + 1
        batch = apply_and_log(col, [(row, 9999)])  # old=5000, new=9999
        before = col.mapper.cost.ledger.counter("pages_scanned")
        stats = align_partial_views(col, [view], batch)
        assert stats.pages_removed == 0
        assert view.contains_page(5)
        # no full page scan was needed for the decision
        assert col.mapper.cost.ledger.counter("pages_scanned") == before

    def test_last_in_range_value_removed_deindexes_page(self):
        col = banded_column()
        view = aligned_view(col, 3000, 3999)
        # move ALL values of page 3 out of the range
        rows = [3 * VALUES_PER_PAGE + i for i in range(VALUES_PER_PAGE)]
        batch = apply_and_log(col, [(r, 50) for r in rows])
        stats = align_partial_views(col, [view], batch)
        assert stats.pages_removed == 1
        assert not view.contains_page(3)
        check_invariant(col, [view])

    def test_remaining_in_range_value_keeps_page(self):
        col = banded_column()
        view = aligned_view(col, 3000, 3999)
        # overwrite one in-range value; 510 others remain in range
        row = 3 * VALUES_PER_PAGE
        batch = apply_and_log(col, [(row, 50)])
        before = col.mapper.cost.ledger.counter("pages_scanned")
        stats = align_partial_views(col, [view], batch)
        assert stats.pages_removed == 0
        assert view.contains_page(3)
        # the decision required a full page scan
        assert col.mapper.cost.ledger.counter("pages_scanned") == before + 1

    def test_removal_then_read_reuses_slot(self):
        col = banded_column()
        view = aligned_view(col, 3000, 3999)
        rows = [3 * VALUES_PER_PAGE + i for i in range(VALUES_PER_PAGE)]
        batch = apply_and_log(col, [(r, 50) for r in rows])
        align_partial_views(col, [view], batch)
        # bring page 5 into range: the freed slot is reused
        batch2 = apply_and_log(col, [(5 * VALUES_PER_PAGE, 3100)])
        stats = align_partial_views(col, [view], batch2)
        assert stats.pages_added == 1
        assert view.contains_page(5)


class TestBatchSemantics:
    def test_compaction_net_noop(self):
        """A value leaving and re-entering the range in one batch must
        leave the view unchanged."""
        col = banded_column()
        view = aligned_view(col, 3000, 3999)
        row = 3 * VALUES_PER_PAGE
        batch = apply_and_log(col, [(row, 50), (row, 3000)])
        stats = align_partial_views(col, [view], batch)
        assert stats.pages_added == 0 and stats.pages_removed == 0
        assert view.contains_page(3)
        assert stats.compacted_size == 1

    def test_multiple_views_aligned_independently(self):
        col = banded_column()
        a = aligned_view(col, 3000, 3999)
        b = aligned_view(col, 5000, 5999)
        batch = apply_and_log(col, [(0, 3500), (VALUES_PER_PAGE, 5500)])
        stats = align_partial_views(col, [a, b], batch)
        assert stats.pages_added == 2
        assert a.contains_page(0) and not a.contains_page(1)
        assert b.contains_page(1) and not b.contains_page(0)
        check_invariant(col, [a, b])

    def test_full_views_skipped(self):
        col = banded_column()
        full = VirtualView.full_view(col)
        batch = apply_and_log(col, [(0, 1)])
        stats = align_partial_views(col, [full], batch)
        assert stats.pages_added == 0 and stats.pages_removed == 0

    def test_empty_batch(self):
        col = banded_column()
        view = aligned_view(col, 3000, 3999)
        stats = align_partial_views(col, [view], UpdateBatch())
        assert stats.batch_size == 0
        assert stats.maps_lines > 0  # the maps file is still parsed once

    def test_stats_timing_split(self):
        col = banded_column()
        view = aligned_view(col, 3000, 3999)
        batch = apply_and_log(col, [(0, 3500)])
        stats = align_partial_views(col, [view], batch)
        assert stats.parse_ns > 0
        assert stats.update_ns > 0
        assert stats.total_ns == pytest.approx(stats.parse_ns + stats.update_ns)

    def test_alignment_charges_only_the_lane_it_was_given(self):
        """Run on the mapper lane, alignment leaves the main lane alone —
        the per-pair snapshot lookup included — and the mapper lane ends
        up with what the main lane is charged otherwise."""
        charged = {}
        for lane in (MAIN_LANE, MAPPER_LANE):
            col = banded_column()
            views = [aligned_view(col, 3000, 3999), aligned_view(col, 5000, 6999)]
            rows = [3 * VALUES_PER_PAGE + i for i in range(VALUES_PER_PAGE)]
            batch = apply_and_log(col, [(r, 50) for r in rows] + [(0, 5500)])
            before = col.cost.ledger.lanes()
            stats = align_partial_views(col, views, batch, lane=lane)
            after = col.cost.ledger.lanes()
            assert (stats.pages_added, stats.pages_removed) == (1, 1)
            charged[lane] = after[lane] - before.get(lane, 0.0)
            if lane == MAPPER_LANE:
                assert after[MAIN_LANE] == before[MAIN_LANE]
        assert charged[MAPPER_LANE] == pytest.approx(charged[MAIN_LANE])

    def test_queries_correct_after_alignment(self):
        col = banded_column()
        view = aligned_view(col, 3000, 3999)
        rng = np.random.default_rng(5)
        updates = [
            (int(r), int(v))
            for r, v in zip(
                rng.integers(0, col.num_rows, 200),
                rng.integers(0, 12_000, 200),
            )
        ]
        batch = apply_and_log(col, updates)
        align_partial_views(col, [view], batch)
        check_invariant(col, [view])
        # scanning the view answers [3000, 3999] exactly
        from repro.core.scan import batch_scan

        result = batch_scan(col, view.mapped_fpages(), 3000, 3999, charge=False)
        expected = reference_rows(col.values(), 3000, 3999)
        assert np.array_equal(np.sort(result.rowids), expected)


class TestRebuild:
    def test_rebuild_produces_aligned_views(self):
        col = banded_column()
        full = VirtualView.full_view(col)
        ranges = [(1000, 1999), (4000, 6999)]
        views, elapsed = rebuild_partial_views(col, full, ranges)
        assert elapsed > 0
        assert [v.value_range for v in views] == ranges
        check_invariant(col, views)

    def test_rebuild_equals_incremental_alignment(self):
        """After any batch, rebuilding and incremental alignment must
        index the same pages per range."""
        col_inc = banded_column()
        col_rb = banded_column()
        ranges = [(2000, 2999), (5000, 7999)]
        views = [aligned_view(col_inc, lo, hi) for lo, hi in ranges]

        rng = np.random.default_rng(9)
        updates = [
            (int(r), int(v))
            for r, v in zip(
                rng.integers(0, col_inc.num_rows, 300),
                rng.integers(0, 12_000, 300),
            )
        ]
        batch = apply_and_log(col_inc, updates)
        for row, new in updates:
            col_rb.write(row, new)
        align_partial_views(col_inc, views, batch)
        full_rb = VirtualView.full_view(col_rb)
        rebuilt, _ = rebuild_partial_views(col_rb, full_rb, ranges)

        for incremental, fresh in zip(views, rebuilt):
            required = set(
                col_rb.pages_with_values_in(fresh.lo, fresh.hi).tolist()
            )
            assert set(fresh.mapped_fpages().tolist()) == required
            # incremental view may keep stale extra pages, but never
            # misses a required one
            assert required <= set(incremental.mapped_fpages().tolist())


@settings(max_examples=20, deadline=None)
@given(
    updates=st.lists(
        st.tuples(st.integers(0, 12 * VALUES_PER_PAGE - 1), st.integers(0, 12_000)),
        min_size=1,
        max_size=60,
    ),
    ranges=st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(1, 3_000)),
        min_size=1,
        max_size=3,
    ),
)
def test_alignment_invariant_property(updates, ranges):
    """After any update batch, every view still maps every page holding
    an in-range value (the coverage invariant)."""
    col = banded_column()
    views = [aligned_view(col, lo, lo + width) for lo, width in ranges]
    batch = apply_and_log(col, updates)
    align_partial_views(col, views, batch)
    check_invariant(col, views)
