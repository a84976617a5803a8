"""Unit tests for optimized view creation (coalescing, background thread)."""

import numpy as np
import pytest

from repro.core.creation import (
    BackgroundMapper,
    create_partial_view,
    materialize_pages,
)
from repro.core.view import MapPlan, VirtualView
from repro.vm.cost import MAIN_LANE, MAPPER_LANE
from repro.vm.errors import MapError

from ..conftest import uniform_column


def planned_runs(fpages) -> list[list[int]]:
    """The physical pages of each run a fresh view plans for ``fpages``."""
    view = VirtualView(uniform_column(num_pages=16), 0, 10)
    plan = view.plan_runs(np.asarray(fpages, dtype=np.int64))
    return [
        list(range(start, start + n))
        for start, n in zip(plan.file_pages.tolist(), plan.npages.tolist())
    ]


class TestConsecutiveRuns:
    """Coalescing: one planned run per maximal stretch of consecutive
    physical pages."""

    def test_empty(self):
        assert planned_runs([]) == []

    def test_single_run(self):
        assert planned_runs([3, 4, 5]) == [[3, 4, 5]]

    def test_multiple_runs(self):
        assert planned_runs([1, 2, 5, 6, 7, 10]) == [[1, 2], [5, 6, 7], [10]]

    def test_all_singletons(self):
        assert len(planned_runs([1, 3, 5])) == 3


class TestMaterializePages:
    def test_coalesced_call_count(self):
        col = uniform_column(num_pages=16)
        view = VirtualView(col, 0, 10)
        calls = materialize_pages(view, np.array([1, 2, 3, 8, 9, 14]), coalesce=True)
        assert calls == 3
        assert view.num_pages == 6

    def test_uncoalesced_one_call_per_page(self):
        col = uniform_column(num_pages=16)
        view = VirtualView(col, 0, 10)
        calls = materialize_pages(view, np.array([1, 2, 3]), coalesce=False)
        assert calls == 3

    def test_mmap_counter_matches(self):
        col = uniform_column(num_pages=16)
        view = VirtualView(col, 0, 10)
        before = col.cost.ledger.counter("mmap_calls")
        materialize_pages(view, np.array([1, 2, 3, 8]), coalesce=True)
        assert col.cost.ledger.counter("mmap_calls") == before + 2

    def test_empty_pages_noop(self):
        col = uniform_column(num_pages=16)
        view = VirtualView(col, 0, 10)
        assert materialize_pages(view, np.array([], dtype=np.int64)) == 0

    def test_mappings_correct_either_way(self):
        col = uniform_column(num_pages=16)
        for coalesce in (True, False):
            view = VirtualView(col, 0, 10)
            materialize_pages(view, np.array([2, 3, 9]), coalesce=coalesce)
            for fpage in (2, 3, 9):
                assert col.substrate.mapper.translate(view.vpn_of(fpage)) == (col.file, fpage)


class TestBackgroundMapper:
    def test_maps_on_mapper_lane(self):
        col = uniform_column(num_pages=16)
        cost = col.cost
        bg = BackgroundMapper(cost)
        try:
            view = VirtualView(col, 0, 10)
            main_before = cost.ledger.lane_ns(MAIN_LANE)
            materialize_pages(view, np.array([1, 2, 3]), background=bg)
            assert view.num_pages == 3
            # mmap work landed on the mapper lane, not the main lane
            assert cost.ledger.lane_ns(MAPPER_LANE) > 0
            main_delta = cost.ledger.lane_ns(MAIN_LANE) - main_before
            assert main_delta < cost.params.mmap_syscall_ns
            # the mapping is actually in place (real thread executed it)
            assert col.substrate.mapper.translate(view.vpn_of(2)) == (col.file, 2)
        finally:
            bg.stop()

    def test_flush_waits_for_completion(self):
        col = uniform_column(num_pages=64)
        bg = BackgroundMapper(col.cost)
        try:
            view = VirtualView(col, 0, 10)
            materialize_pages(view, np.arange(64), coalesce=False, background=bg)
            for fpage in range(64):
                assert col.substrate.mapper.translate(view.vpn_of(fpage)) == (col.file, fpage)
        finally:
            bg.stop()

    def test_queue_ops_charged_both_sides(self):
        col = uniform_column(num_pages=16)
        cost = col.cost
        bg = BackgroundMapper(cost)
        try:
            view = VirtualView(col, 0, 10)
            materialize_pages(view, np.array([1, 5, 9]), coalesce=True, background=bg)
            assert cost.ledger.counter("queue_ops") == 6  # 3 pushes + 3 pops
        finally:
            bg.stop()

    def test_stop_is_idempotent(self):
        col = uniform_column(num_pages=4)
        bg = BackgroundMapper(col.cost)
        bg.stop()
        bg.stop()

    def test_thread_failure_surfaces(self):
        col = uniform_column(num_pages=4)
        bg = BackgroundMapper(col.cost)
        try:
            view = VirtualView(col, 0, 10)
            plan = view.plan_runs([2])
            # sabotage: point the run at a page the file does not have
            bad = MapPlan(plan.vpns, np.array([99]), plan.npages)
            bg.submit(view, bad)
            with pytest.raises(MapError):
                bg.flush()
            # the failure is cleared on flush: the thread stays alive
            # and the mapper remains usable for the next view
            bg.submit(view, view.plan_runs([3]))
            bg.flush()
            assert view.contains_page(3)
        finally:
            bg.stop()


class TestCreatePartialView:
    def test_report_contents(self):
        col = uniform_column(num_pages=32, hi=1_000_000)
        full = VirtualView.full_view(col)
        report = create_partial_view(col, [full], 0, 1000, coalesce=True)
        assert report.pages == report.view.num_pages
        assert report.view.lo <= 0 and 1000 <= report.view.hi
        assert report.elapsed_ns > 0
        assert report.mapper_ns == 0  # no background thread
        assert report.main_ns == pytest.approx(report.elapsed_ns)

    def test_overlap_accounting_with_thread(self):
        col = uniform_column(num_pages=32, hi=1_000_000)
        full = VirtualView.full_view(col)
        bg = BackgroundMapper(col.cost)
        try:
            report = create_partial_view(col, [full], 0, 1000, background=bg)
        finally:
            bg.stop()
        assert report.mapper_ns > 0
        assert report.elapsed_ns == pytest.approx(
            max(report.main_ns, report.mapper_ns)
        )
        assert report.elapsed_ns < report.main_ns + report.mapper_ns

    def test_created_view_range_extended(self):
        col = uniform_column(num_pages=32, hi=1_000_000)
        full = VirtualView.full_view(col)
        report = create_partial_view(col, [full], 100_000, 200_000)
        lo, hi = report.view.lo, report.view.hi
        assert lo <= 100_000 and hi >= 200_000
