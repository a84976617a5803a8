"""Unit tests for virtual views."""

import numpy as np
import pytest

from repro.core.creation import materialize_pages
from repro.core.view import MapPlan, VirtualView
from repro.vm.constants import MAX_VALUE, MIN_VALUE

from ..conftest import uniform_column
from .creation_oracle import consecutive_runs, plan_run


def runs_of(plan: MapPlan) -> list[tuple[int, int]]:
    """``(first physical page, pages)`` of every planned run."""
    return list(zip(plan.file_pages.tolist(), plan.npages.tolist()))


@pytest.fixture
def column():
    return uniform_column(num_pages=16)


class TestFullView:
    def test_maps_everything(self, column):
        view = VirtualView.full_view(column)
        assert view.is_full_view
        assert view.num_pages == 16
        assert (view.lo, view.hi) == (MIN_VALUE, MAX_VALUE)
        assert view.mapped_fpages().tolist() == list(range(16))
        assert view.contains_page(0) and view.contains_page(15)
        assert not view.contains_page(16)

    def test_single_mmap_call(self, column):
        before = column.cost.ledger.counter("mmap_calls")
        VirtualView.full_view(column)
        assert column.cost.ledger.counter("mmap_calls") == before + 1

    def test_mutations_rejected(self, column):
        view = VirtualView.full_view(column)
        with pytest.raises(RuntimeError):
            view.add_page(0)
        with pytest.raises(RuntimeError):
            view.remove_page(0)
        with pytest.raises(RuntimeError):
            view.plan_runs([0])


class TestPartialView:
    def test_starts_empty(self, column):
        view = VirtualView(column, 10, 20)
        assert view.num_pages == 0
        assert (view.lo, view.hi) == (10, 20)
        assert view.mapped_fpages().size == 0

    def test_inverted_range_rejected(self, column):
        with pytest.raises(ValueError):
            VirtualView(column, 20, 10)

    def test_reservation_spans_whole_column(self, column):
        view = VirtualView(column, 0, 1)
        asp = column.substrate.address_space
        assert asp.find_vma(view.base_vpn) is not None
        assert asp.find_vma(view.base_vpn + column.num_pages - 1) is not None
        assert asp.translate(view.base_vpn) is None  # anonymous

    def test_add_page_maps_and_translates(self, column):
        view = VirtualView(column, 0, 100)
        view.add_page(7)
        assert view.contains_page(7)
        assert view.num_pages == 1
        assert column.substrate.address_space.translate(view.vpn_of(7)) == (column.file, 7)

    def test_add_duplicate_rejected(self, column):
        view = VirtualView(column, 0, 100)
        view.add_page(7)
        with pytest.raises(ValueError):
            view.add_page(7)

    def test_add_bad_page_rejected(self, column):
        view = VirtualView(column, 0, 100)
        from repro.vm.errors import FileError

        with pytest.raises(FileError):
            view.add_page(99)

    def test_remove_page(self, column):
        view = VirtualView(column, 0, 100)
        view.add_page(3)
        view.add_page(4)
        view.remove_page(3)
        assert not view.contains_page(3)
        assert view.num_pages == 1
        assert view.mapped_fpages().tolist() == [4]

    def test_remove_missing_rejected(self, column):
        view = VirtualView(column, 0, 100)
        with pytest.raises(ValueError):
            view.remove_page(3)

    def test_slot_reuse_after_removal(self, column):
        """Removed slots become 'unused' virtual pages and are reused."""
        view = VirtualView(column, 0, 100)
        view.add_page(1)
        vpn1 = view.vpn_of(1)
        view.remove_page(1)
        view.add_page(2)
        assert view.vpn_of(2) == vpn1

    def test_map_run_consecutive(self, column):
        view = VirtualView(column, 0, 100)
        assert materialize_pages(view, np.array([4, 5, 6])) == 1
        assert view.num_pages == 3
        assert view.mapped_fpages().tolist() == [4, 5, 6]
        # one coalesced mmap: virtual pages contiguous, file pages contiguous
        assert column.substrate.address_space.translate(view.base_vpn) == (column.file, 4)
        assert column.substrate.address_space.translate(view.base_vpn + 2) == (column.file, 6)

    def test_map_run_rejects_duplicates(self, column):
        view = VirtualView(column, 0, 100)
        materialize_pages(view, [4, 5])
        with pytest.raises(ValueError):
            materialize_pages(view, [5, 6])

    def test_capacity_exhaustion(self, column):
        """Fresh over-allocated slots run out even if holes exist —
        plan_runs only consumes fresh space (holes serve add_page)."""
        view = VirtualView(column, 0, 100)
        materialize_pages(view, np.arange(16))
        view.remove_page(0)
        with pytest.raises(RuntimeError):
            view.plan_runs([0])
        # add_page, in contrast, reuses the freed slot
        view.add_page(0)
        assert view.num_pages == 16

    def test_vpn_of_errors(self, column):
        view = VirtualView(column, 0, 100)
        with pytest.raises(ValueError):
            view.vpn_of(3)
        with pytest.raises(ValueError):
            view.vpn_of(-1)

    def test_populate_faults_charged_at_map_time(self, column):
        view = VirtualView(column, 0, 100)
        before = column.cost.ledger.counter("soft_faults")
        materialize_pages(view, np.array([1, 2, 3]))
        view.add_page(9)
        assert column.cost.ledger.counter("soft_faults") == before + 4
        # scanning afterwards charges nothing more
        assert view.charge_first_touch() == 0


class TestDestroy:
    def test_destroy_unmaps_reservation(self, column):
        view = VirtualView(column, 0, 100)
        view.add_page(3)
        base = view.base_vpn
        view.destroy()
        assert column.substrate.address_space.find_vma(base) is None
        assert view.num_pages == 0

    def test_destroy_idempotent(self, column):
        view = VirtualView(column, 0, 100)
        view.destroy()
        view.destroy()

    def test_destroy_charges_munmap(self, column):
        view = VirtualView(column, 0, 100)
        materialize_pages(view, np.arange(4))
        before = column.cost.ledger.counter("pages_unmapped")
        view.destroy()
        assert column.cost.ledger.counter("pages_unmapped") == before + 4


class TestPlanRuns:
    def test_matches_per_run_planning(self, column):
        fpages = np.array([0, 1, 2, 5, 6, 9], dtype=np.int64)
        a = VirtualView(column, 0, 100)
        expected = [plan_run(a, run) for run in consecutive_runs(fpages)]
        b = VirtualView(column, 0, 100)
        got = b.plan_runs(fpages)
        assert runs_of(got) == [(r.fpage_start, r.npages) for r in expected]
        assert (got.vpns - b.base_vpn).tolist() == [
            r.vpn_start - a.base_vpn for r in expected
        ]
        assert b.num_pages == a.num_pages == 6
        assert b.mapped_fpages().tolist() == a.mapped_fpages().tolist()

    def test_uncoalesced_one_request_per_page(self, column):
        view = VirtualView(column, 0, 100)
        plan = view.plan_runs([3, 4, 8], coalesce=False)
        assert runs_of(plan) == [(3, 1), (4, 1), (8, 1)]

    def test_empty_set(self, column):
        view = VirtualView(column, 0, 100)
        assert view.plan_runs(np.empty(0, dtype=np.int64)).num_runs == 0
        assert view.num_pages == 0

    def test_duplicates_rejected(self, column):
        view = VirtualView(column, 0, 100)
        with pytest.raises(ValueError):
            view.plan_runs([1, 2, 2, 3])
        with pytest.raises(ValueError):
            view.plan_runs([4, 2, 4])  # unsorted duplicate

    def test_already_indexed_rejected(self, column):
        view = VirtualView(column, 0, 100)
        view.add_page(5)
        with pytest.raises(ValueError):
            view.plan_runs([4, 5, 6])

    def test_unsorted_input_allowed(self, column):
        view = VirtualView(column, 0, 100)
        assert runs_of(view.plan_runs([7, 2, 3])) == [(7, 1), (2, 2)]
        assert view.num_pages == 3

    def test_full_view_rejected(self, column):
        full = VirtualView.full_view(column)
        with pytest.raises(RuntimeError):
            full.plan_runs([0])
