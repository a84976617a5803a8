"""A view's slot bookkeeping, before and after its tables exist.

A view planned on fresh slots keeps only the plan's page list; the
column-sized tables (slot → page, page → slot, touched bits) appear on
the first lookup that needs them.  Whatever is asked of a view must not
depend on *when* that happened: every test here drives two views through
the same calls, one forced to build its tables up front, and requires
equal answers — plus the things only the late one promises (nothing
column-sized for a candidate's whole life) and the one place two threads
meet (the mapping thread marking slots while the scanning thread plans).
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core.creation import BackgroundMapper, materialize_pages
from repro.core.view import VirtualView

from ..conftest import uniform_column

NUM_PAGES = 64
PAGES = np.array([3, 4, 5, 9, 20, 21, 40])


def _pair(column):
    """Two empty views of one column; the second has its tables already."""
    late, early = VirtualView(column, 0, 10), VirtualView(column, 0, 10)
    early._slots()
    return late, early


def _observe(view: VirtualView) -> dict:
    """Everything a caller can ask — asked last, as it builds the tables."""
    return {
        "num_pages": view.num_pages,
        "mapped": view.mapped_fpages().tolist(),
        "vpns": [view.vpn_of(int(p)) - view.base_vpn for p in view.mapped_fpages()],
        "contains": [view.contains_page(p) for p in range(NUM_PAGES)],
        "fpage_at": view._fpage_at.tolist(),
        "slot_by_fpage": view._slot_by_fpage.tolist(),
        "touched": view._touched.tolist(),
    }


class TestSameAnswersWheneverTheTablesAreBuilt:
    def test_planned_and_mapped(self):
        late, early = _pair(uniform_column(NUM_PAGES))
        for view in (late, early):
            assert materialize_pages(view, PAGES) == 4
        assert late._table is None  # creation asked for no lookup
        assert late.mapped_fpages().tolist() == PAGES.tolist()
        assert late.charge_first_touch(PAGES) == 0
        assert late._table is None  # nor did a scan of it
        assert _observe(late) == _observe(early)

    def test_planned_but_not_mapped_owes_its_faults(self):
        column = uniform_column(NUM_PAGES)
        late, early = _pair(column)
        faults = []
        for view in (late, early):
            view.plan_runs(PAGES)
            before = column.cost.ledger.counter("soft_faults")
            assert view.charge_first_touch(np.array([4, 9, 50])) == 2
            faults.append(column.cost.ledger.counter("soft_faults") - before)
            assert view.charge_first_touch() == PAGES.size - 2
            assert view.charge_first_touch() == 0
        assert faults == [2, 2]
        assert _observe(late) == _observe(early)

    def test_a_second_plan_and_the_update_path(self):
        late, early = _pair(uniform_column(NUM_PAGES))
        for view in (late, early):
            materialize_pages(view, PAGES)
            materialize_pages(view, [30, 31])
            view.remove_page(9)
            view.add_page(50)  # into the hole
            view.add_page(11)  # onto fresh space
            with pytest.raises(ValueError):
                view.plan_runs([31, 32])  # 31 is indexed
            with pytest.raises(ValueError):
                view.add_page(50)
        assert late.mapped_fpages().tolist() == [3, 4, 5, 50, 20, 21, 40, 30, 31, 11]
        assert _observe(late) == _observe(early)

    def test_unsorted_plan(self):
        late, early = _pair(uniform_column(NUM_PAGES))
        for view in (late, early):
            materialize_pages(view, [7, 2, 3])
        assert late.vpn_of(7) == late.base_vpn  # slot order is plan order
        assert _observe(late) == _observe(early)

    @pytest.mark.parametrize("pages", [[0, NUM_PAGES], [-1, 2], [5, 2, NUM_PAGES + 3]])
    def test_pages_outside_the_column_change_nothing(self, pages):
        late, early = _pair(uniform_column(NUM_PAGES))
        for view in (late, early):
            with pytest.raises(IndexError):
                view.plan_runs(pages)
            assert view.num_pages == 0 and view._next_fresh == 0
            materialize_pages(view, PAGES)
            with pytest.raises(IndexError):
                view.plan_runs(pages)
        assert _observe(late) == _observe(early)

    def test_the_full_view(self):
        column = uniform_column(NUM_PAGES)
        full = VirtualView.full_view(column)
        assert full._table is None
        assert full.mapped_fpages().tolist() == list(range(NUM_PAGES))
        assert full.num_pages == NUM_PAGES and full.charge_first_touch() == 0
        assert full.vpn_of(17) == full.base_vpn + 17
        assert full._touched.all() and full._fpage_at.tolist() == list(range(NUM_PAGES))


class TestACandidatesLife:
    def test_nothing_column_sized_from_reserve_to_discard(self):
        view = VirtualView(uniform_column(NUM_PAGES), 0, 10)
        materialize_pages(view, PAGES)
        view.charge_first_touch(view.mapped_fpages())
        view.update_range(2, 8)
        view.destroy()
        assert view._table is None and not view._alive
        assert view.num_pages == 0 and view.mapped_fpages().size == 0
        view.destroy()  # idempotent
        # a lookup on the dead view still answers
        assert not view.contains_page(4)
        assert (view._fpage_at == -1).all()

    def test_the_plan_is_a_copy_of_the_callers_pages(self):
        view = VirtualView(uniform_column(NUM_PAGES), 0, 10)
        pages = PAGES.copy()
        materialize_pages(view, pages)
        pages[:] = 0
        assert view.mapped_fpages().tolist() == PAGES.tolist()


def test_marks_from_the_mapping_thread_survive_the_table_being_built():
    """The scanning thread plans run after run — the second plan builds
    the tables — while the mapping thread executes and marks the earlier
    ones.  A mark lost between the two representations would leave a
    populated slot untouched, and the next scan would pay its fault twice."""
    column = uniform_column(NUM_PAGES)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    mapper = BackgroundMapper(column.cost)
    try:
        for _ in range(150):
            view = VirtualView(column, 0, 10)
            for page in range(0, 12, 2):
                mapper.submit(view, view.plan_runs([page]))
            mapper.flush()
            assert view._touched[:6].all()
            assert view.charge_first_touch() == 0
            view.destroy()
    finally:
        mapper.stop()
        sys.setswitchinterval(interval)
