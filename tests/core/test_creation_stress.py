"""Stress and equivalence tests for the view-creation paths."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.creation import (
    BackgroundMapper,
    create_partial_view,
    materialize_pages,
)
from repro.core.view import VirtualView

from ..conftest import uniform_column


class TestCreationEquivalence:
    """All four optimization settings must build identical views."""

    def build(self, column, qualifying, coalesce, background):
        view = VirtualView(column, 0, 10**6)
        mapper_thread = None
        if background:
            mapper_thread = BackgroundMapper(column.cost)
        try:
            materialize_pages(
                view, qualifying, coalesce=coalesce, background=mapper_thread
            )
        finally:
            if mapper_thread is not None:
                mapper_thread.stop()
        return view

    @settings(max_examples=30, deadline=None)
    @given(
        pages=st.lists(st.integers(0, 31), unique=True, min_size=1, max_size=32),
    )
    def test_all_variants_map_the_same_pages(self, pages):
        column = uniform_column(num_pages=32)
        qualifying = np.sort(np.array(pages, dtype=np.int64))
        outcomes = []
        for coalesce in (False, True):
            for background in (False, True):
                view = self.build(column, qualifying, coalesce, background)
                outcomes.append(view.mapped_fpages().tolist())
                # translations are real, not just bookkeeping
                for fpage in pages:
                    assert column.substrate.mapper.translate(view.vpn_of(fpage)) == (
                        column.file,
                        fpage,
                    )
                view.destroy()
        assert all(o == outcomes[0] for o in outcomes)

    def test_coalescing_charges_less_for_clustered_pages(self):
        column = uniform_column(num_pages=64)
        run = np.arange(40, dtype=np.int64)
        cost = column.cost
        with cost.region() as coalesced:
            self.build(column, run, coalesce=True, background=False).destroy()
        with cost.region() as single:
            self.build(column, run, coalesce=False, background=False).destroy()
        assert coalesced.lane_ns() < single.lane_ns()


class TestBackgroundMapperStress:
    def test_many_views_through_one_mapper(self):
        """One mapping thread serving many sequential view creations."""
        column = uniform_column(num_pages=64, hi=1_000_000)
        full = VirtualView.full_view(column)
        bg = BackgroundMapper(column.cost)
        try:
            views = []
            for i in range(12):
                lo = i * 80_000
                report = create_partial_view(
                    column, [full], lo, lo + 60_000, background=bg
                )
                views.append(report.view)
            for view in views:
                expected = set(
                    column.pages_with_values_in(view.lo, view.hi).tolist()
                )
                assert expected <= set(view.mapped_fpages().tolist())
        finally:
            bg.stop()

    def test_interleaved_submissions(self):
        """Two views' runs interleaved into the same queue stay separate."""
        column = uniform_column(num_pages=32)
        bg = BackgroundMapper(column.cost)
        try:
            a = VirtualView(column, 0, 10)
            b = VirtualView(column, 20, 30)
            for fpage in range(0, 16, 2):
                bg.submit(a, a.plan_runs([fpage]))
                bg.submit(b, b.plan_runs([fpage + 1]))
            bg.flush()
            assert a.mapped_fpages().tolist() == list(range(0, 16, 2))
            assert b.mapped_fpages().tolist() == list(range(1, 16, 2))
        finally:
            bg.stop()


class TestConsecutiveRunsProperty:
    @settings(max_examples=100, deadline=None)
    @given(
        pages=st.lists(
            st.integers(0, 200), unique=True, min_size=0, max_size=60
        )
    )
    def test_runs_partition_the_input(self, pages):
        fpages = np.sort(np.array(pages, dtype=np.int64))
        plan = VirtualView(uniform_column(num_pages=201), 0, 10).plan_runs(fpages)
        runs = [
            np.arange(start, start + n)
            for start, n in zip(plan.file_pages.tolist(), plan.npages.tolist())
        ]
        # concatenation reproduces the input exactly
        flattened = [p for run in runs for p in run.tolist()]
        assert flattened == fpages.tolist()
        # every run is consecutive, and runs do not touch
        for run in runs:
            values = run.tolist()
            assert values == list(range(values[0], values[0] + len(values)))
        for first, second in zip(runs, runs[1:]):
            assert second[0] > first[-1] + 1
