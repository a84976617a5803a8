"""Tests for the maps-line budget (a layer's ``resilience.governor``)."""

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.core.stats import ViewEvent
from repro.native import is_supported
from repro.resilience import HealthState, ResilienceConfig, mapping_runs
from repro.substrate import make_substrate
from repro.vm.constants import VALUES_PER_PAGE

NUM_PAGES = 32
NUM_ROWS = NUM_PAGES * VALUES_PER_PAGE


def _make_db(resilience, backend="simulated"):
    values = np.arange(NUM_ROWS, dtype=np.int64)
    db = AdaptiveDatabase(
        config=AdaptiveConfig(background_mapping=False),
        backend=make_substrate(backend),
        resilience=resilience,
    )
    db.create_table("t", {"x": values})
    return db


def _check(db, lo, hi):
    """Query [lo, hi] and verify against the arange oracle."""
    res = db.query("t", "x", lo, hi)
    expected = np.arange(lo, min(hi, NUM_ROWS - 1) + 1, dtype=np.int64)
    assert np.array_equal(np.sort(res.rowids), expected)
    assert np.array_equal(np.sort(res.values), expected)
    return res


def _page_range(fpage, npages=1):
    """A value range that qualifies exactly ``npages`` starting at ``fpage``."""
    lo = fpage * VALUES_PER_PAGE
    return lo, lo + npages * VALUES_PER_PAGE - 1


class TestMappingRuns:
    def test_empty_is_zero(self):
        assert mapping_runs(np.array([], dtype=np.int64)) == 0

    def test_contiguous_is_one_run(self):
        assert mapping_runs(np.array([3, 4, 5, 6])) == 1

    def test_gaps_split_runs(self):
        assert mapping_runs(np.array([1, 2, 5, 6, 9])) == 3

    def test_singletons(self):
        assert mapping_runs(np.array([7])) == 1
        assert mapping_runs(np.array([1, 3, 5])) == 3


class TestBudgetEnforcement:
    def test_line_count_stays_under_budget(self):
        """With a budget the maps-line count never exceeds it, and every
        query still returns oracle-correct results."""
        budget = 6
        db = _make_db(ResilienceConfig(mapping_budget=budget, seed=0))
        with db:
            rng = np.random.default_rng(0)
            for _ in range(24):
                fpage = int(rng.integers(0, NUM_PAGES - 2))
                npages = int(rng.integers(1, 3))
                _check(db, *_page_range(fpage, npages))
                status = db.resilience_status()["layers"]["t.x"]
                assert status["maps_lines"] <= budget
            assert db.audit().ok

    def test_evictions_journal_and_count(self):
        """Evicted views leave EVICTED_BUDGET records and bump counters."""
        budget = 4
        db = _make_db(ResilienceConfig(mapping_budget=budget, seed=0))
        with db:
            # Disjoint single-page views: each adds one maps line on top
            # of the full view's, so the budget forces evictions.
            for fpage in range(0, 12, 2):
                _check(db, *_page_range(fpage))
            status = db.resilience_status()["layers"]["t.x"]
            assert status["governor_evictions"] > 0
            layer = db.layer("t", "x")
            evicted = [
                e
                for e in layer.view_index.history
                if e.event is ViewEvent.EVICTED_BUDGET
            ]
            assert len(evicted) == status["governor_evictions"]
            assert db.audit().ok

    def test_denial_when_nothing_left_to_evict(self):
        """A budget with zero headroom over the full view denies every
        candidate — journaled, counted, and queries stay correct."""
        db = _make_db(ResilienceConfig(mapping_budget=1, seed=0))
        with db:
            res = _check(db, *_page_range(2))
            assert res.stats.view_event is ViewEvent.DENIED_BUDGET
            layer = db.layer("t", "x")
            assert layer.view_index.num_partials == 0
            status = db.resilience_status()["layers"]["t.x"]
            assert status["governor_denials"] >= 1
            assert any(
                e.event is ViewEvent.DENIED_BUDGET
                for e in layer.view_index.history
            )
            assert db.audit().ok

    def test_unreachable_budget_turns_readonly(self):
        """When eviction cannot get the line count under budget (the
        budget lies below the full view's own footprint) the budget
        carries debt and the layer turns READONLY; full-scan answers
        stay correct."""
        db = _make_db(ResilienceConfig(mapping_budget=1, seed=0))
        with db:
            _check(db, *_page_range(1))
            governor = db.layer("t", "x").resilience.governor
            usage = governor.usage
            # Model a full view whose footprint alone exceeds the budget.
            governor.usage = lambda: governor.budget + 1
            db.update("t", "x", 10, 10)
            db.flush_updates("t", "x")
            assert governor.debt > 0
            assert db.health() is HealthState.READONLY
            # READONLY stops candidate investment, not answers.
            res = _check(db, *_page_range(3, 2))
            assert res.stats.view_event is ViewEvent.NONE
            assert db.audit().ok
            # The next enforcement that finds the lines within budget
            # ends READONLY-by-budget: debt is re-derived, not latched.
            governor.usage = usage
            db.update("t", "x", 11, 11)
            db.flush_updates("t", "x")
            assert governor.debt == 0
            assert db.health() is not HealthState.READONLY


class TestRequestThatCanNeverFit:
    @pytest.mark.parametrize("backend", ["simulated", "native"])
    def test_is_denied_before_anything_is_evicted(self, backend):
        """A candidate that would not fit even with every partial view
        gone is denied with the catalog intact — at query time and at
        every rebuild attempt of a deferred range."""
        if backend == "native" and not is_supported():
            pytest.skip("native rewiring unsupported on this platform")
        # Value block b lives on page 2b + 1 for b < 8, so blocks 0..7
        # qualify eight separated pages: eight maps-line runs.
        pages = [2 * b + 1 for b in range(8)]
        pages += [p for p in range(NUM_PAGES) if p not in pages]
        values = np.empty(NUM_ROWS, dtype=np.int64)
        for block, page in enumerate(pages):
            values[page * VALUES_PER_PAGE : (page + 1) * VALUES_PER_PAGE] = (
                np.arange(VALUES_PER_PAGE) + block * VALUES_PER_PAGE
            )
        db = AdaptiveDatabase(
            config=AdaptiveConfig(background_mapping=False),
            backend=make_substrate(backend),
            resilience=ResilienceConfig(mapping_budget=8, seed=0),
        )
        with db:
            db.create_table("t", {"x": values})
            layer = db.layer("t", "x")
            for _ in range(3):  # three well-used one-page views
                for block in (20, 24, 28):
                    db.query("t", "x", *_page_range(block))
            status = db.resilience_status()["layers"]["t.x"]
            assert layer.view_index.num_partials == 3
            assert status["maps_lines"] == 4

            lo, hi = _page_range(0, 8)
            res = db.query("t", "x", lo, hi)
            assert res.stats.view_event is ViewEvent.DENIED_BUDGET
            layer.view_index.quarantine_range(lo, hi, reason="test")
            assert not db.repair()  # the rebuild is deferred, again

            status = db.resilience_status()["layers"]["t.x"]
            assert layer.view_index.num_partials == 3
            assert status["maps_lines"] == 4
            assert status["governor_evictions"] == 0
            assert status["governor_denials"] == 2
            assert not any(
                e.event is ViewEvent.EVICTED_BUDGET
                for e in layer.view_index.history
            )
            assert db.audit().ok
