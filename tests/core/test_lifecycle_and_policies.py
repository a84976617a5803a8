"""Tests for the view lifecycle journal, auto-flush and stale-view safety."""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveStorageLayer
from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.core.stats import ViewEvent
from repro.vm.constants import VALUES_PER_PAGE

from ..conftest import build_column, reference_rows


def clustered_values(num_pages=16, band=1000):
    return np.repeat(np.arange(num_pages) * band, VALUES_PER_PAGE)


class TestLifecycleJournal:
    def test_insert_recorded(self):
        layer = AdaptiveStorageLayer(build_column(clustered_values()))
        layer.answer_query(3000, 3999)
        history = layer.view_index.history
        assert len(history) == 1
        event = history[0]
        assert event.event is ViewEvent.INSERTED
        assert event.sequence == 1
        assert event.candidate_pages == 1
        assert event.lo <= 3000 and event.hi >= 3999

    def test_discard_full_recorded_with_pages(self):
        layer = AdaptiveStorageLayer(build_column(clustered_values()))
        layer.answer_query(0, 10**9)
        event = layer.view_index.history[0]
        assert event.event is ViewEvent.DISCARDED_FULL
        assert event.candidate_pages == 16  # recorded before destruction

    def test_subset_discard_references_other_view(self):
        layer = AdaptiveStorageLayer(build_column(clustered_values()))
        layer.answer_query(3000, 3999)
        layer.answer_query(3000, 3999)
        event = layer.view_index.history[1]
        assert event.event is ViewEvent.DISCARDED_SUBSET
        assert event.other_range is not None
        assert event.other_pages == 1

    def test_replacement_references_replaced_view(self):
        from repro.core.creation import Candidate
        from repro.core.view import VirtualView
        from repro.core.view_index import ViewIndex

        column = build_column(clustered_values())
        index = ViewIndex(column, AdaptiveConfig(max_views=10))
        existing = VirtualView(column, 3000, 3999)
        existing.add_page(3)
        index.insert(existing)
        candidate = Candidate(column, 2500, 4500, np.array([3]))
        assert index.consider_candidate(candidate) is ViewEvent.REPLACED
        replaced = index.history[-1]
        assert replaced.event is ViewEvent.REPLACED
        assert replaced.other_range == (3000, 3999)
        assert replaced.other_pages == 1

    def test_limit_reached_journaled(self):
        from repro.core.creation import Candidate
        from repro.core.view_index import ViewIndex

        column = build_column(clustered_values())
        index = ViewIndex(column, AdaptiveConfig(max_views=0))
        candidate = Candidate(column, 0, 10, np.array([0]))
        assert index.consider_candidate(candidate) is ViewEvent.LIMIT_REACHED
        event = index.history[-1]
        assert event.event is ViewEvent.LIMIT_REACHED
        assert event.candidate_pages == 1  # recorded before destruction

    def test_no_journal_entry_once_generation_stopped(self):
        """After the limit stops generation, queries build no candidate
        and therefore add nothing to the journal."""
        layer = AdaptiveStorageLayer(
            build_column(clustered_values()), AdaptiveConfig(max_views=1)
        )
        layer.answer_query(1000, 1999)
        layer.answer_query(5000, 5999)
        events = [e.event for e in layer.view_index.history]
        assert events == [ViewEvent.INSERTED]

    def test_describe_lines(self):
        layer = AdaptiveStorageLayer(build_column(clustered_values()))
        layer.answer_query(3000, 3999)
        layer.answer_query(3000, 3999)
        lines = [e.describe() for e in layer.view_index.history]
        assert lines[0].startswith("#1 candidate v[")
        assert "inserted" in lines[0]
        assert "vs v[" in lines[1]


class TestAutoFlush:
    def make_db(self, threshold):
        db = AdaptiveDatabase(
            AdaptiveConfig(max_views=5), auto_flush_threshold=threshold
        )
        db.create_table("t", {"x": clustered_values()})
        return db

    def test_threshold_triggers_flush(self):
        db = self.make_db(threshold=3)
        db.query("t", "x", 3000, 3999)  # create a view
        for i in range(3):
            db.update("t", "x", i, 3500 + i)
        # the third update crossed the threshold: log drained, view aligned
        assert len(db.table("t").pending_updates("x")) == 0
        view = db.layer("t", "x").view_index.partial_views[0]
        assert view.contains_page(0)
        db.close()

    def test_below_threshold_keeps_pending(self):
        db = self.make_db(threshold=10)
        db.update("t", "x", 0, 1)
        assert len(db.table("t").pending_updates("x")) == 1
        db.close()

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveDatabase(auto_flush_threshold=0)

    def test_disabled_by_default(self):
        db = AdaptiveDatabase()
        db.create_table("t", {"x": clustered_values()})
        for i in range(50):
            db.update("t", "x", i, i)
        assert len(db.table("t").pending_updates("x")) == 50
        db.close()


class TestStaleViewSafety:
    def test_query_reads_around_pending_updates(self):
        """A query right after updates — without an explicit flush —
        must still see every row (the dirty pages its views do not map
        are scanned too); the batch stays pending until it is flushed."""
        db = AdaptiveDatabase(AdaptiveConfig(max_views=5))
        values = clustered_values()
        db.create_table("t", {"x": values})
        db.query("t", "x", 3000, 3999)  # view over page 3 only
        # move an out-of-range row into the view's range, NO flush
        db.update("t", "x", 0, 3333)
        result = db.query("t", "x", 3000, 3999)
        column = db.table("t").column("x")
        expected = reference_rows(column.values(), 3000, 3999)
        assert np.array_equal(np.sort(result.rowids), expected)
        assert 0 in result.rowids.tolist()
        # the read left the batch pending; the flush realigns the views
        assert len(db.table("t").pending_updates("x")) == 1
        db.flush_updates("t", "x")
        assert len(db.table("t").pending_updates("x")) == 0
        report = db.audit()
        assert report.ok and report.semantics_checked, report.render()
        db.close()

    def test_query_engine_reads_around_pending_updates(self):
        from repro.core.query import QueryEngine

        with AdaptiveDatabase(AdaptiveConfig(max_views=5)) as db:
            table = db.create_table("t", {"x": clustered_values()})
            engine = QueryEngine(db, "t")
            engine.select("x", 3000, 3999)
            table.update("x", 0, 3333)
            result = engine.select("x", 3000, 3999)
            expected = reference_rows(table.column("x").values(), 3000, 3999)
            assert np.array_equal(np.sort(result.rowids), expected)
            assert len(table.pending_updates("x")) == 1
            db.flush_updates("t", "x")
            assert len(table.pending_updates("x")) == 0
            report = db.audit()
            assert report.ok and report.semantics_checked, report.render()
