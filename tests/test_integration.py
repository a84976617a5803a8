"""Cross-module integration tests: full lifecycle stories."""

import threading

import numpy as np
import pytest

from repro import (
    AdaptiveConfig,
    AdaptiveDatabase,
    QueryEngine,
    SnapshotManager,
    inspect_view_index,
)
from repro.core.checkpoint import load_database, save_database
from repro.vm.constants import VALUES_PER_PAGE
from repro.workloads.distributions import sine
from repro.workloads.queries import selectivity_sweep

from .conftest import reference_rows


class TestFullLifecycle:
    """One database living through queries, updates, snapshots and a
    checkpoint-restore cycle — every result checked against ground
    truth."""

    def test_story(self, tmp_path):
        rng = np.random.default_rng(8)
        values = sine(512, 0, 1_000_000, seed=8)
        db = AdaptiveDatabase(AdaptiveConfig(max_views=20))
        db.create_table("metrics", {"value": values})
        column = db.table("metrics").column("value")

        # 1. adaptive warm-up over a query burst
        for lo in range(0, 900_000, 100_000):
            result = db.query("metrics", "value", lo, lo + 50_000)
            expected = reference_rows(column.values(), lo, lo + 50_000)
            assert np.array_equal(np.sort(result.rowids), expected)
        warm = db.query("metrics", "value", 100_000, 150_000)
        assert warm.stats.pages_scanned < column.num_pages

        # 2. introspection reflects the adaptivity
        report = inspect_view_index(db.layer("metrics", "value").view_index)
        assert report.views
        assert report.page_coverage > 0

        # 3. updates + batch alignment keep everything exact
        for row in rng.integers(0, column.num_rows, 300).tolist():
            db.update("metrics", "value", int(row), int(rng.integers(0, 1_000_000)))
        db.flush_updates("metrics", "value")
        post = db.query("metrics", "value", 100_000, 150_000)
        expected = reference_rows(column.values(), 100_000, 150_000)
        assert np.array_equal(np.sort(post.rowids), expected)

        # 4. checkpoint, restore, verify warm correctness
        path = str(tmp_path / "story.npz")
        save_database(db, path)
        restored = load_database(path)
        restored_column = restored.table("metrics").column("value")
        again = restored.query("metrics", "value", 100_000, 150_000)
        expected = reference_rows(restored_column.values(), 100_000, 150_000)
        assert np.array_equal(np.sort(again.rowids), expected)
        assert again.stats.pages_scanned < restored_column.num_pages
        restored.close()
        db.close()

    def test_query_engine_over_snapshotted_column(self):
        """Query engine + snapshots compose on the same column."""
        rng = np.random.default_rng(9)
        db = AdaptiveDatabase(AdaptiveConfig(max_views=10))
        table = db.create_table(
            "orders",
            {
                "amount": rng.integers(0, 100_000, 2044),
                "customer": rng.integers(0, 50, 2044),
            },
        )
        engine = QueryEngine(table, db.config)
        column = table.column("amount")
        with SnapshotManager(column) as snapshots:
            snap = snapshots.create_snapshot()
            frozen = column.values()
            for row in range(0, 2044, 3):
                table.update("amount", row, int(rng.integers(0, 100_000)))
            # engine sees live data
            live_rows = engine.select("amount", 0, 50_000).rowids
            expected_live = reference_rows(column.values(), 0, 50_000)
            assert np.array_equal(np.sort(live_rows), expected_live)
            # snapshot sees frozen data
            snap_rows, _ = snap.scan(0, 50_000)
            expected_snap = reference_rows(frozen, 0, 50_000)
            assert np.array_equal(np.sort(snap_rows), expected_snap)
        engine.close()
        db.close()


class TestConcurrency:
    def test_concurrent_queries_stay_correct(self):
        """Multiple threads hammering one layer: every result exact."""
        values = sine(256, 0, 1_000_000, seed=10)
        db = AdaptiveDatabase(AdaptiveConfig(max_views=30))
        db.create_table("t", {"x": values})
        column = db.table("t").column("x")
        ground_truth = column.values()
        queries = selectivity_sweep(
            num_queries=40, width_start=500_000, width_end=5_000,
            domain=(0, 1_000_000), seed=10,
        )
        errors: list[str] = []

        def worker(offset: int) -> None:
            for query in list(queries)[offset::4]:
                result = db.query("t", "x", query.lo, query.hi)
                expected = reference_rows(ground_truth, query.lo, query.hi)
                if not np.array_equal(np.sort(result.rowids), expected):
                    errors.append(f"mismatch at [{query.lo}, {query.hi}]")

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        db.close()

    def test_concurrent_background_mapping(self):
        """Background-mapping mode under a multi-query burst."""
        values = sine(256, 0, 1_000_000, seed=11)
        db = AdaptiveDatabase(
            AdaptiveConfig(max_views=20, background_mapping=True)
        )
        db.create_table("t", {"x": values})
        ground_truth = db.table("t").column("x").values()
        for lo in range(0, 900_000, 45_000):
            result = db.query("t", "x", lo, lo + 20_000)
            expected = reference_rows(ground_truth, lo, lo + 20_000)
            assert np.array_equal(np.sort(result.rowids), expected)
        db.close()


class TestFailureInjection:
    def test_out_of_physical_memory_is_clean(self):
        """Creating a table beyond capacity raises and leaves no trace."""
        from repro.vm.errors import OutOfMemoryError

        db = AdaptiveDatabase(capacity_bytes=64 * 4096)
        with pytest.raises(OutOfMemoryError):
            db.create_table("big", {"x": np.arange(VALUES_PER_PAGE * 100)})
        with pytest.raises(KeyError):
            db.table("big")
        db.close()

    def test_single_page_column(self):
        """Degenerate geometry: one page, partial fill."""
        db = AdaptiveDatabase()
        db.create_table("tiny", {"x": np.array([5, 1, 9])})
        result = db.query("tiny", "x", 1, 5)
        assert sorted(result.values.tolist()) == [1, 5]
        db.query("tiny", "x", 0, 100)
        db.close()

    def test_constant_column(self):
        """All values identical: extensions reach the whole domain."""
        db = AdaptiveDatabase(AdaptiveConfig(max_views=5))
        db.create_table("c", {"x": np.full(VALUES_PER_PAGE * 4, 7)})
        assert len(db.query("c", "x", 7, 7)) == VALUES_PER_PAGE * 4
        assert len(db.query("c", "x", 8, 100)) == 0
        assert len(db.query("c", "x", 7, 7)) == VALUES_PER_PAGE * 4
        db.close()

    def test_domain_edge_queries(self):
        from repro.vm.constants import MAX_VALUE, MIN_VALUE

        db = AdaptiveDatabase()
        db.create_table("t", {"x": np.arange(VALUES_PER_PAGE * 2)})
        result = db.query("t", "x", MIN_VALUE, MAX_VALUE)
        assert len(result) == VALUES_PER_PAGE * 2
        # beyond-int64 bounds are clamped, not rejected
        result = db.query("t", "x", -(2**70), 2**70)
        assert len(result) == VALUES_PER_PAGE * 2
        db.close()

    def test_update_flood_then_queries(self):
        """Every row rewritten: views realign and stay exact."""
        rng = np.random.default_rng(12)
        db = AdaptiveDatabase(AdaptiveConfig(max_views=10))
        values = np.sort(rng.integers(0, 100_000, VALUES_PER_PAGE * 16))
        db.create_table("t", {"x": values})
        db.query("t", "x", 10_000, 20_000)
        table = db.table("t")
        for row in range(table.num_rows):
            table.update("x", row, int(rng.integers(0, 100_000)))
        db.flush_updates("t", "x")
        column = table.column("x")
        result = db.query("t", "x", 10_000, 20_000)
        expected = reference_rows(column.values(), 10_000, 20_000)
        assert np.array_equal(np.sort(result.rowids), expected)
        db.close()
