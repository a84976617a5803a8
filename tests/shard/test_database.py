"""ShardedDatabase facade: schema, tombstones, auto-flush, resilience."""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.resilience.policy import HealthState, ResilienceConfig
from repro.shard import ShardedDatabase
from repro.vm.constants import VALUES_PER_PAGE

NUM_ROWS = 16 * VALUES_PER_PAGE


def _values(seed: int = 3) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, 100_000, size=NUM_ROWS, dtype=np.int64
    )


class TestSchema:
    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            ShardedDatabase(shards=0)

    def test_rejects_duplicate_table(self):
        with ShardedDatabase(shards=2) as db:
            db.create_table("t", {"x": _values()})
            with pytest.raises(ValueError):
                db.create_table("t", {"x": _values()})

    def test_columns_share_the_shard_substrates(self):
        with ShardedDatabase(shards=2) as db:
            db.create_table("t", {"x": _values(), "y": _values(4)})
            for i in range(2):
                assert (
                    db.column("t", "x").shards[i].substrate
                    is db.column("t", "y").shards[i].substrate
                )

    def test_unknown_lookups_raise(self):
        with ShardedDatabase() as db:
            db.create_table("t", {"x": _values()})
            with pytest.raises(KeyError):
                db.table("nope")
            with pytest.raises(KeyError):
                db.column("t", "nope")


class TestTombstones:
    def test_delete_hides_rows_from_query_and_scan(self):
        values = _values()
        with ShardedDatabase(shards=4) as db:
            db.create_table("t", {"x": values})
            deleted = db.delete("t", "x", 0, 10_000)
            want = int(((values >= 0) & (values <= 10_000)).sum())
            assert deleted == want
            assert len(db.query("t", "x", 0, 10_000).rowids) == 0
            assert len(db.scan("t", "x", 0, 10_000).rowids) == 0
            # Rows outside the deleted range survive.
            rest = db.query("t", "x", 10_001, 100_000)
            assert len(rest.rowids) == NUM_ROWS - want

    def test_update_of_deleted_row_raises(self):
        values = np.arange(NUM_ROWS, dtype=np.int64)
        with ShardedDatabase(shards=2) as db:
            db.create_table("t", {"x": values})
            db.delete("t", "x", 0, 0)
            with pytest.raises(KeyError):
                db.update("t", "x", 0, 42)


class TestAutoFlush:
    def test_threshold_triggers_per_column_flush(self):
        values = np.arange(NUM_ROWS, dtype=np.int64)
        with ShardedDatabase(shards=2, auto_flush_threshold=4) as db:
            db.create_table("t", {"x": values})
            column = db.column("t", "x")
            for i in range(3):
                db.update("t", "x", i, i + 1)
            assert column.pending_update_count == 3
            db.update("t", "x", 3, 4)
            assert column.pending_update_count == 0

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            ShardedDatabase(auto_flush_threshold=0)


class TestAudit:
    def test_clean_session_audits_clean(self):
        with ShardedDatabase(shards=4) as db:
            db.create_table("t", {"x": _values()})
            for lo in range(0, 100_000, 20_000):
                db.query("t", "x", lo, lo + 5_000)
            report = db.audit()
            assert not report.findings
            assert report.checks > 0

    def test_broken_router_bounds_are_found(self):
        with ShardedDatabase(shards=4) as db:
            db.create_table("t", {"x": _values()})
            column = db.column("t", "x")
            # Corrupt shard 2's bounds so they no longer cover its data.
            column.router.tighten(2, 0, 0)
            report = db.audit()
            assert any(
                f.invariant == "shard-router-bounds" for f in report.findings
            )

    def test_broken_partition_is_found(self):
        from dataclasses import replace

        with ShardedDatabase(shards=2) as db:
            db.create_table("t", {"x": _values()})
            column = db.column("t", "x")
            shard = column.shards[1]
            shard.spec = replace(
                shard.spec, row_start=shard.spec.row_start + VALUES_PER_PAGE
            )
            report = db.audit()
            assert any(
                f.invariant == "shard-partition" for f in report.findings
            )


class TestResilience:
    def test_mapping_budget_is_sliced_across_shards(self):
        config = ResilienceConfig(mapping_budget=40)
        with ShardedDatabase(shards=4, resilience=config) as db:
            db.create_table("t", {"x": _values()})
            for shard in db.column("t", "x").shards:
                assert shard.layer.resilience is not None
                assert (
                    shard.layer.resilience.config.mapping_budget == 10
                )

    def test_single_shard_keeps_config_untouched(self):
        config = ResilienceConfig(mapping_budget=40)
        with ShardedDatabase(shards=1, resilience=config) as db:
            db.create_table("t", {"x": _values()})
            shard = db.column("t", "x").shards[0]
            assert shard.layer.resilience.config is config

    def test_health_aggregates_worst_shard(self):
        with ShardedDatabase(shards=2) as db:
            db.create_table("t", {"x": _values()})
            assert db.health() is HealthState.HEALTHY
            status = db.resilience_status()
            assert status["health"] == "healthy"

    def test_status_keys_name_every_shard(self):
        with ShardedDatabase(
            shards=2, resilience=ResilienceConfig()
        ) as db:
            db.create_table("t", {"x": _values()})
            status = db.resilience_status()
            assert set(status["layers"]) == {
                "t.x[shard0]",
                "t.x[shard1]",
            }

    def test_repair_converges_on_clean_session(self):
        with ShardedDatabase(shards=2) as db:
            db.create_table("t", {"x": _values()})
            db.update("t", "x", 0, 5)
            assert db.repair()
            assert db.column("t", "x").pending_update_count == 0


class TestLifecycle:
    def test_close_drops_the_shard_databases(self):
        db = ShardedDatabase(shards=2)
        db.create_table("t", {"x": _values()})
        db.query("t", "x", 0, 5_000)
        shard = weakref.ref(db.shards[0])
        db.close()
        assert shard() is None

    def test_flush_all_realigns_and_tightens_the_router(self):
        values = np.arange(NUM_ROWS, dtype=np.int64)
        with ShardedDatabase(shards=2) as db:
            db.create_table("t", {"x": values})
            column = db.column("t", "x")
            exact = column.router.bounds(0)
            db.update("t", "x", 0, NUM_ROWS * 10)
            db.update("t", "x", 0, 0)
            assert column.router.bounds(0) == (0, NUM_ROWS * 10)
            db.flush_all()
            assert column.pending_update_count == 0
            assert column.router.bounds(0) == exact


class TestMergedCost:
    def test_merged_cost_sums_shard_ledgers(self):
        with ShardedDatabase(shards=2) as db:
            db.create_table("t", {"x": _values()})
            db.query("t", "x", 0, 50_000)
            lanes, counters = db.merged_cost()
            assert lanes.get("main", 0) > 0
            want_lanes = {}
            for substrate in db.substrates:
                for lane, ns in substrate.cost.ledger.snapshot()[0].items():
                    want_lanes[lane] = want_lanes.get(lane, 0.0) + ns
            assert lanes == want_lanes
