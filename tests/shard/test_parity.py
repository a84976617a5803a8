"""Sharded-vs-single parity: same results, same views, same cost story.

Three contracts:

* **Oracle parity** — at any shard count, queries return exactly the
  rows a numpy oracle predicts, and the union of partial-view pages
  tracks what the unsharded layer would map (modulo partition seams).
* **Identity at shards=1** — a single-shard column replaying a workload
  is *bit-identical* in simulated cost to an unsharded
  :class:`~repro.core.adaptive.AdaptiveStorageLayer` session: same
  per-query ``sim_ns``, same full ledger (lanes and counters).  Fuzzed
  over seeds.
* **Interleaving independence** — ``parallel=True`` and sequential
  execution produce identical results and identical merged ledgers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.shard import ShardedColumn, ShardedDatabase
from repro.vm.constants import VALUES_PER_PAGE
from repro.workloads.distributions import DEFAULT_DOMAIN

NUM_PAGES = 24
NUM_ROWS = NUM_PAGES * VALUES_PER_PAGE
DOMAIN = DEFAULT_DOMAIN[1]


def _workload(seed: int, queries: int = 12) -> list[tuple[str, int, int]]:
    """A deterministic mixed query/update workload."""
    rng = np.random.default_rng(seed)
    ops: list[tuple[str, int, int]] = []
    for _ in range(queries):
        if rng.random() < 0.3:
            row = int(rng.integers(0, NUM_ROWS))
            value = int(rng.integers(0, DOMAIN))
            ops.append(("update", row, value))
        else:
            lo = int(rng.integers(0, DOMAIN))
            hi = min(lo + int(rng.integers(0, DOMAIN // 4)), DOMAIN)
            ops.append(("query", lo, hi))
    return ops


def _oracle_query(values, lo, hi):
    rowids = np.nonzero((values >= lo) & (values <= hi))[0]
    return rowids, values[rowids]


@pytest.mark.parametrize("num_shards", [1, 2, 4])
class TestOracleParity:
    def test_queries_match_numpy_oracle(self, num_shards):
        rng = np.random.default_rng(3)
        values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
        with ShardedColumn.build("t", values, num_shards) as column:
            oracle = values.copy()
            for op in _workload(seed=17, queries=16):
                if op[0] == "update":
                    _, row, value = op
                    column.update(row, value)
                    oracle[row] = value
                else:
                    _, lo, hi = op
                    result = column.query(lo, hi)
                    want_rows, want_vals = _oracle_query(oracle, lo, hi)
                    order = np.argsort(result.rowids)
                    assert np.array_equal(result.rowids[order], want_rows)
                    assert np.array_equal(result.values[order], want_vals)
            assert not column.audit().findings

    def test_scan_matches_numpy_oracle(self, num_shards):
        rng = np.random.default_rng(5)
        values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
        with ShardedColumn.build("t", values, num_shards) as column:
            for lo, hi in [(0, DOMAIN // 10), (DOMAIN // 2, DOMAIN)]:
                result = column.scan(lo, hi)
                want_rows, want_vals = _oracle_query(values, lo, hi)
                order = np.argsort(result.rowids)
                assert np.array_equal(result.rowids[order], want_rows)
                assert np.array_equal(result.values[order], want_vals)

    def test_view_page_union_covers_single_path_pages(self, num_shards):
        """Global page ids behind partial views stay within the pages the
        unsharded layer maps for the same query, modulo the partition
        seams (a shard clips its views at its own page range)."""
        rng = np.random.default_rng(7)
        values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
        lo, hi = DOMAIN // 4, DOMAIN // 2

        with AdaptiveDatabase(
            config=AdaptiveConfig(background_mapping=False)
        ) as db:
            db.create_table("t", {"x": values})
            for _ in range(4):
                db.query("t", "x", lo, hi)
            layer = db.layer("t", "x")
            single_pages = set()
            for view in layer.view_index.partial_views:
                single_pages.update(int(p) for p in view.mapped_fpages())

        with ShardedColumn.build(
            "t",
            values,
            num_shards,
            config=AdaptiveConfig(background_mapping=False),
        ) as column:
            for _ in range(4):
                column.query(lo, hi)
            sharded_pages = {
                int(fpage) + shard.spec.page_start
                for shard in column.shards
                for view in shard.layer.view_index.partial_views
                for fpage in view.mapped_fpages()
            }

        if num_shards == 1:
            assert sharded_pages == single_pages
        else:
            # Sharding can only shrink a view's page set (each shard sees
            # a prefix/suffix of the qualifying pages), never invent
            # pages the single layer would not map.
            assert sharded_pages <= single_pages

    def test_merged_cost_is_a_stable_total(self, num_shards):
        """Replaying the same workload twice yields the same merged
        ledger — and so does replaying it with parallel gather."""

        def run(parallel: bool):
            rng = np.random.default_rng(3)
            values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
            with ShardedColumn.build(
                "t", values, num_shards, parallel=parallel
            ) as column:
                for op in _workload(seed=23):
                    if op[0] == "update":
                        column.update(op[1], op[2])
                    else:
                        column.query(op[1], op[2])
                if column.pending_update_count:
                    column.flush_updates()
                return column.merged_cost()

        sequential = run(parallel=False)
        again = run(parallel=False)
        threaded = run(parallel=True)
        assert sequential == again
        assert sequential == threaded


class TestSingleShardIdentity:
    """shards=1 must be bit-identical to the unsharded stack."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_ledger_bit_identity_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
        config = AdaptiveConfig(background_mapping=False)

        with AdaptiveDatabase(config=config) as db:
            db.create_table("t", {"x": values})
            single_stats = []
            for op in _workload(seed=seed + 100):
                if op[0] == "update":
                    db.update("t", "x", op[1], op[2])
                else:
                    result = db.query("t", "x", op[1], op[2])
                    single_stats.append(result.stats.sim_ns)
            if len(db.table("t").pending_updates("x")):
                db.flush_updates("t", "x")
            single_ledger = db.cost.ledger.snapshot()

        with ShardedColumn.build("t.x", values, 1, config=config) as column:
            sharded_stats = []
            for op in _workload(seed=seed + 100):
                if op[0] == "update":
                    column.update(op[1], op[2])
                else:
                    result = column.query(op[1], op[2])
                    sharded_stats.append(result.stats.sim_ns)
            if column.pending_update_count:
                column.flush_updates()
            sharded_ledger = column.shards[0].cost.ledger.snapshot()

        assert sharded_stats == single_stats
        assert sharded_ledger == single_ledger

    def test_no_pruning_at_one_shard(self):
        """Out-of-range predicates still scan — like the unsharded path."""
        values = np.arange(NUM_ROWS, dtype=np.int64)
        with ShardedColumn.build("t", values, 1) as column:
            result = column.query(NUM_ROWS + 10, NUM_ROWS + 20)
            assert result.stats.pages_scanned > 0
            assert result.stats.result_rows == 0

    def test_pruning_skips_shards_at_many(self):
        values = np.arange(NUM_ROWS, dtype=np.int64)
        with ShardedColumn.build("t", values, 4) as column:
            narrow = column.scan(0, 10)
            assert narrow.stats.pages_scanned <= NUM_PAGES // 4 + 1
            out = column.query(NUM_ROWS * 2, NUM_ROWS * 3)
            assert out.stats.pages_scanned == 0
            assert out.stats.result_rows == 0


class TestShardedDatabaseParity:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_database_matches_unsharded_results(self, num_shards):
        rng = np.random.default_rng(9)
        values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
        config = AdaptiveConfig(background_mapping=False)

        with AdaptiveDatabase(config=config) as single, ShardedDatabase(
            shards=num_shards, config=config
        ) as sharded:
            single.create_table("t", {"x": values})
            sharded.create_table("t", {"x": values})
            for op in _workload(seed=31):
                if op[0] == "update":
                    single.update("t", "x", op[1], op[2])
                    sharded.update("t", "x", op[1], op[2])
                else:
                    a = single.query("t", "x", op[1], op[2])
                    b = sharded.query("t", "x", op[1], op[2])
                    order_a = np.argsort(a.rowids)
                    order_b = np.argsort(b.rowids)
                    assert np.array_equal(
                        a.rowids[order_a], b.rowids[order_b]
                    )
                    assert np.array_equal(
                        a.values[order_a], b.values[order_b]
                    )
            assert not sharded.audit().findings
