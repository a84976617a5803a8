"""Sharded-vs-single parity: same results, same views, same cost story.

Three contracts:

* **Oracle parity** — at any shard count, queries return exactly the
  rows a numpy oracle predicts, and the union of partial-view pages
  tracks what the unsharded layer would map (modulo partition seams).
* **Identity at shards=1** — a single-shard database replaying a
  workload is *bit-identical* in simulated cost to an unsharded
  :class:`~repro.core.facade.AdaptiveDatabase` session: same per-query
  ``sim_ns``, same full ledger (lanes and counters).  Fuzzed over seeds.
* **Interleaving independence** — ``parallel=True`` and sequential
  execution produce identical results and identical merged ledgers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.shard import ShardedDatabase
from repro.vm.constants import VALUES_PER_PAGE
from repro.workloads.distributions import DEFAULT_DOMAIN

NUM_PAGES = 24
NUM_ROWS = NUM_PAGES * VALUES_PER_PAGE
DOMAIN = DEFAULT_DOMAIN[1]
CONFIG = AdaptiveConfig(background_mapping=False)


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


def _sharded(num_shards: int, values: np.ndarray, **kwargs) -> ShardedDatabase:
    db = ShardedDatabase(shards=num_shards, **kwargs)
    db.create_table("t", {"x": values})
    return db


@pytest.mark.parametrize("num_shards", [1, 2, 4])
class TestOracleParity:
    def test_queries_match_numpy_oracle(self, num_shards):
        rng = np.random.default_rng(3)
        values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
        with _sharded(num_shards, values) as db:
            oracle = values.copy()
            for op in _workload(seed=17, queries=16):
                if op[0] == "update":
                    _, row, value = op
                    db.update("t", "x", row, value)
                    oracle[row] = value
                else:
                    _, lo, hi = op
                    result = db.query("t", "x", lo, hi)
                    want_rows, want_vals = _oracle_query(oracle, lo, hi)
                    order = np.argsort(result.rowids)
                    assert np.array_equal(result.rowids[order], want_rows)
                    assert np.array_equal(result.values[order], want_vals)
            assert not db.audit().findings

    def test_scan_matches_numpy_oracle(self, num_shards):
        rng = np.random.default_rng(5)
        values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
        with _sharded(num_shards, values) as db:
            for lo, hi in [(0, DOMAIN // 10), (DOMAIN // 2, DOMAIN)]:
                result = db.scan("t", "x", lo, hi)
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

        with AdaptiveDatabase(config=CONFIG) as db:
            db.create_table("t", {"x": values})
            for _ in range(4):
                db.query("t", "x", lo, hi)
            layer = db.layer("t", "x")
            single_pages = set()
            for view in layer.view_index.partial_views:
                single_pages.update(int(p) for p in view.mapped_fpages())

        with _sharded(num_shards, values, config=CONFIG) as db:
            for _ in range(4):
                db.query("t", "x", lo, hi)
            sharded_pages = {
                int(fpage) + shard.spec.page_start
                for shard in db.column("t", "x").shards
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
            with _sharded(num_shards, values, parallel=parallel) as db:
                for op in _workload(seed=23):
                    if op[0] == "update":
                        db.update("t", "x", op[1], op[2])
                    else:
                        db.query("t", "x", op[1], op[2])
                db.flush_all()
                return db.merged_cost()

        sequential = run(parallel=False)
        again = run(parallel=False)
        threaded = run(parallel=True)
        assert sequential == again
        assert sequential == threaded


#: The fuzz's schema: a second table whose columns are not in
#: alphabetical order, so definition order is what both sides must keep.
FUZZ_COLUMNS = {"t": ("x",), "w": ("x", "a")}


def _fuzz_ops(seed: int, count: int = 24) -> list[tuple]:
    """Queries, updates and deletes over every column of both tables."""
    rng = np.random.default_rng(seed)
    targets = [(t, c) for t, cols in FUZZ_COLUMNS.items() for c in cols]
    ops: list[tuple] = []
    for _ in range(count):
        table, column = targets[int(rng.integers(0, len(targets)))]
        roll = rng.random()
        if roll < 0.3:
            row = int(rng.integers(0, NUM_ROWS))
            ops.append(("update", table, column, row, int(rng.integers(0, DOMAIN))))
        elif roll < 0.4:
            lo = int(rng.integers(0, DOMAIN))
            ops.append(("delete", table, column, lo, lo + DOMAIN // 50))
        else:
            lo = int(rng.integers(0, DOMAIN))
            hi = min(lo + int(rng.integers(0, DOMAIN // 4)), DOMAIN)
            ops.append(("query", table, column, lo, hi))
    return ops


def _replay(db, ops) -> list:
    """Run ``ops`` on either facade; returns everything observable."""
    seen: list = []
    for kind, table, column, a, b in ops:
        if kind == "update":
            try:
                seen.append(db.update(table, column, a, b))
            except KeyError:
                seen.append("deleted")
        elif kind == "delete":
            seen.append(db.delete(table, column, a, b))
        else:
            result = db.query(table, column, a, b)
            order = np.argsort(result.rowids)
            seen.append(
                (
                    result.stats.sim_ns,
                    result.rowids[order].tolist(),
                    result.values[order].tolist(),
                )
            )
    db.flush_all()
    return seen


def _clustered() -> np.ndarray:
    """Sorted values: narrow ranges qualify few pages, so views are kept."""
    rng = np.random.default_rng(13)
    return np.sort(rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64))


def _partial_views(layer) -> list:
    return sorted(
        (view.lo, view.hi, tuple(view.mapped_fpages().tolist()))
        for view in layer.view_index.partial_views
    )


class TestSingleShardIdentity:
    """shards=1 must be bit-identical to the unsharded stack."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_ledger_bit_identity_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        data = {
            table: {
                col: rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
                for col in cols
            }
            for table, cols in FUZZ_COLUMNS.items()
        }
        ops = _fuzz_ops(seed + 100)

        with AdaptiveDatabase(config=CONFIG) as db:
            for table, columns in data.items():
                db.create_table(table, columns)
                # The sharded facade builds every layer at set-up.
                for col in columns:
                    db.layer(table, col)
            single = _replay(db, ops)
            single_ledger = db.cost.ledger.snapshot()

        with ShardedDatabase(shards=1, config=CONFIG) as db:
            for table, columns in data.items():
                db.create_table(table, columns)
            sharded = _replay(db, ops)
            sharded_ledger = db.shards[0].cost.ledger.snapshot()

        assert any(op[0] == "delete" for op in ops)
        assert sharded == single
        assert sharded_ledger == single_ledger

    def test_no_pruning_at_one_shard(self):
        """Out-of-range predicates still scan — like the unsharded path."""
        values = np.arange(NUM_ROWS, dtype=np.int64)
        with _sharded(1, values) as db:
            result = db.query("t", "x", NUM_ROWS + 10, NUM_ROWS + 20)
            assert result.stats.pages_scanned > 0
            assert result.stats.result_rows == 0

    def test_pruning_skips_shards_at_many(self):
        values = np.arange(NUM_ROWS, dtype=np.int64)
        with _sharded(4, values) as db:
            narrow = db.scan("t", "x", 0, 10)
            assert narrow.stats.pages_scanned <= NUM_PAGES // 4 + 1
            out = db.query("t", "x", NUM_ROWS * 2, NUM_ROWS * 3)
            assert out.stats.pages_scanned == 0
            assert out.stats.result_rows == 0

    def _warm_then_update(self, db) -> None:
        for lo in range(0, DOMAIN, DOMAIN // 6):
            db.query("t", "x", lo, lo + DOMAIN // 20)
        db.update("t", "x", 5, DOMAIN // 3)

    def test_scan_after_update_charges_the_unsharded_scan(self):
        values = _clustered()
        lo, hi = DOMAIN // 5, DOMAIN // 4

        def charged_scan(db):
            self._warm_then_update(db)
            before = db.total_sim_ns()
            result = db.scan("t", "x", lo, hi)
            return db.total_sim_ns() - before, result

        with AdaptiveDatabase(config=CONFIG) as single:
            single.create_table("t", {"x": values})
            single.layer("t", "x")
            want_ns, want = charged_scan(single)
            want_ledger = single.cost.ledger.snapshot()
        with _sharded(1, values, config=CONFIG) as db:
            got_ns, got = charged_scan(db)
            assert got_ns == want_ns
            assert got.stats.sim_ns == want.stats.sim_ns
            assert np.array_equal(got.rowids, want.rowids)
            assert db.shards[0].cost.ledger.snapshot() == want_ledger

    def test_scan_leaves_the_update_pending_and_views_unchanged(self):
        values = _clustered()
        with _sharded(1, values, config=CONFIG) as db:
            self._warm_then_update(db)
            column = db.column("t", "x")
            before = _partial_views(column.shards[0].layer)
            assert before
            db.scan("t", "x", 0, DOMAIN)
            assert column.pending_update_count == 1
            assert _partial_views(column.shards[0].layer) == before

    def test_scan_at_four_shards_adapts_and_flushes_nothing(self):
        values = _clustered()
        with _sharded(4, values, config=CONFIG) as db:
            self._warm_then_update(db)
            db.update("t", "x", NUM_ROWS - 1, 7)
            column = db.column("t", "x")
            before = [_partial_views(shard.layer) for shard in column.shards]
            assert any(before) and column.pending_update_count == 2
            db.scan("t", "x", 0, DOMAIN)
            assert column.pending_update_count == 2
            assert [_partial_views(shard.layer) for shard in column.shards] == before


class TestShardedDatabaseParity:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_database_matches_unsharded_results(self, num_shards):
        rng = np.random.default_rng(9)
        values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)

        with AdaptiveDatabase(config=CONFIG) as single, ShardedDatabase(
            shards=num_shards, config=CONFIG
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
