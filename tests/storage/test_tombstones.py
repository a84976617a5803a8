"""The tombstone bitmap and its count, wherever they are written.

``Tombstones.count`` answers "is anything deleted?" for every selection,
so it must equal ``bitmap.sum()`` after every path that writes the
bitmap: deletes (with duplicates and already-deleted rows), a restored
checkpoint bitmap, growth, checkpoint load and WAL replay — on the plain
table and on the shard tables of a sharded database, which share the class.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import load_database, save_database
from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.shard.database import ShardedDatabase
from repro.storage.tombstones import Tombstones
from repro.wal import recover_database

NUM_ROWS = 1024
CONFIG = AdaptiveConfig(background_mapping=False)


def _consistent(tombstones: Tombstones) -> bool:
    return tombstones.count == int(tombstones._deleted.sum())


class TestCount:
    def test_duplicates_and_repeats_count_once(self):
        stones = Tombstones(16)
        assert stones.delete_rows(np.array([3, 3, 5, 3])) == 2
        assert stones.delete_rows(np.array([5, 6, 6])) == 1
        assert stones.delete_rows(np.array([3, 5, 6])) == 0
        assert stones.count == 3 and _consistent(stones)

    def test_empty_delete_and_bounds(self):
        stones = Tombstones(4)
        assert stones.delete_rows(np.array([], dtype=np.int64)) == 0
        for bad in ([4], [-1], [0, 9]):
            with pytest.raises(IndexError):
                stones.delete_rows(np.array(bad))
        assert stones.count == 0 and _consistent(stones)
        with pytest.raises(IndexError):
            stones.is_deleted(4)

    @settings(max_examples=100, deadline=None)
    @given(
        batches=st.lists(
            st.lists(st.integers(0, 39), max_size=12), max_size=8
        )
    )
    def test_count_tracks_the_bitmap(self, batches):
        stones = Tombstones(40)
        model: set[int] = set()
        for batch in batches:
            fresh = stones.delete_rows(np.array(batch, dtype=np.int64))
            assert fresh == len(set(batch) - model)
            model |= set(batch)
            assert stones.count == len(model) and _consistent(stones)

    def test_restore_and_grow(self):
        stones = Tombstones(8)
        stones.delete_rows(np.array([1]))
        mask = np.zeros(8, dtype=bool)
        mask[[0, 2, 7]] = True
        stones.restore(mask)
        assert stones.count == 3 and _consistent(stones)
        mask[:] = False  # the caller's array is not the bitmap
        assert stones.count == 3 and stones.is_deleted(7)
        stones.grow(4)
        assert stones._deleted.size == 12 and stones.count == 3
        assert not stones.is_deleted(11) and _consistent(stones)
        with pytest.raises(ValueError):
            stones.restore(np.zeros(8, dtype=bool))
        stones.restore(np.zeros(12, dtype=bool))
        assert stones.count == 0 and stones.mask() is None


class TestNoneIffNothingDeleted:
    """``live_row_mask`` is None exactly while the count is zero."""

    def test_mask_filter_and_copy(self):
        stones = Tombstones(8)
        rows = np.array([0, 3, 4])
        assert stones.live_row_mask(rows) is None
        assert stones.mask() is None
        assert stones.filter_live(rows).tolist() == [0, 3, 4]
        stones.delete_rows(np.array([3]))
        assert stones.live_row_mask(rows).tolist() == [True, False, True]
        assert stones.filter_live(rows).tolist() == [0, 4]
        copy = stones.mask()
        copy[:] = True  # a copy: pin-time readers keep theirs
        assert stones.count == 1 and not stones.is_deleted(0)

    def test_table_probe_follows_restore(self):
        with AdaptiveDatabase(config=CONFIG) as db:
            table = db.create_table("t", {"x": np.arange(NUM_ROWS)})
            rows = np.arange(10)
            assert table.tombstones.live_row_mask(rows) is None
            table.delete_rows(np.array([4]))
            assert table.tombstones.live_row_mask(rows) is not None
            assert table.num_live_rows == NUM_ROWS - 1 and table.is_deleted(4)
            table.tombstones.restore(np.zeros(NUM_ROWS, dtype=bool))
            assert table.tombstones.live_row_mask(rows) is None
            assert table.tombstones.mask() is None


class TestEveryWriter:
    def test_table_growth_keeps_the_count(self):
        with AdaptiveDatabase(config=CONFIG) as db:
            table = db.create_table("t", {"x": np.arange(NUM_ROWS)})
            assert db.delete("t", "x", 10, 19) == 10
            db.insert("t", {"x": 5_000_000})
            db.flush_inserts("t")
            assert table.num_rows == NUM_ROWS + 1
            assert table.tombstones.count == 10 and _consistent(table.tombstones)
            assert db.delete("t", "x", 15, 24) == 5  # ten asked, five new
            assert table.num_live_rows == NUM_ROWS + 1 - 15

    def test_checkpoint_restore(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        with AdaptiveDatabase(config=CONFIG) as db:
            db.create_table("t", {"x": np.arange(NUM_ROWS)})
            db.delete("t", "x", 0, 9)
            save_database(db, path)
        loaded = load_database(path)
        try:
            stones = loaded.table("t").tombstones
            assert stones.count == 10 and _consistent(stones)
            assert len(loaded.query("t", "x", 0, 19)) == 10
        finally:
            loaded.close()

    def test_wal_replay_of_deletes(self, tmp_path):
        db = AdaptiveDatabase(config=CONFIG, durable_dir=str(tmp_path))
        db.create_table("t", {"x": np.arange(NUM_ROWS)})
        db.delete("t", "x", 10, 20)
        db.delete("t", "x", 15, 30)  # overlaps the first
        db._wal._fh.flush()  # abandoned, not closed: a crash from inside
        recovered, _report = recover_database(tmp_path)
        try:
            stones = recovered.table("t").tombstones
            assert stones.count == 21 and _consistent(stones)
            assert len(recovered.query("t", "x", 0, 40)) == 41 - 21
        finally:
            recovered.close()

    def test_sharded_table_shares_the_class(self):
        with ShardedDatabase(shards=2, config=CONFIG) as db:
            db.create_table("t", {"x": np.arange(NUM_ROWS)})
            stones = [shard.table("t").tombstones for shard in db.shards]
            assert all(isinstance(s, Tombstones) for s in stones)
            assert all(s.live_row_mask(np.arange(2)) is None for s in stones)
            assert db.delete("t", "x", 100, 109) == 10
            assert db.delete("t", "x", 105, 114) == 5
            seam = db.column("t", "x").specs[1].row_start
            assert db.delete("t", "x", seam - 2, seam + 1) == 4
            assert [s.count for s in stones] == [17, 2]
            assert all(_consistent(s) for s in stones)
            assert sum(s.count for s in stones) == 19
            assert len(db.query("t", "x", 90, 120)) == 31 - 15
            assert len(db.query("t", "x", seam - 4, seam + 1)) == 6 - 4
            with pytest.raises(KeyError):
                db.update("t", "x", 100, 1)
