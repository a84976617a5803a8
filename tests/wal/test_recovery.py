"""Recovery semantics: checkpoint + tail replay, v2 archives, tiers."""

import json

import numpy as np
import pytest

from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    SUPPORTED_VERSIONS,
    load_database,
    save_database,
)
from repro.core.config import AdaptiveConfig
from repro.core.facade import CHECKPOINT_FILE, AdaptiveDatabase
from repro.tier import TierConfig
from repro.wal import DurabilityConfig, recover_database

NUM_ROWS = 1024
CONFIG = AdaptiveConfig(background_mapping=False)


def _values() -> np.ndarray:
    return np.arange(NUM_ROWS, dtype=np.int64)


def _durable(tmp_path, **kwargs) -> AdaptiveDatabase:
    return AdaptiveDatabase(
        config=CONFIG, durable_dir=str(tmp_path), **kwargs
    )


def _column_values(db, table="t", column="x") -> np.ndarray:
    result = db.query(table, column, -100, 10_000_000)
    order = np.argsort(result.rowids)
    return result.rowids[order], result.values[order]


class TestColdStartRecovery:
    def test_replays_the_whole_log(self, tmp_path):
        db = _durable(tmp_path)
        db.create_table("t", {"x": _values()})
        db.insert("t", {"x": 7_000_000})
        db.update("t", "x", 3, -5)
        db.delete("t", "x", 10, 20)
        want = _column_values(db)
        # Abandon without close: what a SIGKILL looks like from inside.
        db._wal._fh.flush()

        recovered, report = recover_database(tmp_path)
        try:
            assert report.started_cold
            assert report.checkpoint_lsn == 0
            assert report.replayed_ops == 4  # create+insert+update+delete
            got = _column_values(recovered)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            audit = recovered.audit()
            assert audit.ok, audit.render()
        finally:
            recovered.close()
        db.close()

    def test_empty_directory_recovers_to_empty_database(self, tmp_path):
        recovered, report = recover_database(tmp_path)
        try:
            assert report.started_cold
            assert report.replayed_records == 0
            assert recovered.table_names() == []
        finally:
            recovered.close()

    def test_clean_close_leaves_consistent_log(self, tmp_path):
        db = _durable(tmp_path)
        db.create_table("t", {"x": _values()})
        db.insert("t", {"x": 42})
        db.close()
        recovered, report = recover_database(tmp_path)
        try:
            assert report.torn is None
            assert report.truncated_bytes == 0
            assert recovered.table("t").num_live_rows == NUM_ROWS + 1
        finally:
            recovered.close()

    def test_torn_tail_is_truncated_and_reported(self, tmp_path):
        db = _durable(tmp_path, durability=DurabilityConfig(fsync="off"))
        db.create_table("t", {"x": _values()})
        db.insert("t", {"x": 1})
        db._wal._fh.flush()
        db._wal._fh.close()
        # Tear the tail by hand: chop the last three bytes.
        seg = db._wal._active_path
        raw = seg.read_bytes()
        seg.write_bytes(raw[:-3])

        recovered, report = recover_database(tmp_path)
        try:
            assert report.torn is not None
            assert report.truncated_bytes > 0
            # The torn insert was never acked-visible: only the create
            # survived.
            assert recovered.table("t").num_live_rows == NUM_ROWS
            audit = recovered.audit()
            assert audit.ok, audit.render()
        finally:
            recovered.close()


class TestCheckpointRecovery:
    def test_replays_only_the_tail(self, tmp_path):
        db = _durable(tmp_path)
        db.create_table("t", {"x": _values()})
        db.insert("t", {"x": 100})
        db.checkpoint()
        db.insert("t", {"x": 200})
        want = _column_values(db)
        db._wal._fh.flush()

        recovered, report = recover_database(tmp_path)
        try:
            assert not report.started_cold
            assert report.checkpoint_lsn > 0
            # Only the post-checkpoint insert replays.
            assert report.replayed_ops == 1
            got = _column_values(recovered)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
        finally:
            recovered.close()
        db.close()

    def test_checkpoint_prunes_old_segments(self, tmp_path):
        db = _durable(
            tmp_path,
            durability=DurabilityConfig(segment_bytes=256),
        )
        db.create_table("t", {"x": _values()})
        for i in range(20):
            db.insert("t", {"x": i})
        segments_before = db.wal_status()["segments"]
        assert segments_before > 1
        db.checkpoint()
        assert db.wal_status()["segments"] < segments_before
        db.close()

    def test_recovered_database_keeps_journaling(self, tmp_path):
        db = _durable(tmp_path)
        db.create_table("t", {"x": _values()})
        db.close()
        recovered, _ = recover_database(tmp_path)
        lsn_before = recovered._wal.lsn
        recovered.insert("t", {"x": 9})
        assert recovered._wal.lsn == lsn_before + 1
        assert recovered._last_acked_lsn == recovered._wal.lsn
        recovered.close()

    def test_delete_replay_merges_when_marker_was_dropped(self, tmp_path):
        """A delete whose rowids outrun the physical table forces the
        merge the dead session performed implicitly."""
        db = _durable(tmp_path)
        db.create_table("t", {"x": _values()})
        db.insert("t", {"x": 5_000_000})
        db.flush_inserts("t")
        db.delete("t", "x", 5_000_000, 5_000_000)
        db._wal._fh.flush()
        # Drop the merge marker from the log: rewrite segments without it.
        from repro.wal.records import encode_record, scan_wal

        scan = scan_wal(tmp_path)
        kept = [r for r in scan.records if r["type"] != "merge"]
        for path in scan.segments:
            path.unlink()
        (tmp_path / scan.segments[0].name).write_bytes(
            b"".join(encode_record(r) for r in kept)
        )
        recovered, _ = recover_database(tmp_path)
        try:
            assert recovered.table("t").num_live_rows == NUM_ROWS
            _, values = _column_values(recovered)
            assert 5_000_000 not in values
        finally:
            recovered.close()
        db.close()


class TestCheckpointV2:
    def test_version_constant(self):
        assert CHECKPOINT_VERSION == 2
        assert set(SUPPORTED_VERSIONS) == {1, 2}

    def test_staged_rows_and_tombstones_round_trip(self, tmp_path):
        """The v2 regression: staged write-buffer rows flush into the
        archive and tombstones persist, so a reload is exact."""
        path = str(tmp_path / "ck.npz")
        with AdaptiveDatabase(config=CONFIG) as db:
            db.create_table("t", {"x": _values()})
            db.insert("t", {"x": 3_000_000})  # staged, below threshold
            db.delete("t", "x", 0, 9)
            want_live = db.table("t").num_live_rows
            save_database(db, path)
            # Saving flushed the staged row into the columns.
            assert db.table("t").num_rows == NUM_ROWS + 1

        loaded = load_database(path)
        try:
            table = loaded.table("t")
            assert table.num_rows == NUM_ROWS + 1
            assert table.num_live_rows == want_live
            assert table.is_deleted(5)
            assert not table.is_deleted(500)
            _, values = _column_values(loaded)
            assert 3_000_000 in values
        finally:
            loaded.close()

    def test_version_1_archive_still_loads(self, tmp_path):
        """Backward compat: a v1 archive (no tombstones, no wal_lsn)
        loads as fully-live tables with a zero watermark."""
        path = str(tmp_path / "ck.npz")
        with AdaptiveDatabase(config=CONFIG) as db:
            db.create_table("t", {"x": _values()})
            save_database(db, path)

        # Rewrite the archive as version 1.
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        manifest = json.loads(
            bytes(arrays["__manifest__"].tobytes()).decode()
        )
        manifest["version"] = 1
        manifest.pop("wal_lsn", None)
        for meta in manifest["tables"].values():
            meta.pop("tombstones", None)
        arrays["__manifest__"] = np.frombuffer(
            json.dumps(manifest).encode(), dtype=np.uint8
        )
        np.savez_compressed(path, **arrays)

        loaded = load_database(path)
        try:
            assert loaded.table("t").num_live_rows == NUM_ROWS
            assert loaded._checkpoint_wal_lsn == 0
        finally:
            loaded.close()

    def test_unsupported_version_rejected(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        with AdaptiveDatabase(config=CONFIG) as db:
            db.create_table("t", {"x": _values()})
            save_database(db, path)
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        manifest = json.loads(
            bytes(arrays["__manifest__"].tobytes()).decode()
        )
        manifest["version"] = 99
        arrays["__manifest__"] = np.frombuffer(
            json.dumps(manifest).encode(), dtype=np.uint8
        )
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="version"):
            load_database(path)

    def test_checkpoint_file_lands_atomically(self, tmp_path):
        db = _durable(tmp_path)
        db.create_table("t", {"x": _values()})
        db.checkpoint()
        assert (tmp_path / CHECKPOINT_FILE).exists()
        assert not (tmp_path / "checkpoint.tmp.npz").exists()
        db.close()


class TestTieredRecovery:
    def test_spill_rebuilt_and_debt_reset(self, tmp_path):
        tiering = TierConfig(hot_budget=1)
        db = _durable(tmp_path, tiering=tiering)
        db.create_table("t", {"x": _values()})
        db.query("t", "x", 0, NUM_ROWS)
        want = _column_values(db)
        db._wal._fh.flush()

        recovered, _ = recover_database(tmp_path, tiering=tiering)
        try:
            store = recovered.table("t").column("x").tier
            assert store.governor.debt == 0
            assert store.hot_count() <= 1
            got = _column_values(recovered)
            assert np.array_equal(got[1], want[1])
            audit = recovered.audit()
            assert audit.ok, audit.render()
        finally:
            recovered.close()
        db.close()


class TestDurabilityArgValidation:
    def test_durability_without_dir_rejected(self):
        with pytest.raises(ValueError, match="durable_dir"):
            AdaptiveDatabase(durability=DurabilityConfig())

    def test_bad_fsync_policy_rejected(self):
        with pytest.raises(ValueError, match="fsync"):
            DurabilityConfig(fsync="sometimes")
