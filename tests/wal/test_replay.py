"""Replay goes through the facade's own write steps.

Runs of binary ``insert`` rows of one table are staged at once by the
write buffer's staging step (widths checked), and a ``delete`` replays
through ``AdaptiveDatabase.delete_rows``, which merges staged rows first
— so a log whose merge marker was dropped under ``WalFullError`` needs
no special case to recover to the same mirror.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import DEFAULT_WRITE_BUFFER_ROWS, AdaptiveDatabase
from repro.wal import DurabilityConfig, WriteAheadLog, recover_database, scan_wal

CONFIG = AdaptiveConfig(background_mapping=False)
INITIAL = {
    "k": np.arange(64, dtype=np.int64),
    "b": np.arange(64, dtype=np.int64) + 1000,
}


def _durable(directory, max_bytes=None) -> AdaptiveDatabase:
    return AdaptiveDatabase(
        config=CONFIG,
        durable_dir=str(directory),
        durability=DurabilityConfig(fsync="off", max_bytes=max_bytes),
    )


def _recover(directory) -> AdaptiveDatabase:
    db, _ = recover_database(directory, durability=DurabilityConfig(fsync="off"))
    return db


def _mirror(db, table="t") -> dict:
    """Columns with staged rows merged in, and the tombstoned rowids."""
    db.flush_inserts(table)
    t = db.table(table)
    mask = t.tombstones.mask()
    return {
        "columns": {name: c.values().tolist() for name, c in t.columns.items()},
        "deleted": [] if mask is None else np.flatnonzero(mask).tolist(),
    }


def _fill_until_the_merge_marker_is_dropped(directory) -> AdaptiveDatabase:
    """A session whose threshold merge finds the log one marker short
    of its cap: the marker is dropped, the merge happens anyway."""
    probe = _durable(directory / "probe")
    probe.create_table("t", INITIAL)
    row_bytes = 35  # one binary row frame of a two-column table "t"
    cap = probe.wal_status()["total_bytes"] + DEFAULT_WRITE_BUFFER_ROWS * row_bytes + 10
    probe.close()
    db = _durable(directory / "db", max_bytes=cap)
    db.create_table("t", INITIAL)
    for i in range(DEFAULT_WRITE_BUFFER_ROWS):
        db.insert("t", {"k": 5000 + i, "b": -i})
    assert db.wal_status()["full"]
    assert not db._write_buffers["t"]  # merged without its marker
    return db


def test_a_dropped_merge_marker_recovers_to_the_same_mirror(tmp_path):
    db = _fill_until_the_merge_marker_is_dropped(tmp_path)
    want = _mirror(db)
    db.close()
    kinds = [r["type"] for r in scan_wal(tmp_path / "db").records]
    assert "merge" not in kinds
    assert kinds.count("insert") == DEFAULT_WRITE_BUFFER_ROWS
    recovered = _recover(tmp_path / "db")
    try:
        assert len(recovered._write_buffers["t"]) == DEFAULT_WRITE_BUFFER_ROWS
        assert _mirror(recovered) == want
    finally:
        recovered.close()


def test_a_delete_behind_a_dropped_merge_marker_finds_its_rows(tmp_path):
    """The delete names rowids of rows that replay leaves staged; the
    facade's ``delete_rows`` merges them first, as the live session
    had."""
    db = _fill_until_the_merge_marker_is_dropped(tmp_path)
    doomed = [3, 64 + 5, 64 + DEFAULT_WRITE_BUFFER_ROWS - 1]
    db.close()
    # A later writer, with room in the log, journals the delete.
    wal = WriteAheadLog(tmp_path / "db", DurabilityConfig(fsync="off"))
    wal.append({"type": "delete", "table": "t", "rowids": doomed})
    wal.close()
    live = _durable(tmp_path / "mirror")
    live.create_table("t", INITIAL)
    for i in range(DEFAULT_WRITE_BUFFER_ROWS):
        live.insert("t", {"k": 5000 + i, "b": -i})
    live.delete_rows("t", np.array(doomed, dtype=np.int64))
    want = _mirror(live)
    live.close()
    recovered = _recover(tmp_path / "db")
    try:
        assert _mirror(recovered) == want
        assert want["deleted"] == doomed
    finally:
        recovered.close()


def test_row_runs_of_interleaved_tables_replay_in_log_order(tmp_path):
    db = _durable(tmp_path)
    db.create_table("t", INITIAL)
    db.create_table("u", {"x": np.arange(8, dtype=np.int64)})
    for i in range(300):
        db.insert("t", {"k": i, "b": -i})
        if i % 7 == 0:
            db.insert("u", {"x": 100 + i})
        if i == 150:
            db.update("t", "k", 2, 99)
            db.flush_inserts("u")
        if i == 200:
            db.delete_rows("t", np.array([1, 64 + 10], dtype=np.int64))
    want = {name: _mirror(db, name) for name in ("t", "u")}
    db._wal._fh.flush()  # abandoned, not closed: rows are still staged
    recovered = _recover(tmp_path)
    try:
        assert recovered.last_recovery.replayed_ops == len(
            [r for r in scan_wal(tmp_path).records if r["type"] != "merge"]
        )
        assert {name: _mirror(recovered, name) for name in ("t", "u")} == want
    finally:
        recovered.close()
        db.close()


def test_a_row_of_the_wrong_width_is_refused_by_replay(tmp_path):
    db = _durable(tmp_path)
    db.create_table("t", INITIAL)
    db.close()
    wal = WriteAheadLog(tmp_path, DurabilityConfig(fsync="off"))
    wal.append_row("t", (1, 2, 3))  # three values for a two-column table
    wal.close()
    with pytest.raises(ValueError, match="3 values"):
        _recover(tmp_path)
