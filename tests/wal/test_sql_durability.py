"""SQL writes on a durable database are journaled like structured ones.

SQL ``UPDATE`` used to call ``Table.update`` and ``DELETE``
``Table.delete_rows``, past the facade's journal: both returned OK while
the WAL LSN stayed put, and a crash copy recovered the old values and
every deleted row.  Both now go through ``db.update`` /
``db.delete_rows``.  ``CREATE TABLE`` and ``INSERT`` used to be held in
the SQL session until its first read, so acked rows never reached the
log; they are now ``db.create_table`` of empty columns and one
``db.insert`` per row.  Each test recovers a *crash copy* — the durable
directory copied while the database is still open, as a kill would
leave it — so nothing a clean close flushes can hide a lost write.

The served half (a wire session, and a full log) is
``tests/server/test_sql_durability.py``.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import DEFAULT_WRITE_BUFFER_ROWS, AdaptiveDatabase
from repro.native import is_supported
from repro.sql import ExecutionError, Session
from repro.wal import DurabilityConfig, WalFullError, recover_database, scan_wal
from repro.wal.records import row_frame_bytes

NUM_ROWS = 512
CONFIG = AdaptiveConfig(background_mapping=False)
BACKENDS = [
    "simulated",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(not is_supported(), reason="native rewiring unsupported"),
    ),
]


def _durable(path) -> AdaptiveDatabase:
    db = AdaptiveDatabase(config=CONFIG, durable_dir=str(path))
    db.create_table("t", {"k": np.arange(NUM_ROWS), "v": np.arange(NUM_ROWS)})
    return db


def _sql_writes(sql: Session) -> None:
    assert sql.execute("UPDATE t SET v = 99999 WHERE k = 5").message == "1 rows updated"
    assert sql.execute("DELETE FROM t WHERE k BETWEEN 10 AND 19").message == (
        "10 rows deleted"
    )


def _recover_crash_copy(live, copy):
    """Copy a live durable directory and recover the copy."""
    shutil.copytree(live, copy)
    return recover_database(copy)


def _assert_writes_survived(db: AdaptiveDatabase) -> None:
    result = db.query("t", "k", 0, NUM_ROWS)
    order = np.argsort(result.rowids)
    rowids = result.rowids[order]
    want = np.setdiff1d(np.arange(NUM_ROWS), np.arange(10, 20))
    assert np.array_equal(rowids, want)
    v = db.table("t").column("v")
    assert v.read(5) == 99999
    assert db.table("t").num_live_rows == NUM_ROWS - 10


def test_sql_update_and_delete_advance_the_lsn(tmp_path):
    db = _durable(tmp_path / "live")
    sql = Session(db=db)
    before = db.wal_status()["lsn"]
    sql.execute("UPDATE t SET v = 99999 WHERE k = 5")
    assert db.wal_status()["lsn"] == before + 1
    sql.execute("UPDATE t SET v = 7 WHERE k BETWEEN 30 AND 32")
    assert db.wal_status()["lsn"] == before + 4  # one record per row
    sql.execute("DELETE FROM t WHERE k BETWEEN 10 AND 19")
    assert db.wal_status()["lsn"] == before + 5  # one record per statement
    assert db.wal_status()["last_acked_lsn"] == before + 5
    db.close()


def test_an_out_of_range_delete_is_refused_before_the_log(tmp_path):
    db = _durable(tmp_path / "live")
    before = db.wal_status()["lsn"]
    with pytest.raises(IndexError):
        db.delete_rows("t", np.array([3, NUM_ROWS]))
    assert db.wal_status()["lsn"] == before
    assert db.table("t").num_live_rows == NUM_ROWS
    db.close()


def test_sql_writes_survive_a_crash_copy_of_the_live_log(tmp_path):
    db = _durable(tmp_path / "live")
    _sql_writes(Session(db=db))
    recovered, report = _recover_crash_copy(tmp_path / "live", tmp_path / "copy")
    try:
        assert report.started_cold
        assert report.replayed_ops == 3  # create + update + delete
        _assert_writes_survived(recovered)
        audit = recovered.audit()
        assert audit.ok, audit.render()
    finally:
        recovered.close()
    db.close()


def test_sql_writes_survive_a_checkpoint_plus_tail(tmp_path):
    db = _durable(tmp_path / "live")
    sql = Session(db=db)
    sql.execute("UPDATE t SET v = 99999 WHERE k = 5")
    db.checkpoint()
    sql.execute("DELETE FROM t WHERE k BETWEEN 10 AND 19")
    sql.execute("UPDATE t SET v = -1 WHERE k = 40")
    recovered, report = _recover_crash_copy(tmp_path / "live", tmp_path / "copy")
    try:
        assert not report.started_cold
        assert report.replayed_ops == 2  # the tail: delete + update
        _assert_writes_survived(recovered)
        assert recovered.table("t").column("v").read(40) == -1
    finally:
        recovered.close()
    db.close()


def test_sql_create_and_insert_survive_a_crash_copy_without_a_read(tmp_path):
    db = AdaptiveDatabase(config=CONFIG, durable_dir=str(tmp_path / "live"))
    sql = Session(db=db)
    sql.execute("CREATE TABLE s (a, b)")
    before = db.wal_status()["lsn"]
    assert sql.execute("INSERT INTO s VALUES (1, 2), (3, 4), (5, 6)").message == (
        "3 rows inserted"
    )
    assert db.wal_status()["lsn"] == before + 3  # one frame per row
    recovered, report = _recover_crash_copy(tmp_path / "live", tmp_path / "copy")
    try:
        assert report.replayed_ops == 4  # create + three rows
        rows = Session(db=recovered).execute("SELECT * FROM s ORDER BY rowid").rows
        assert rows == [(1, 2), (3, 4), (5, 6)]
        audit = recovered.audit()
        assert audit.ok, audit.render()
    finally:
        recovered.close()
    db.close()


def test_a_refused_insert_statement_journals_and_stages_nothing(tmp_path):
    db = _durable(tmp_path / "live")
    sql = Session(db=db)
    sql.execute("INSERT INTO t VALUES (1000, 1000)")  # staged, not merged
    before = db.wal_status()["lsn"]
    with pytest.raises(ExecutionError, match="int64"):
        sql.execute(f"INSERT INTO t VALUES (1001, 1001), (1002, {2**63})")
    assert db.wal_status()["lsn"] == before
    assert db.table("t").num_rows == NUM_ROWS
    assert db.flush_inserts("t")["merged_rows"] == 1  # the earlier row alone
    assert db.table("t").get_record(NUM_ROWS) == (1000, 1000)
    db.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_empty_sql_table_answers_audits_and_recovers(tmp_path, backend):
    db = AdaptiveDatabase(
        config=CONFIG, durable_dir=str(tmp_path / "live"), backend=backend
    )
    sql = Session(db=db)
    sql.execute("CREATE TABLE e (a)")
    assert sql.execute("SELECT * FROM e").rows == []
    assert sql.execute("SELECT COUNT(*) FROM e WHERE a BETWEEN 0 AND 9").scalar() == 0
    explain = sql.execute("EXPLAIN SELECT a FROM e WHERE a BETWEEN 0 AND 9").message
    assert "estimated: ~0 rows (0.00%), ~0 pages" in explain
    assert "view index over 1 physical pages" in sql.execute("SHOW VIEWS e.a").message
    audit = db.audit()
    assert audit.ok, audit.render()
    db.checkpoint()
    recovered, report = _recover_crash_copy(tmp_path / "live", tmp_path / "copy")
    try:
        assert not report.started_cold
        assert recovered.table("e").num_rows == 0
        assert len(recovered.query("e", "a", 0, 9)) == 0
        audit = recovered.audit()
        assert audit.ok, audit.render()
    finally:
        recovered.close()
    db.close()


def _capped(path, rows_room: int, spare: int = 0):
    """A durable 4-row table ``t (v)`` whose log has room for exactly
    ``rows_room`` row frames (plus ``spare`` bytes) after the create."""
    probe = AdaptiveDatabase(config=CONFIG, durable_dir=str(path) + "-probe")
    probe.create_table("t", {"v": np.arange(4)})
    create_bytes = probe.wal_status()["total_bytes"]
    probe.close()
    cap = create_bytes + rows_room * row_frame_bytes("t", 1) + spare
    db = AdaptiveDatabase(
        config=CONFIG,
        durable_dir=str(path),
        durability=DurabilityConfig(max_bytes=cap),
    )
    db.create_table("t", {"v": np.arange(4)})
    return db


def test_an_insert_statement_the_log_cap_refuses_part_way_stages_nothing(tmp_path):
    db = _capped(tmp_path / "live", rows_room=2, spare=4)
    sql = Session(db=db)
    before = db.wal_status()
    with pytest.raises(WalFullError):
        sql.execute("INSERT INTO t VALUES (10), (11), (12), (13)")
    assert sql.execute("SELECT COUNT(*) FROM t").scalar() == 4
    after = db.wal_status()
    assert (after["total_bytes"], after["lsn"]) == (before["total_bytes"], before["lsn"])
    recovered, report = _recover_crash_copy(tmp_path / "live", tmp_path / "copy")
    try:
        assert report.replayed_ops == 1  # the create alone
        assert recovered.table("t").num_rows == 4
        assert Session(db=recovered).execute("SELECT COUNT(*) FROM t").scalar() == 4
    finally:
        recovered.close()
    db.close()


def test_an_insert_crossing_the_merge_threshold_merges_after_its_last_row(tmp_path):
    """1030 rows fit the cap, a merge record after row 1024 would not:
    the statement journals every row, and its one merge follows them."""
    count = DEFAULT_WRITE_BUFFER_ROWS + 6
    db = _capped(tmp_path / "live", rows_room=count)
    sql = Session(db=db)
    values = ", ".join(f"({100 + i})" for i in range(count))
    assert sql.execute(f"INSERT INTO t VALUES {values}").message == (
        f"{count} rows inserted"
    )
    assert db.table("t").num_rows == 4 + count  # merged at the threshold
    assert sql.execute("SELECT COUNT(*) FROM t").scalar() == 4 + count
    kinds = [r["type"] for r in scan_wal(tmp_path / "live").records]
    assert kinds == ["create"] + ["insert"] * count  # the merge did not fit
    recovered, _ = _recover_crash_copy(tmp_path / "live", tmp_path / "copy")
    try:
        result = Session(db=recovered).execute("SELECT * FROM t ORDER BY rowid").rows
        assert [v for (v,) in result] == [0, 1, 2, 3] + [100 + i for i in range(count)]
    finally:
        recovered.close()
    db.close()


def test_an_uncapped_insert_crossing_the_threshold_logs_its_merge_last(tmp_path):
    count = DEFAULT_WRITE_BUFFER_ROWS + 6
    db = AdaptiveDatabase(config=CONFIG, durable_dir=str(tmp_path / "live"))
    db.create_table("t", {"v": np.arange(4)})
    assert db.insert_rows("t", [(100 + i,) for i in range(count)]) == 4  # first rowid
    assert db.table("t").num_rows == 4 + count
    kinds = [r["type"] for r in scan_wal(tmp_path / "live").records]
    assert kinds == ["create"] + ["insert"] * count + ["merge"]
    rows = [{"v": i} for i in range(DEFAULT_WRITE_BUFFER_ROWS)]
    rowids = [db.insert("t", row) for row in rows]  # the last one merges
    assert rowids == list(range(4 + count, 4 + count + DEFAULT_WRITE_BUFFER_ROWS))
    assert db.table("t").num_rows == 4 + count + DEFAULT_WRITE_BUFFER_ROWS
    db.close()
