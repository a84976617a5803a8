"""Served SQL writes on a durable database: acked means journaled.

A wire session's SQL ``UPDATE``/``DELETE`` used to be acknowledged
without reaching the WAL, so a crash after the ack lost them.  They now
run through the facade's journal: the LSN advances, a crash copy of the
live directory recovers them, and a write the full log refuses comes
back as an error response with nothing applied.  ``CREATE TABLE`` and
``INSERT`` used to stay inside the wire session that ran them: another
session saw no such table, could create it again, and the first
session's acked rows were lost.  They now write through the database,
so every session sees one table.  The in-process half is
``tests/wal/test_sql_durability.py``.
"""

from __future__ import annotations

import shutil

import numpy as np

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.server import DatabaseManager, QueryServer, ServerClient
from repro.wal import DurabilityConfig, recover_database

NUM_ROWS = 256
CONFIG = AdaptiveConfig(background_mapping=False)


def _data() -> dict:
    return {"k": np.arange(NUM_ROWS), "v": np.arange(NUM_ROWS)}


def _serve(path, durability: DurabilityConfig | None = None):
    manager = DatabaseManager()
    db = manager.create_database(
        config=CONFIG, durable_dir=str(path), durability=durability
    )
    db.create_table("t", _data())
    return manager, db, QueryServer(manager=manager)


def test_served_sql_writes_are_journaled_and_survive_a_crash_copy(tmp_path):
    manager, db, server = _serve(tmp_path / "live")
    with server, ServerClient(*server.address) as client:
        before = db.wal_status()["lsn"]
        client.execute("UPDATE t SET v = 99999 WHERE k = 5").raise_for_error()
        client.execute("DELETE FROM t WHERE k BETWEEN 10 AND 19").raise_for_error()
        assert db.wal_status()["lsn"] == before + 2
        # The crash: copy the directory while the server still runs.
        shutil.copytree(tmp_path / "live", tmp_path / "copy")
    recovered, _report = recover_database(tmp_path / "copy")
    try:
        assert recovered.table("t").column("v").read(5) == 99999
        assert recovered.table("t").num_live_rows == NUM_ROWS - 10
        result = recovered.query("t", "k", 10, 19)
        assert len(result) == 0
    finally:
        recovered.close()
    manager.close()


def test_sql_update_against_a_full_log_is_an_error_and_applies_nothing(tmp_path):
    with AdaptiveDatabase(config=CONFIG, durable_dir=str(tmp_path / "probe")) as probe:
        probe.create_table("t", _data())
        create_bytes = probe.wal_status()["total_bytes"]
    # Room for the create record, none for an update record.
    manager, db, server = _serve(
        tmp_path / "live", DurabilityConfig(max_bytes=create_bytes + 8)
    )
    with server, ServerClient(*server.address) as client:
        response = client.execute("UPDATE t SET v = 99999 WHERE k = 5")
        assert not response.ok
        assert response.error_details == "WalFullError"
        assert db.wal_status()["full"]
        assert db.table("t").column("v").read(5) == 5
        assert client.execute("SELECT v FROM t WHERE k = 5").rows == [(5,)]
    manager.close()


def test_sql_created_tables_are_shared_across_served_sessions(tmp_path):
    manager, db, server = _serve(tmp_path / "live")
    with server, ServerClient(*server.address) as a, ServerClient(
        *server.address
    ) as b:
        a.execute("CREATE TABLE s (x, y)").raise_for_error()
        a.execute("INSERT INTO s VALUES (1, 10), (2, 20)").raise_for_error()
        assert b.execute("SELECT * FROM s ORDER BY rowid").rows == [(1, 10), (2, 20)]
        response = b.execute("CREATE TABLE s (x)")
        assert not response.ok
        assert "already exists" in response.error
        b.execute("INSERT INTO s VALUES (3, 30)").raise_for_error()
        assert a.execute("SELECT * FROM s ORDER BY rowid").rows == [
            (1, 10), (2, 20), (3, 30)
        ]
        shutil.copytree(tmp_path / "live", tmp_path / "copy")
    recovered, _report = recover_database(tmp_path / "copy")
    try:
        recovered.flush_inserts("s")
        assert recovered.table("s").column("x").values().tolist() == [1, 2, 3]
        assert recovered.table("s").column("y").values().tolist() == [10, 20, 30]
    finally:
        recovered.close()
    manager.close()
