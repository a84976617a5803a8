"""SQL sees rows ``db.insert`` staged, and honours the auto-flush policy.

SQL used to read the columns beside the facade: a row staged in the
write buffer was invisible to ``SELECT``/``DELETE`` (``db.query`` saw
it), and ``UPDATE`` skipped ``auto_flush_threshold``.  A statement now
merges its table's staged rows first and writes through ``db.update``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.sql import Session

NUM_ROWS = 10


@pytest.fixture
def db():
    with AdaptiveDatabase(AdaptiveConfig(background_mapping=False)) as database:
        database.create_table(
            "t", {"k": np.arange(NUM_ROWS), "v": 10 * np.arange(NUM_ROWS)}
        )
        yield database


def test_count_sees_a_staged_row(db):
    db.insert("t", {"k": 50, "v": 500})
    sql = Session(db=db)
    assert sql.execute("SELECT COUNT(*) FROM t WHERE k = 50").scalar() == 1
    assert len(db.query("t", "k", 50, 50)) == 1


def test_select_projects_a_staged_row(db):
    rowid = db.insert("t", {"k": 50, "v": 500})
    sql = Session(db=db)
    result = sql.execute("SELECT k, v FROM t WHERE k >= 8 ORDER BY rowid")
    assert result.rows == [(8, 80), (9, 90), (50, 500)]
    assert rowid == NUM_ROWS
    assert sql.execute("SELECT COUNT(*) FROM t").scalar() == NUM_ROWS + 1


def test_delete_reaches_a_staged_row(db):
    db.insert("t", {"k": 50, "v": 500})
    sql = Session(db=db)
    assert sql.execute("DELETE FROM t WHERE k = 50").message == "1 rows deleted"
    assert len(db.query("t", "k", 50, 50)) == 0
    assert db.table("t").num_live_rows == NUM_ROWS


def test_update_honours_auto_flush():
    with AdaptiveDatabase(
        AdaptiveConfig(background_mapping=False), auto_flush_threshold=1
    ) as db:
        db.create_table("t", {"k": np.arange(NUM_ROWS), "v": np.arange(NUM_ROWS)})
        sql = Session(db=db)
        sql.execute("SELECT v FROM t WHERE v BETWEEN 0 AND 3")
        sql.execute("UPDATE t SET v = 7 WHERE k BETWEEN 0 AND 3")
        assert len(db.table("t").pending_updates("v")) == 0
        assert sql.execute("SELECT COUNT(*) FROM t WHERE v = 7").scalar() == 5
