"""The served half of the shared-column regression.

A wire session (structured ``query``/``update`` and SQL ``execute``), an
in-process ``sql.Session(db=db)`` and plain ``db.query`` all read one
column that the wire session keeps updating, commits coming every 16
ops.  Before SQL read through ``db.query`` the SQL side kept a second
storage layer on the column and the two layers took turns
draining its one pending-update log, so each missed the other's batches
(``tests/sql/test_shared_column.py`` has the in-process half and the
account).  Every answer is checked against a numpy mirror, and every
way in must reach the one layer the database owns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.server import DatabaseManager, QueryServer, ServerClient, SessionOptions
from repro.sql import Session as SqlSession
from repro.workloads.distributions import sine

from ..conftest import layer_hooks

NUM_PAGES = 512
READS = 240


@pytest.fixture
def served():
    with DatabaseManager() as manager:
        db = manager.create_database(config=AdaptiveConfig(background_mapping=False))
        values = sine(NUM_PAGES, seed=0)
        db.create_table("t", {"v": values.copy()})
        with QueryServer(manager=manager) as server:
            yield manager, db, server, values


def test_every_entry_point_reaches_the_databases_layer(served):
    manager, db, _server, values = served
    with manager.open_session() as session, SqlSession(db=db) as sql:
        statement = "SELECT COUNT(*) FROM t WHERE v BETWEEN 0 AND 1000"
        assert session.execute(statement).ok
        sql.execute(statement)
        assert session.query("t", "v", 0, 1_000).ok
        layer = db.layer("t", "v")
        assert layer_hooks(db.table("t").column("v")) == [layer._note_write]
        assert session._sql_session().db is db
        assert list(db._layers) == [("t", "v")]
    # neither session's close took the layer with it
    assert db.layer("t", "v") is layer
    assert len(db.query("t", "v", 0, 1_000)) == int(
        ((values >= 0) & (values <= 1_000)).sum()
    )


def test_served_and_in_process_reads_agree_with_the_mirror(served):
    manager, db, server, mirror = served
    rng = np.random.default_rng(7)
    lo_dom, hi_dom = int(mirror.min()), int(mirror.max())
    width = (hi_dom - lo_dom) // 100
    host, port = server.address
    wrong: list[tuple[int, str]] = []
    with ServerClient(
        host, port, options=SessionOptions(autocommit=False)
    ) as client, SqlSession(db=db) as sql:
        ops = committed = 0
        for read in range(READS):
            lo = int(rng.integers(lo_dom, hi_dom - width))
            hi = lo + width
            rows = np.flatnonzero((mirror >= lo) & (mirror <= hi))
            want = (int(rows.size), int(mirror[rows].sum()))
            statement = f"SELECT COUNT(*), SUM(v) FROM t WHERE v BETWEEN {lo} AND {hi}"
            way = ("wire query", "wire sql", "db.query", "sql session")[read % 4]
            if way == "wire query":
                data = client.query("t", "v", lo, hi).raise_for_error().data
                got = (data["rows"], data["value_sum"])
            elif way == "wire sql":
                count, total = client.execute(statement).raise_for_error().rows[0]
                got = (count, total or 0)
            else:
                # in-process callers share the served database's lock
                with manager.lock():
                    if way == "db.query":
                        result = db.query("t", "v", lo, hi)
                        got = (len(result), int(result.values.sum()))
                    else:
                        count, total = sql.execute(statement).rows[0]
                        got = (count, total or 0)
            if got != want:
                wrong.append((read, way))
            ops += 1
            if read % 3 == 2:
                row = int(rng.integers(0, mirror.size))
                value = int(rng.integers(lo_dom, hi_dom))
                client.update("t", "v", row, value).raise_for_error()
                mirror[row] = value
                ops += 1
            if ops // 16 > committed:
                client.commit().raise_for_error()
                committed = ops // 16
    assert wrong == []
