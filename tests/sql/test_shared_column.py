"""SQL and structured reads on one updated column: one layer, right rows.

``sql.executor`` used to build a :class:`~repro.core.query.QueryEngine`
owning a *second* ``AdaptiveStorageLayer`` per column, beside the one
``AdaptiveDatabase.query`` uses.  Both drained the table's single
pending-update log: whichever read first consumed the batch, and the
other layer's partial views never learned of rows an update had moved
onto pages they do not map.  The 600-read stream below returned 72 wrong
``db.query`` results and 41 wrong SQL results that way.  An engine now
selects through ``db.query`` itself, so the database's layer is the only
one.

The served half of this regression (a server session beside these two)
is ``tests/server/test_shared_column.py``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.sql import Session
from repro.vm.constants import VALUES_PER_PAGE
from repro.workloads.distributions import sine

from ..conftest import layer_hooks


def test_the_600_read_stream_returns_no_wrong_answer():
    """{3 reads, 1 ``db.update``}, every 4th read an aggregate through
    ``Session(db=db)``, ``flush_updates`` every 64 ops, against a numpy
    mirror — the stream the bug was reproduced with."""
    mirror = sine(2_048, seed=0)
    rng = np.random.default_rng(1)
    lo_dom, hi_dom = int(mirror.min()), int(mirror.max())
    width = (hi_dom - lo_dom) // 100
    wrong = {"db.query": [], "sql": []}
    with AdaptiveDatabase() as db:
        db.create_table("t", {"v": mirror.copy()})
        sql = Session(db=db)
        reads = ops = 0

        def tick():
            nonlocal ops
            ops += 1
            if ops % 64 == 0:
                db.flush_updates("t", "v")

        while reads < 600:
            for _ in range(3):
                lo = int(rng.integers(lo_dom, hi_dom - width))
                hi = lo + width
                rows = np.flatnonzero((mirror >= lo) & (mirror <= hi))
                if reads % 4 == 3:
                    got = sql.execute(
                        f"SELECT COUNT(*), SUM(v) FROM t WHERE v BETWEEN {lo} AND {hi}"
                    ).rows[0]
                    want = (int(rows.size), int(mirror[rows].sum()) if rows.size else None)
                    if tuple(got) != want:
                        wrong["sql"].append(reads)
                else:
                    got = db.query("t", "v", lo, hi)
                    if not np.array_equal(np.sort(got.rowids), rows):
                        wrong["db.query"].append(reads)
                reads += 1
                tick()
            row = int(rng.integers(0, mirror.size))
            value = int(rng.integers(lo_dom, hi_dom))
            db.update("t", "v", row, value)
            mirror[row] = value
            tick()
        sql.close()
    assert wrong == {"db.query": [], "sql": []}


class TestOneLayerPerColumn:
    def test_sql_session_sees_the_databases_layer(self):
        with AdaptiveDatabase() as db:
            db.create_table("t", {"v": np.arange(4 * VALUES_PER_PAGE)})
            with Session(db=db) as sql:
                sql.execute("SELECT COUNT(*) FROM t WHERE v BETWEEN 10 AND 20")
                assert list(db._layers) == [("t", "v")]
                layer = db.layer("t", "v")
                assert layer_hooks(db.table("t").column("v")) == [layer._note_write]
            # closing the session left the database's layer running
            assert db.layer("t", "v") is layer
            assert len(db.query("t", "v", 10, 20)) == 11
            assert list(db._layers) == [("t", "v")]

    def test_a_session_that_owns_its_database_borrows_too(self):
        with Session(config=AdaptiveConfig(max_views=7)) as sql:
            sql.execute("CREATE TABLE t (v)")
            sql.execute("INSERT INTO t VALUES (1), (2), (3)")
            assert sql.execute("SELECT COUNT(*) FROM t WHERE v >= 2").scalar() == 2
            assert list(sql.db._layers) == [("t", "v")]
            layer = sql.db.layer("t", "v")
            assert layer_hooks(sql.db.table("t").column("v")) == [layer._note_write]
            assert layer.config.max_views == 7


# -- every entry point interleaved, against a mirror ---------------------------

NUM_PAGES = 12
NUM_ROWS = NUM_PAGES * VALUES_PER_PAGE
#: Each page holds its own band of values, so partial views map few
#: pages and an update that moves a row's value moves it off them.
BAND = 1_000
DOMAIN = NUM_PAGES * BAND

bounds = st.tuples(st.integers(0, DOMAIN), st.integers(0, 3 * BAND))


class SharedColumnMachine(RuleBasedStateMachine):
    """``db.query`` / ``db.update`` / ``db.flush_updates`` interleaved with
    SQL SELECT / UPDATE / FLUSH on the same column; a sibling column
    ``k`` holds the row number, so SQL rows name themselves."""

    @initialize(seed=st.integers(0, 2**16), auto_flush=st.sampled_from([None, 3]))
    def setup(self, seed, auto_flush):
        rng = np.random.default_rng(seed)
        self.mirror = np.repeat(np.arange(NUM_PAGES), VALUES_PER_PAGE) * BAND
        self.mirror += rng.integers(0, BAND, NUM_ROWS)
        self.db = AdaptiveDatabase(
            AdaptiveConfig(max_views=8), auto_flush_threshold=auto_flush
        )
        self.db.create_table(
            "t", {"k": np.arange(NUM_ROWS), "v": self.mirror.copy()}
        )
        self.sql = Session(db=self.db)

    def _rows(self, lo: int, hi: int) -> np.ndarray:
        return np.flatnonzero((self.mirror >= lo) & (self.mirror <= hi))

    @rule(span=bounds)
    def db_query(self, span):
        lo, hi = span[0], span[0] + span[1]
        result = self.db.query("t", "v", lo, hi)
        order = np.argsort(result.rowids)
        want = self._rows(lo, hi)
        assert np.array_equal(result.rowids[order], want)
        assert np.array_equal(result.values[order], self.mirror[want])

    @rule(span=bounds)
    def sql_select(self, span):
        lo, hi = span[0], span[0] + span[1]
        result = self.sql.execute(
            f"SELECT k, v FROM t WHERE v BETWEEN {lo} AND {hi} ORDER BY rowid"
        )
        want = self._rows(lo, hi)
        assert result.rows == list(zip(want.tolist(), self.mirror[want].tolist()))

    @rule(span=bounds)
    def sql_aggregate(self, span):
        lo, hi = span[0], span[0] + span[1]
        count, total = self.sql.execute(
            f"SELECT COUNT(*), SUM(v) FROM t WHERE v BETWEEN {lo} AND {hi}"
        ).rows[0]
        want = self._rows(lo, hi)
        assert count == want.size
        assert total == (int(self.mirror[want].sum()) if want.size else None)

    @rule(row=st.integers(0, NUM_ROWS - 1), value=st.integers(0, DOMAIN))
    def db_update(self, row, value):
        assert self.db.update("t", "v", row, value) == self.mirror[row]
        self.mirror[row] = value

    @rule(span=st.tuples(st.integers(0, DOMAIN), st.integers(0, 40)), value=st.integers(0, DOMAIN))
    def sql_update(self, span, value):
        lo, hi = span[0], span[0] + span[1]
        want = self._rows(lo, hi)
        result = self.sql.execute(
            f"UPDATE t SET v = {value} WHERE v BETWEEN {lo} AND {hi}"
        )
        assert result.message == f"{want.size} rows updated"
        self.mirror[want] = value

    @rule()
    def db_flush(self):
        self.db.flush_updates("t", "v")

    @rule()
    def sql_flush(self):
        self.sql.execute("FLUSH UPDATES t")

    @invariant()
    def one_layer(self):
        if hasattr(self, "db"):
            table = self.db.table("t")
            for name in table.column_names:
                owned = self.db._layers.get(("t", name))
                assert layer_hooks(table.column(name)) == ([] if owned is None else [owned._note_write])

    def teardown(self):
        if hasattr(self, "db"):
            self.sql.close()
            self.db.close()


SharedColumnMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
TestSharedColumnMachine = SharedColumnMachine.TestCase
