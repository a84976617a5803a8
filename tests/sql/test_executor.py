"""Unit and integration tests for SQL execution."""

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.native import is_supported
from repro.sql import ExecutionError, ResultTable, Session
from repro.sql.parser import parse

BACKENDS = [
    "simulated",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(not is_supported(), reason="native rewiring unsupported"),
    ),
]


@pytest.fixture
def session():
    with Session(AdaptiveConfig(max_views=10)) as sess:
        yield sess


@pytest.fixture
def loaded(session):
    session.execute("CREATE TABLE t (k, v)")
    rows = ", ".join(f"({i}, {i * 10})" for i in range(100))
    session.execute(f"INSERT INTO t VALUES {rows}")
    return session


class TestCreateInsert:
    def test_create_makes_an_empty_table(self, session):
        result = session.execute("CREATE TABLE t (a, b)")
        assert result.message == "table t created"
        table = session.db.table("t")
        assert table.column_names == ["a", "b"]
        assert table.num_rows == 0

    def test_duplicate_create_rejected(self, session):
        session.execute("CREATE TABLE t (a)")
        with pytest.raises(ExecutionError):
            session.execute("CREATE TABLE t (a)")

    def test_insert_requires_staged_table(self, session):
        with pytest.raises(ExecutionError):
            session.execute("INSERT INTO ghost VALUES (1)")

    def test_insert_arity_checked_against_schema(self, session):
        session.execute("CREATE TABLE t (a, b)")
        with pytest.raises(ExecutionError):
            session.execute("INSERT INTO t VALUES (1)")

    def test_insert_out_of_int64_range_rejected(self, session):
        session.execute("CREATE TABLE t (a)")
        with pytest.raises(ExecutionError, match="int64"):
            session.execute(f"INSERT INTO t VALUES (1), ({2**63})")
        assert session.execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_query_on_empty_table_returns_no_rows(self, session):
        session.execute("CREATE TABLE t (a)")
        assert session.execute("SELECT * FROM t").rows == []
        assert session.execute("SELECT a FROM t WHERE a BETWEEN 0 AND 9").rows == []
        assert session.execute("SELECT COUNT(*), SUM(a) FROM t").rows == [(0, None)]

    def test_insert_after_read_appends(self, loaded):
        loaded.execute("SELECT k FROM t WHERE k BETWEEN 10 AND 30")
        assert loaded.execute("INSERT INTO t VALUES (1, 2), (3, 4)").message == (
            "2 rows inserted"
        )
        result = loaded.execute("SELECT * FROM t WHERE k <= 3 ORDER BY rowid")
        assert result.rows == [(0, 0), (1, 10), (2, 20), (3, 30), (1, 2), (3, 4)]
        table = loaded.db.table("t")
        assert table.num_rows == 102
        # rowids continue after the last row
        assert [table.get_record(r) for r in (99, 100, 101)] == [
            (99, 990), (1, 2), (3, 4)
        ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_create_plus_insert_lays_out_what_create_table_does(backend):
    """More rows than one write-buffer merge takes, over three pages:
    the SQL-built table holds the same pages, padding and pageID
    headers as ``create_table`` of the same rows."""
    data = np.arange(1_100, dtype=np.int64) * 7 - 3_000
    with AdaptiveDatabase(backend=backend) as db:
        sql = Session(db=db)
        sql.execute("CREATE TABLE s (a, b)")
        rows = ", ".join(f"({v}, {-v})" for v in data.tolist())
        sql.execute(f"INSERT INTO s VALUES {rows}")
        assert sql.execute("SELECT COUNT(*) FROM s").scalar() == data.size
        db.create_table("d", {"a": data, "b": -data})
        for name in ("a", "b"):
            built = db.table("s").column(name)
            loaded = db.table("d").column(name)
            assert built.num_rows == loaded.num_rows
            assert built.num_pages == loaded.num_pages == 3
            assert np.array_equal(built.file.data, loaded.file.data)
            assert [built.file.page_id(p) for p in range(3)] == [0, 1, 2]
            assert [loaded.file.page_id(p) for p in range(3)] == [0, 1, 2]


class TestSelect:
    def test_between(self, loaded):
        result = loaded.execute(
            "SELECT v FROM t WHERE k BETWEEN 10 AND 12 ORDER BY rowid"
        )
        assert result.rows == [(100,), (110,), (120,)]

    def test_parsed_statement_runs_like_its_text(self, loaded):
        sql = "SELECT v FROM t WHERE k BETWEEN 10 AND 12 ORDER BY rowid"
        assert loaded.execute(parse(sql)).rows == loaded.execute(sql).rows

    def test_star_projects_all_columns(self, loaded):
        result = loaded.execute("SELECT * FROM t WHERE k = 5")
        assert result.columns == ["k", "v"]
        assert result.rows == [(5, 50)]

    def test_no_where_returns_everything(self, loaded):
        result = loaded.execute("SELECT k FROM t")
        assert len(result) == 100

    def test_multi_column_conjunction(self, loaded):
        result = loaded.execute(
            "SELECT k FROM t WHERE k >= 10 AND v <= 150 ORDER BY rowid"
        )
        assert result.rows == [(10,), (11,), (12,), (13,), (14,), (15,)]

    def test_contradictory_predicate_is_empty(self, loaded):
        result = loaded.execute("SELECT k FROM t WHERE k > 5 AND k < 3")
        assert len(result) == 0

    def test_unknown_column_rejected(self, loaded):
        with pytest.raises(ExecutionError):
            loaded.execute("SELECT ghost FROM t")
        with pytest.raises(ExecutionError):
            loaded.execute("SELECT k FROM t WHERE ghost = 1")

    def test_unknown_table_rejected(self, session):
        with pytest.raises(ExecutionError):
            session.execute("SELECT * FROM ghost")

    def test_repeat_query_uses_views(self, loaded):
        loaded.execute("SELECT k FROM t WHERE k BETWEEN 10 AND 30")
        # the predicate went through the database's one layer on k
        assert list(loaded.db._layers) == [("t", "k")]
        layer = loaded.db.layer("t", "k")
        assert layer.view_index.num_partials >= 0
        # the second run returns identical rows (routed via views)
        a = loaded.execute("SELECT k FROM t WHERE k BETWEEN 10 AND 30")
        b = loaded.execute("SELECT k FROM t WHERE k BETWEEN 10 AND 30")
        assert a.rows == b.rows
        assert list(loaded.db._layers) == [("t", "k")]
        assert loaded.db.layer("t", "k") is layer


class TestAggregates:
    def test_count_sum_min_max_avg(self, loaded):
        result = loaded.execute(
            "SELECT COUNT(k), SUM(v), MIN(v), MAX(v), AVG(v) "
            "FROM t WHERE k BETWEEN 0 AND 9"
        )
        assert result.columns == [
            "count(k)", "sum(v)", "min(v)", "max(v)", "avg(v)",
        ]
        assert result.rows == [(10, 450, 0, 90, 45.0)]

    def test_aggregate_on_empty_selection(self, loaded):
        result = loaded.execute("SELECT COUNT(k), SUM(v) FROM t WHERE k = -1")
        assert result.rows == [(0, None)]

    def test_scalar_helper(self, loaded):
        result = loaded.execute("SELECT COUNT(k) FROM t")
        assert result.scalar() == 100

    def test_count_star(self, loaded):
        assert loaded.execute("SELECT COUNT(*) FROM t").scalar() == 100
        assert (
            loaded.execute("SELECT COUNT(*) FROM t WHERE k < 10").scalar() == 10
        )

    def test_count_star_combined_with_other_aggregates(self, loaded):
        result = loaded.execute(
            "SELECT COUNT(*), SUM(v) FROM t WHERE k BETWEEN 0 AND 4"
        )
        assert result.rows == [(5, 100)]

    def test_sum_past_int64_is_exact(self, session):
        """Three values of 2**62 and two small ones sum past int64:
        numpy's int64 sum wraps to -4611686018427387899."""
        values = [1, 2**62, 2**62, 2**62, 4]
        session.db.create_table("big", {"v": np.array(values, dtype=np.int64)})
        result = session.execute(
            "SELECT SUM(v) FROM big WHERE v BETWEEN 1 AND 9223372036854775807"
        )
        assert result.scalar() == sum(values) == 13835058055282163717
        assert session.execute("SELECT SUM(v) FROM big").scalar() == sum(values)

    def test_star_only_valid_for_count(self, loaded):
        from repro.sql import ParseError

        with pytest.raises(ParseError):
            loaded.execute("SELECT SUM(*) FROM t")

    def test_scalar_rejects_non_scalar(self, loaded):
        result = loaded.execute("SELECT k FROM t")
        with pytest.raises(ExecutionError):
            result.scalar()


class TestUpdateAndFlush:
    def test_update_by_predicate(self, loaded):
        result = loaded.execute("UPDATE t SET v = 0 WHERE k BETWEEN 10 AND 19")
        assert "10 rows updated" in result.message
        check = loaded.execute("SELECT v FROM t WHERE k BETWEEN 10 AND 19")
        assert all(row == (0,) for row in check.rows)

    def test_update_without_where_hits_all_rows(self, loaded):
        loaded.execute("UPDATE t SET v = 7")
        assert loaded.execute("SELECT COUNT(v) FROM t WHERE v = 7").scalar() == 100

    def test_update_unknown_column_rejected(self, loaded):
        with pytest.raises(ExecutionError):
            loaded.execute("UPDATE t SET ghost = 1")

    def test_flush_realigns_views(self, loaded):
        loaded.execute("SELECT v FROM t WHERE v BETWEEN 100 AND 200")
        loaded.execute("UPDATE t SET v = 150 WHERE k = 50")
        message = loaded.execute("FLUSH UPDATES t").message
        assert "views realigned" in message
        # query after flush sees the new value through the views
        result = loaded.execute("SELECT k FROM t WHERE v = 150")
        assert (50,) in result.rows

    def test_queries_exact_after_update_and_flush(self, loaded):
        rng = np.random.default_rng(0)
        loaded.execute("SELECT v FROM t WHERE v BETWEEN 0 AND 500")
        for _ in range(50):
            k = int(rng.integers(0, 100))
            value = int(rng.integers(0, 1000))
            loaded.execute(f"UPDATE t SET v = {value} WHERE k = {k}")
        loaded.execute("FLUSH UPDATES t")
        table = loaded.db.table("t")
        values = table.column("v").values()
        expected = int(((values >= 0) & (values <= 500)).sum())
        assert loaded.execute(
            "SELECT COUNT(v) FROM t WHERE v BETWEEN 0 AND 500"
        ).scalar() == expected


@pytest.fixture
def multi_page(session):
    """A table spanning several pages, so partial views can pay off."""
    session.execute("CREATE TABLE big (k, v)")
    rows = ", ".join(f"({i}, {i * 3})" for i in range(2044))
    session.execute(f"INSERT INTO big VALUES {rows}")
    return session


class TestIntrospection:
    def test_show_views(self, multi_page):
        multi_page.execute("SELECT k FROM big WHERE k BETWEEN 5 AND 200")
        message = multi_page.execute("SHOW VIEWS big.k").message
        assert "view index over" in message
        assert "partial views        : 1" in message

    def test_show_views_unknown_column(self, loaded):
        with pytest.raises(ExecutionError):
            loaded.execute("SHOW VIEWS t.ghost")

    def test_explain_reports_routing(self, multi_page):
        message = multi_page.execute(
            "EXPLAIN SELECT k FROM big WHERE k BETWEEN 5 AND 200"
        ).message
        assert "full view" in message
        multi_page.execute("SELECT k FROM big WHERE k BETWEEN 5 AND 200")
        message = multi_page.execute(
            "EXPLAIN SELECT k FROM big WHERE k BETWEEN 6 AND 190"
        ).message
        assert "v[" in message  # now routed to a partial view

    def test_explain_without_predicate(self, loaded):
        message = loaded.execute("EXPLAIN SELECT * FROM t").message
        assert "full scan" in message

    def test_explain_includes_selectivity_estimate(self, loaded):
        message = loaded.execute(
            "EXPLAIN SELECT k FROM t WHERE k BETWEEN 0 AND 49"
        ).message
        assert "estimated:" in message
        # ~50 of 100 rows qualify; the histogram should be close
        import re

        match = re.search(r"~(\d+) rows", message)
        assert match is not None
        assert 35 <= int(match.group(1)) <= 65


class TestResultTable:
    def test_pretty_renders_rows(self, loaded):
        text = loaded.execute("SELECT k FROM t WHERE k <= 1 ORDER BY rowid").pretty()
        assert "| k |" in text

    def test_pretty_message_only(self):
        assert ResultTable(columns=[], message="hi").pretty() == "hi"

    def test_iteration(self, loaded):
        result = loaded.execute("SELECT k FROM t WHERE k <= 2 ORDER BY rowid")
        assert list(result) == [(0,), (1,), (2,)]
