"""Tests for DELETE (tombstones) across the table, facade and SQL layers."""

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.sql import DeleteStatement, Session, parse
from .render import render_statement
from repro.vm.constants import VALUES_PER_PAGE


@pytest.fixture
def session():
    with Session(AdaptiveConfig(max_views=5)) as sess:
        sess.execute("CREATE TABLE t (k, v)")
        rows = ", ".join(f"({i}, {i * 10})" for i in range(100))
        sess.execute(f"INSERT INTO t VALUES {rows}")
        yield sess


class TestParseAndRender:
    def test_parse_delete(self):
        statement = parse("DELETE FROM t WHERE k BETWEEN 1 AND 5")
        assert isinstance(statement, DeleteStatement)
        assert statement.table == "t"
        assert statement.predicates["k"].lo == 1

    def test_parse_delete_without_where(self):
        statement = parse("DELETE FROM t")
        assert statement.predicates == {}

    def test_render_roundtrip(self):
        statement = parse("DELETE FROM t WHERE k >= 7")
        assert parse(render_statement(statement)) == statement


class TestSqlDelete:
    def test_deleted_rows_disappear_everywhere(self, session):
        session.execute("DELETE FROM t WHERE k BETWEEN 10 AND 19")
        assert session.execute("SELECT COUNT(*) FROM t").scalar() == 90
        rows = session.execute(
            "SELECT k FROM t WHERE k BETWEEN 5 AND 25 ORDER BY rowid"
        ).rows
        assert rows == [(k,) for k in [5, 6, 7, 8, 9, 20, 21, 22, 23, 24, 25]]

    def test_aggregates_skip_deleted(self, session):
        session.execute("DELETE FROM t WHERE k >= 50")
        result = session.execute("SELECT COUNT(v), MAX(v) FROM t")
        assert result.rows == [(50, 490)]

    def test_double_delete_is_idempotent(self, session):
        first = session.execute("DELETE FROM t WHERE k < 10").message
        second = session.execute("DELETE FROM t WHERE k < 10").message
        assert first == "10 rows deleted"
        assert second == "0 rows deleted"

    def test_delete_all(self, session):
        session.execute("DELETE FROM t")
        assert session.execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_update_of_deleted_row_rejected(self, session):
        session.execute("DELETE FROM t WHERE k = 5")
        table = session.db.table("t")
        with pytest.raises(KeyError):
            table.update("v", 5, 999)


class TestFacadeDelete:
    def test_delete_by_range(self):
        db = AdaptiveDatabase(AdaptiveConfig(max_views=5))
        db.create_table("t", {"x": np.arange(VALUES_PER_PAGE * 4)})
        deleted = db.delete("t", "x", 100, 199)
        assert deleted == 100
        result = db.query("t", "x", 0, 300)
        assert len(result) == 201  # 0..99 and 200..300
        assert not any(100 <= v <= 199 for v in result.values.tolist())
        db.close()

    def test_views_survive_deletion(self):
        """Deletion tombstones rows; the views keep their pages and
        later queries stay exact."""
        db = AdaptiveDatabase(AdaptiveConfig(max_views=5))
        db.create_table("t", {"x": np.arange(VALUES_PER_PAGE * 8)})
        db.query("t", "x", 1000, 2000)  # create a view
        original = db.layer("t", "x").view_index.partial_views[0]
        db.delete("t", "x", 1200, 1400)
        # the original view still maps its pages (tombstones only)
        assert original in db.layer("t", "x").view_index.partial_views
        assert original.num_pages > 0
        result = db.query("t", "x", 1000, 2000)
        assert len(result) == 1001 - 201
        db.close()


class TestTableTombstones:
    def test_record_iterator_skips_deleted(self):
        db = AdaptiveDatabase()
        table = db.create_table("t", {"x": np.arange(10)})
        table.delete_rows(np.array([0, 9]))
        records = list(table.record_iterator())
        assert len(records) == 8
        assert table.num_live_rows == 8
        with pytest.raises(KeyError):
            table.get_record(0)
        db.close()

    def test_delete_bounds_checked(self):
        db = AdaptiveDatabase()
        table = db.create_table("t", {"x": np.arange(10)})
        with pytest.raises(IndexError):
            table.delete_rows(np.array([10]))
        assert table.delete_rows(np.array([], dtype=np.int64)) == 0
        db.close()
