"""EXPLAIN [ANALYZE]: parser, renderer, facade and SQL execution."""

import numpy as np
import pytest

from repro import AdaptiveDatabase
from repro.sql.executor import Session
from repro.sql.nodes import ExplainStatement
from repro.sql.parser import parse
from .render import render_statement


@pytest.fixture
def session():
    sess = Session()
    sess.execute("CREATE TABLE t (x)")
    values = np.random.default_rng(0).integers(0, 100_000, 2_000)
    rows = ", ".join(f"({int(v)})" for v in values)
    sess.execute(f"INSERT INTO t VALUES {rows}")
    return sess


# -- parsing and rendering ----------------------------------------------------


def test_parse_explain_defaults_to_plan_only():
    statement = parse("EXPLAIN SELECT x FROM t WHERE x BETWEEN 1 AND 2")
    assert isinstance(statement, ExplainStatement)
    assert statement.analyze is False


def test_parse_explain_analyze():
    statement = parse(
        "EXPLAIN ANALYZE SELECT x FROM t WHERE x BETWEEN 1 AND 2"
    )
    assert statement.analyze is True


def test_render_roundtrips_both_modes():
    for sql in (
        "EXPLAIN SELECT x FROM t WHERE x BETWEEN 1 AND 2",
        "EXPLAIN ANALYZE SELECT x FROM t WHERE x BETWEEN 1 AND 2",
    ):
        assert render_statement(parse(sql)) == sql


# -- SQL execution ------------------------------------------------------------


def test_explain_predicts_without_executing(session):
    # first EXPLAIN materializes the staged table; the snapshot isolates
    # the plan-only statement itself
    session.execute("EXPLAIN SELECT x FROM t WHERE x BETWEEN 100 AND 5000")
    before = session.db.cost.ledger.lanes()
    result = session.execute(
        "EXPLAIN SELECT x FROM t WHERE x BETWEEN 100 AND 5000"
    )
    assert "plan: " in result.message
    assert "predicted scan cost" in result.message
    assert "planner:" not in result.message
    # statement-span bookkeeping aside, no scan work was charged
    assert session.db.cost.ledger.lanes() == before


def test_explain_analyze_runs_and_reports(session):
    result = session.execute(
        "EXPLAIN ANALYZE SELECT x FROM t WHERE x BETWEEN 100 AND 5000"
    )
    message = result.message
    assert "EXPLAIN ANALYZE t.x IN [100, 5000]" in message
    assert "query [" in message and "scan [" in message
    assert "sim=" in message
    assert "planner: predicted" in message
    assert "estimated: " in message


def test_explain_analyze_agrees_with_plain_select(session):
    analyzed = session.execute(
        "EXPLAIN ANALYZE SELECT x FROM t WHERE x BETWEEN 100 AND 5000"
    )
    counted = session.execute(
        "SELECT COUNT(*) FROM t WHERE x BETWEEN 100 AND 5000"
    )
    rows = counted.rows[0][0]
    assert f"{rows} rows" in analyzed.message


# -- facade -------------------------------------------------------------------


def test_facade_explain_plan_only():
    db = AdaptiveDatabase()
    values = np.random.default_rng(1).integers(0, 100_000, 4_000, np.int64)
    db.create_table("t", {"x": values})
    report = db.explain("t", "x", 100, 5_000)
    assert not report.analyze
    assert report.target == "t.x"
    assert report.predicted_pages > 0
    assert report.plan_views[0]["full"]
    assert report.root is None
    db.close()


def test_facade_explain_analyze_measures():
    db = AdaptiveDatabase()
    values = np.random.default_rng(1).integers(0, 100_000, 4_000, np.int64)
    db.create_table("t", {"x": values})
    report = db.explain("t", "x", 100, 5_000, analyze=True)
    assert report.analyze
    assert report.root is not None
    assert report.root.name == "query"
    assert report.stats is not None
    assert report.stats.pages_scanned == report.predicted_pages
    names = [span.name for span in report.root.walk()]
    assert "scan" in names
    # predicted cost equals the executed scan span's charge: the planner
    # and the scan share one cost model
    scan = next(s for s in report.root.walk() if s.name == "scan")
    assert scan.duration_ns == pytest.approx(report.predicted_sim_ns)
    db.close()


def test_facade_explain_analyze_keeps_layer_observer_off():
    db = AdaptiveDatabase(observe=False)
    values = np.random.default_rng(1).integers(0, 100_000, 4_000, np.int64)
    db.create_table("t", {"x": values})
    layer = db.layer("t", "x")
    before = layer.observer
    db.explain("t", "x", 100, 5_000, analyze=True)
    assert layer.observer is before
    db.close()


def test_facade_explain_analyze_uses_attached_observer():
    db = AdaptiveDatabase(observe=True)
    values = np.random.default_rng(1).integers(0, 100_000, 4_000, np.int64)
    db.create_table("t", {"x": values})
    report = db.explain("t", "x", 100, 5_000, analyze=True)
    roots = db.observer.tracer.roots()
    assert report.root in roots
    db.close()
