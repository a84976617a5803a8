"""Observer integration: instrumented layers, parity with observation off.

The two load-bearing guarantees:

* with ``observe=True`` a routed query produces a span tree at least
  three levels deep whose root duration equals ``QueryStats.sim_ns``;
* with ``observe=False`` (the default) nothing changes — simulated
  timings and ledger counters are identical either way.
"""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveStorageLayer
from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.obs.capture import EXPERIMENTS, run_observed_workload
from repro.obs.events import TOPIC_FLUSH, TOPIC_MMAP, TOPIC_VIEW_LIFECYCLE
from repro.obs.exporters import render_prometheus
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.sql.executor import Session
from repro.vm.constants import VALUES_PER_PAGE

from ..conftest import uniform_column
from ..oracle_paths import production_paths, reference_paths


@pytest.fixture(scope="module")
def captured():
    """One small observed workload shared by the read-only assertions."""
    return run_observed_workload("sine", num_pages=128, num_queries=12)


def observed_layer(num_pages=32):
    column = uniform_column(num_pages=num_pages)
    observer = Observer(column.cost.ledger)
    column.substrate.mapper.observer = observer
    layer = AdaptiveStorageLayer(column, AdaptiveConfig(), observer=observer)
    return column, observer, layer


def test_query_span_tree_three_levels_root_matches_sim_ns():
    column, observer, layer = observed_layer()
    try:
        result = layer.answer_query(0, 500_000)
    finally:
        layer.shutdown()
    roots = observer.tracer.roots()
    assert [r.name for r in roots] == ["query"]
    root = roots[0]
    # query -> scan -> scan-view (and query -> candidate -> map-pages)
    assert max(span.depth for span in root.walk()) >= 2
    names = {span.name for span in root.walk()}
    assert {"query", "route", "scan", "scan-view"} <= names
    assert root.duration_ns == result.stats.sim_ns
    assert root.attrs["pages_scanned"] == result.stats.pages_scanned


def test_every_query_root_matches_its_stats(captured):
    roots = [r for r in captured.observer.tracer.roots() if r.name == "query"]
    queries = captured.run.stats.queries
    assert len(roots) == len(queries)
    for root, stats in zip(roots, queries):
        assert root.duration_ns == stats.sim_ns


def test_view_lifecycle_events_mirror_the_journal(captured):
    layer_events = captured.observer.events.recent(TOPIC_VIEW_LIFECYCLE)
    assert layer_events, "no lifecycle events captured"
    kinds = {str(e["event"]) for e in layer_events}
    assert "inserted" in kinds
    counter = captured.observer.metrics.get("view_lifecycle_events_total")
    total = sum(value for _, value in counter.samples())
    assert total == len(layer_events)
    by_kind = {str(e["event"]) for e in layer_events}
    for kind in by_kind:
        assert counter.value(event=kind) >= 1


def test_flush_and_mmap_events_fire(captured):
    flushes = captured.observer.events.recent(TOPIC_FLUSH)
    assert len(flushes) == 1
    assert flushes[0]["maps_lines"] == captured.maintenance.maps_lines
    assert captured.observer.metrics.get("flush_total").value() == 1

    mmap_events = captured.observer.events.recent(TOPIC_MMAP)
    assert any(e["op"] == "mmap" for e in mmap_events)
    calls = captured.observer.metrics.get("mmap_calls_total")
    assert calls.value(kind="fixed") > 0
    assert captured.observer.metrics.get("maps_lines").value() > 0


def test_prometheus_export_has_at_least_eight_families(captured):
    text = render_prometheus(captured.observer.metrics)
    families = [
        line.split()[2] for line in text.splitlines() if line.startswith("# TYPE")
    ]
    assert len(families) >= 8
    assert "query_sim_ns" in families
    assert "mmap_calls_total" in families


def test_metrics_snapshot_attached_to_sequence_run(captured):
    assert captured.run.metrics is not None
    assert captured.run.metrics["queries_total"]["samples"][0]["value"] == 12


def test_capture_validates_experiment_name():
    assert "sine" in EXPERIMENTS
    with pytest.raises(ValueError):
        run_observed_workload("nope", num_pages=64, num_queries=1)


def sample_table(num_pages=24):
    rng = np.random.default_rng(7)
    return {
        "temp": rng.integers(0, 1_000_000, num_pages * VALUES_PER_PAGE),
    }


def run_facade_workload(observe: bool):
    db = AdaptiveDatabase(observe=observe)
    try:
        db.create_table("t", sample_table())
        sims, ranges = [], [(0, 200_000), (150_000, 400_000), (100_000, 300_000)]
        for lo, hi in ranges * 3:
            sims.append(db.query("t", "temp", lo, hi).stats.sim_ns)
        for row in range(0, 400, 7):
            db.update("t", "temp", row, row * 3)
        db.flush_updates("t", "temp")
        sims.append(db.query("t", "temp", 0, 250_000).stats.sim_ns)
        lanes, counters = db.cost.ledger.snapshot()
        return sims, lanes, counters
    finally:
        db.close()


@pytest.mark.parametrize("mode", ["reference", "fast"])
def test_observation_does_not_change_simulated_costs(mode):
    ctx = production_paths if mode == "fast" else reference_paths
    with ctx():
        baseline = run_facade_workload(observe=False)
        observed = run_facade_workload(observe=True)
    assert observed == baseline


def run_observed_metrics(ctx):
    """The mmap/maps metrics an observed facade workload produces."""
    with ctx():
        db = AdaptiveDatabase(observe=True)
        try:
            db.create_table("t", sample_table())
            for lo, hi in [(0, 200_000), (150_000, 400_000)] * 2:
                db.query("t", "temp", lo, hi)
            for row in range(0, 300, 5):
                db.update("t", "temp", row, row * 3)
            db.flush_updates("t", "temp")
            metrics = db.observer.metrics
            return {
                "mmap_calls": sorted(
                    metrics.get("mmap_calls_total").samples()
                ),
                "maps_lines": metrics.get("maps_lines").value(),
            }
        finally:
            db.close()


def test_bulk_paths_keep_metrics_truthful():
    """``mmap_calls_total{kind}`` and ``maps_lines`` count coalesced/bulk
    operations exactly as the per-page reference paths do."""
    reference = run_observed_metrics(reference_paths)
    fast = run_observed_metrics(production_paths)
    assert fast == reference
    assert fast["maps_lines"] > 0
    kinds = {labels[0][1] for labels, _ in fast["mmap_calls"]}
    assert "fixed" in kinds


def test_observation_off_by_default():
    db = AdaptiveDatabase()
    try:
        assert db.observer is None
        db.create_table("t", sample_table(4))
        layer = db.layer("t", "temp")
        assert layer.observer is NULL_OBSERVER
        assert db.catalog.substrate.mapper.observer is None
    finally:
        db.close()


def test_sql_session_statement_spans_and_metrics():
    with Session(observe=True) as session:
        session.execute("CREATE TABLE t (temp)")
        for i in range(64):
            session.execute(f"INSERT INTO t VALUES ({i * 1000})")
        session.execute("SELECT COUNT(*) FROM t WHERE temp BETWEEN 0 AND 20000")
        observer = session.observer
        assert observer is not None
        statements = observer.metrics.get("sql_statements_total")
        assert statements.value(kind="CREATETABLE") == 1
        assert statements.value(kind="INSERT") == 64
        assert statements.value(kind="SELECT") == 1
        roots = [r.name for r in observer.tracer.roots()]
        assert roots.count("statement") == 66
        select_root = observer.tracer.roots()[-1]
        names = {span.name for span in select_root.walk()}
        assert "query" in names and "scan" in names
