"""Observer integration: instrumented layers, parity with observation off.

The two load-bearing guarantees:

* with ``observe=True`` a routed query produces a span tree at least
  three levels deep whose root duration equals ``QueryStats.sim_ns``;
* with ``observe=False`` (the default) nothing changes — simulated
  timings and ledger counters are identical either way.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveStorageLayer
from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.native import is_supported as native_supported
from repro.obs.capture import EXPERIMENTS, run_observed_workload
from repro.obs.exporters import render_prometheus
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.sql.executor import Session
from repro.vm.constants import VALUES_PER_PAGE

from ..conftest import build_column, uniform_column
from ..oracle_paths import production_paths, reference_paths


@pytest.fixture(scope="module")
def captured():
    """One small observed workload shared by the read-only assertions."""
    return run_observed_workload("sine", num_pages=128, num_queries=12)


def observed_layer(column=None):
    column = column or uniform_column()
    observer = Observer(column.cost.ledger)
    column.substrate.set_observer(observer)
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


def test_view_lifecycle_events_mirror_the_journal():
    """``view_lifecycle_events_total`` counts ``ViewIndex.history``, the
    one lifecycle record: the same total and the same count per kind."""
    values = np.sort(np.random.default_rng(0).integers(0, 1_000_000, 64 * VALUES_PER_PAGE))
    column, observer, layer = observed_layer(build_column(values))
    try:
        nested = [(0, 600_000), (100_000, 500_000), (200_000, 400_000), (250_000, 350_000)]
        for lo, hi in nested * 2 + [(700_000, 900_000), (0, 1_000_000)]:
            layer.answer_query(lo, hi)
        history = layer.view_index.history
    finally:
        layer.shutdown()
    kinds = Counter(record.event.value for record in history)
    assert kinds["inserted"] >= 1 and len(kinds) >= 3
    counter = observer.metrics.get("view_lifecycle_events_total")
    assert sum(value for _, value in counter.samples()) == len(history)
    assert {dict(key)["event"]: value for key, value in counter.samples()} == kinds


def test_flush_and_mmap_events_fire(captured):
    """One flush and its mmap calls, counted as the stats and ledger say."""
    metrics, maintenance = captured.observer.metrics, captured.maintenance
    assert metrics.get("flush_total").value() == 1
    assert metrics.get("maps_lines").value() == maintenance.maps_lines > 0
    assert metrics.get("maps_lines_parsed_total").value() == maintenance.maps_lines
    assert metrics.get("flush_pages_added_total").value() == maintenance.pages_added
    assert metrics.get("flush_pages_removed_total").value() == maintenance.pages_removed

    calls = metrics.get("mmap_calls_total")
    assert calls.value(kind="fixed") > 0
    ledger = captured.column.cost.ledger.counters()
    assert sum(n for _, n in calls.samples()) == ledger["mmap_calls"]


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


@pytest.mark.parametrize(
    "backend",
    [
        "simulated",
        pytest.param(
            "native",
            marks=pytest.mark.skipif(
                not native_supported(), reason="native rewiring unsupported here"
            ),
        ),
    ],
)
def test_syscall_metrics_match_the_ledger(backend):
    """``munmap_calls_total`` counts every tear-down the ledger books —
    discarded candidates' reservations and a released snapshot — and
    ``mmap_calls_total`` summed over its kinds counts every mmap call."""
    rng = np.random.default_rng(5)
    db = AdaptiveDatabase(observe=True, backend=backend)
    try:
        db.create_table("t", {"v": rng.integers(0, 1_000_000, 20_000)})
        nested = [(0, 600_000), (100_000, 500_000), (200_000, 400_000), (250_000, 350_000)]
        for lo, hi in nested * 2:
            db.query("t", "v", lo, hi)
        for row in range(0, 20_000, 97):
            db.update("t", "v", row, int(rng.integers(0, 1_000_000)))
        db.flush_updates("t", "v")
        snap = db.snapshot("t", "v")
        db.update("t", "v", 3, -1)
        db.flush_updates("t", "v")
        snap.release()
        metrics = db.observer.metrics
        counters = db.cost.ledger.counters()
        assert counters["munmap_calls"] > 1  # views were torn down, too
        assert metrics.get("munmap_calls_total").value() == counters["munmap_calls"]
        mmap_calls = sum(n for _, n in metrics.get("mmap_calls_total").samples())
        assert mmap_calls == counters["mmap_calls"]
    finally:
        db.close()


def test_observation_off_by_default():
    db = AdaptiveDatabase()
    try:
        assert db.observer is None
        db.create_table("t", sample_table(4))
        layer = db.layer("t", "temp")
        assert layer.observer is NULL_OBSERVER
        assert db.catalog.substrate.observer is None
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
