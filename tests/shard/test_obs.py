"""Sharded observability: truthful per-shard metrics, gather spans,
and the observation-is-free contract."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.native import is_supported as native_supported
from repro.obs import trace_to_chrome
from repro.shard import ShardedDatabase
from repro.vm.constants import VALUES_PER_PAGE

NUM_ROWS = 16 * VALUES_PER_PAGE


def _values(seed: int = 3) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, 100_000, size=NUM_ROWS, dtype=np.int64
    )


def _run_workload(db: ShardedDatabase) -> None:
    db.create_table("t", {"x": _values()})
    for lo in (0, 25_000, 60_000):
        db.query("t", "x", lo, lo + 5_000)
    db.update("t", "x", 0, 5)
    db.flush_updates("t", "x")


class TestShardMetricsTruthfulness:
    def test_shard_scan_counters_sum_to_routed_scans(self):
        with ShardedDatabase(shards=4, observe=True) as db:
            db.create_table("t", {"x": _values()})
            routed = 0
            for lo in (0, 25_000, 60_000):
                result = db.query("t", "x", lo, lo + 5_000)
                assert result.stats.result_rows >= 0
                routed += len(
                    db.column("t", "x").router.shards_for_range(
                        lo, lo + 5_000
                    )
                )
            m = db.observer.metrics
            scans = m.get("shard_scans_total")
            total = sum(value for _, value in scans.samples())
            assert total == routed
            # Each sample carries the shard it came from.
            labels = {dict(key).get("shard") for key, _ in scans.samples()}
            assert labels <= {"0", "1", "2", "3"}

    def test_gather_fanout_matches_router(self):
        with ShardedDatabase(shards=4, observe=True) as db:
            db.create_table("t", {"x": _values()})
            db.query("t", "x", 0, 5_000)
            m = db.observer.metrics
            gathers = m.get("shard_gathers_total")
            assert sum(v for _, v in gathers.samples()) == 1

    def test_flush_metrics_carry_shard_label(self):
        with ShardedDatabase(shards=2, observe=True) as db:
            _run_workload(db)
            m = db.observer.metrics
            flushes = m.get("shard_flushes_total")
            assert sum(v for _, v in flushes.samples()) >= 1
            labels = {dict(key).get("shard") for key, _ in flushes.samples()}
            assert labels <= {"0", "1"}


class TestShardSpans:
    def test_gather_and_scan_spans_reach_chrome_export(self):
        with ShardedDatabase(shards=2, observe=True) as db:
            _run_workload(db)
            tracer = db.observer.tracer
            names = [span.name for span in tracer.finished_spans()]
            assert "shard.gather" in names
            assert "shard.scan" in names
            trace = json.loads(trace_to_chrome(tracer))
            events = trace["traceEvents"]
            gathers = [
                e for e in events if e.get("name") == "shard.gather"
            ]
            scans = [e for e in events if e.get("name") == "shard.scan"]
            assert gathers and scans
            # The gather span reports its fan-out and merged row count.
            assert all("attr.shards" in e["args"] for e in gathers)
            assert all("attr.rows" in e["args"] for e in gathers)
            assert all("attr.shard" in e["args"] for e in scans)

    def test_timeline_charges_main_plus_per_shard_lanes(self):
        with ShardedDatabase(shards=2, observe=True) as db:
            db.create_table("t", {"x": _values()})
            db.query("t", "x", 0, 100_000)  # routes to both shards
            lanes, _ = db.timeline.ledger.snapshot()
            assert lanes.get("main", 0) > 0
            assert lanes.get("shard0", 0) > 0
            assert lanes.get("shard1", 0) > 0
            # Serialized fan-out: the main lane is the sum of shard lanes.
            assert lanes["main"] == lanes["shard0"] + lanes["shard1"]


class TestObservationIsFree:
    def test_shard_ledgers_identical_with_and_without_observer(self):
        def merged(observe: bool):
            with ShardedDatabase(shards=2, observe=observe) as db:
                _run_workload(db)
                return db.merged_cost()

        assert merged(False) == merged(True)


def _syscall_metrics(backend: str, parallel: bool) -> dict:
    """Substrate syscall metrics of one seeded query/update stream on an
    observed 4-shard database, next to the shard ledgers' own counts."""
    rng = np.random.default_rng(11)
    num_rows = 64 * VALUES_PER_PAGE
    values = np.sort(rng.integers(0, 100_000, size=num_rows))
    with ShardedDatabase(
        shards=4, observe=True, backend=backend, parallel=parallel
    ) as db:
        db.create_table("t", {"x": values})
        for _ in range(3):
            for _ in range(8):
                lo = int(rng.integers(0, 90_000))
                db.query("t", "x", lo, lo + int(rng.integers(1_000, 60_000)))
            for row in rng.integers(0, num_rows, size=20).tolist():
                db.update("t", "x", row, int(rng.integers(0, 100_000)))
            db.flush_updates("t", "x")
        m = db.observer.metrics
        metrics = {
            name: m.get(name).samples()
            for name in ("mmap_calls_total", "mmap_pages_total", "munmap_calls_total")
        }
        _, counters = db.merged_cost()
        return {"metrics": metrics, "ledger": counters}


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
def test_thread_pool_keeps_syscall_metrics_exact(backend):
    """Shards on a thread pool report the serial run's syscall counts:
    the substrate hooks stay attached and every metric write is locked."""
    serial = _syscall_metrics(backend, parallel=False)
    pooled = _syscall_metrics(backend, parallel=True)
    assert pooled == serial
    metrics = pooled["metrics"]
    assert {dict(key)["kind"] for key, _ in metrics["mmap_calls_total"]} == {
        "anon", "file", "fixed",
    }
    assert all(n > 0 for family in metrics.values() for _, n in family)
    ledger = pooled["ledger"]
    assert sum(n for _, n in metrics["mmap_calls_total"]) == ledger["mmap_calls"]
    assert metrics["munmap_calls_total"][0][1] == ledger["munmap_calls"]
