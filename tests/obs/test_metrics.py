"""Metrics registry: counters, gauges, histogram bucketing."""

import sys
import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    label_key,
)


def test_counter_accumulates_per_label_set():
    counter = Counter("mmap_calls_total")
    counter.inc(kind="fixed")
    counter.inc(2, kind="fixed")
    counter.inc(kind="anon")
    assert counter.value(kind="fixed") == 3
    assert counter.value(kind="anon") == 1
    assert counter.value(kind="file") == 0


def test_counter_rejects_negative_increment():
    counter = Counter("c_total")
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_set_and_add():
    registry = MetricsRegistry()
    gauge = registry.gauge("partial_views")
    gauge.set(5)
    gauge.add(-2)
    assert gauge.value() == 3


def test_label_key_is_order_insensitive():
    assert label_key({"b": 2, "a": "x"}) == label_key({"a": "x", "b": 2})


def test_histogram_buckets_values_inclusively():
    hist = Histogram("pages", buckets=(1.0, 4.0, 16.0))
    for value in (0, 1, 2, 4, 5, 100):
        hist.observe(value)
    sample = hist.sample()
    # (-inf,1], (1,4], (4,16], (16,+inf)
    assert sample.bucket_counts == [2, 2, 1, 1]
    assert sample.count == 6
    assert sample.total == 112
    assert hist.cumulative_counts() == [2, 4, 5, 6]


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ValueError):
        Histogram("h", buckets=(4.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("h", buckets=(1.0, 1.0))


def test_registry_get_or_create_and_type_conflict():
    registry = MetricsRegistry()
    first = registry.counter("queries_total")
    assert registry.counter("queries_total") is first
    with pytest.raises(ValueError):
        registry.gauge("queries_total")
    assert registry.get("queries_total") is first
    assert registry.get("missing") is None


def test_invalid_metric_name_rejected():
    with pytest.raises(ValueError):
        Counter("bad name")
    with pytest.raises(ValueError):
        Counter("")


def test_snapshot_is_json_shaped():
    registry = MetricsRegistry()
    registry.counter("ops_total", "help text").inc(3, kind="a")
    registry.histogram("ns", buckets=(10.0,)).observe(7)
    snap = registry.snapshot()
    assert snap["ops_total"]["kind"] == "counter"
    assert snap["ops_total"]["help"] == "help text"
    assert snap["ops_total"]["samples"] == [
        {"labels": {"kind": "a"}, "value": 3}
    ]
    hist_sample = snap["ns"]["samples"][0]["value"]
    assert hist_sample["buckets"] == {"10.0": 1, "+Inf": 0}
    assert hist_sample["sum"] == 7
    assert hist_sample["count"] == 1


def test_wall_clock_bucket_presets_cover_their_lanes():
    from repro.obs.metrics import WALL_MS_BUCKETS, WALL_US_BUCKETS

    # µs lane: 1 µs .. 1 ms in a 1-2-5 series, +1 s overflow bound
    assert WALL_US_BUCKETS[0] == 1_000.0
    assert WALL_US_BUCKETS[-2] == 500_000.0
    assert WALL_US_BUCKETS[-1] == 1e6
    # ms lane: 1 ms .. 1 s, +1000 s overflow bound
    assert WALL_MS_BUCKETS[0] == 1e6
    assert WALL_MS_BUCKETS[-1] == 1e9
    for buckets in (WALL_US_BUCKETS, WALL_MS_BUCKETS):
        assert list(buckets) == sorted(buckets)
        assert len(set(buckets)) == len(buckets)


def test_wall_bucket_histogram_observes_into_lanes():
    from repro.obs.metrics import WALL_US_BUCKETS

    registry = MetricsRegistry()
    hist = registry.histogram(
        "span_wall_ns", "wall time", buckets=WALL_US_BUCKETS
    )
    hist.observe(1_500.0)   # 1.5 µs -> le=2000 bucket
    hist.observe(2e9)       # 2 s -> +Inf only
    sample = registry.snapshot()["span_wall_ns"]["samples"][0]["value"]
    assert sample["buckets"]["2000.0"] == 1
    assert sample["buckets"]["+Inf"] == 1


#: Per metric kind: a fresh metric, one write to it, and its total; each
#: write is a read-modify-write of the metric's samples.
CONCURRENT_WRITES = {
    "counter": (
        lambda: Counter("c_total"),
        lambda m: m.inc(kind="fixed"),
        lambda m: m.value(kind="fixed"),
    ),
    "gauge": (lambda: MetricsRegistry().gauge("g"), lambda m: m.add(1), lambda m: m.value()),
    "histogram": (
        lambda: Histogram("h", buckets=(1.0, 10.0)),
        lambda m: m.observe(5.0),
        lambda m: m.sample().count,
    ),
}


@pytest.mark.parametrize("kind", sorted(CONCURRENT_WRITES))
def test_concurrent_writes_lose_no_update(kind):
    """Eight threads write one metric with a tiny switch interval, as a
    sharded database's worker threads do: no write is lost."""
    make, write, read = CONCURRENT_WRITES[kind]
    metric = make()
    threads_n, per_thread = 8, 10_000

    def hammer():
        for _ in range(per_thread):
            write(metric)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert read(metric) == threads_n * per_thread
