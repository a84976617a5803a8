"""Metrics registry: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` holds named metric families; each family
carries samples per label set (``mmap_calls_total{kind="fixed"}``).
The model follows the Prometheus exposition format, which
:mod:`repro.obs.exporters` renders; values are plain Python numbers —
observation never touches the cost ledger.  Every write to a family
holds the family's lock, so hooks called from a sharded database's
worker threads add up exactly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

#: Canonical form of one label set: sorted (name, value) pairs.
LabelKey = tuple[tuple[str, str], ...]

#: Default histogram buckets for simulated-nanosecond durations
#: (1 us .. 100 s, decades).
SIM_NS_BUCKETS = tuple(float(10**e) for e in range(3, 12))

#: Default histogram buckets for page counts (powers of four).
PAGE_COUNT_BUCKETS = tuple(float(4**e) for e in range(0, 10))

#: Wall-clock buckets, microsecond lane: 1 µs .. 1 ms in a 1-2-5 series
#: (bounds in nanoseconds).  Native-backend syscall latencies live here;
#: the coarse decade buckets of :data:`SIM_NS_BUCKETS` would pile them
#: all into two bins.
WALL_US_BUCKETS = tuple(
    float(m * 10**e) for e in range(3, 6) for m in (1, 2, 5)
) + (1e6,)

#: Wall-clock buckets, millisecond lane: 1 ms .. 1 s in a 1-2-5 series
#: (bounds in nanoseconds).  For batch-level native latencies (whole
#: queries, maintenance runs).
WALL_MS_BUCKETS = tuple(
    float(m * 10**e) for e in range(6, 9) for m in (1, 2, 5)
) + (1e9,)


def label_key(labels: dict[str, object]) -> LabelKey:
    """Canonicalize a label dict (values stringified, names sorted)."""
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


class Metric:
    """Base class: one named metric family with per-label-set samples."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not name or not name.replace("_", "a").isalnum():
            raise ValueError(f"invalid metric name: {name!r}")
        self.name = name
        self.help = help
        self._values: dict[LabelKey, object] = {}
        self._lock = threading.Lock()

    def samples(self) -> list[tuple[LabelKey, object]]:
        """All (label set, value) samples of the family."""
        with self._lock:
            return sorted(self._values.items())


class Counter(Metric):
    """Monotonically increasing count (``*_total`` by convention)."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: object) -> None:
        """Add ``amount`` (must be non-negative) to one label set."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        key = label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        """Current count of one label set (0 if never incremented)."""
        return self._values.get(label_key(labels), 0)


class Gauge(Metric):
    """A value that can go up and down (current views, maps lines)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        """Set one label set to ``value``."""
        key = label_key(labels)
        with self._lock:
            self._values[key] = value

    def add(self, amount: float, **labels: object) -> None:
        """Adjust one label set by ``amount`` (either sign)."""
        key = label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        """Current value of one label set (0 if never set)."""
        return self._values.get(label_key(labels), 0)


@dataclass
class HistogramValue:
    """Samples of one histogram label set."""

    #: Observation count per finite bucket upper bound, plus +Inf last.
    bucket_counts: list[int]
    #: Sum of all observed values.
    total: float = 0.0
    #: Number of observations.
    count: int = 0


class Histogram(Metric):
    """Fixed-bucket histogram (``query_sim_ns``, ``pages_scanned``)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = SIM_NS_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or sorted(bounds) != list(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram buckets must be sorted and unique: {buckets}")
        self.buckets = bounds

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation."""
        key = label_key(labels)
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        with self._lock:
            sample = self._values.get(key)
            if sample is None:
                sample = self._values[key] = HistogramValue(
                    bucket_counts=[0] * (len(self.buckets) + 1)
                )
            sample.bucket_counts[idx] += 1
            sample.total += value
            sample.count += 1

    def sample(self, **labels: object) -> HistogramValue | None:
        """The accumulated histogram of one label set, if any."""
        return self._values.get(label_key(labels))

    def cumulative_counts(self, **labels: object) -> list[int]:
        """Cumulative per-bucket counts (Prometheus ``le`` semantics)."""
        sample = self.sample(**labels)
        if sample is None:
            return [0] * (len(self.buckets) + 1)
        out, acc = [], 0
        for count in sample.bucket_counts:
            acc += count
            out.append(acc)
        return out


class MetricsRegistry:
    """Named metric families, created on first use (get-or-create)."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(self, cls: type, name: str, **kwargs: object) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or register a counter family."""
        return self._get_or_create(Counter, name, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or register a gauge family."""
        return self._get_or_create(Gauge, name, help=help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = SIM_NS_BUCKETS,
    ) -> Histogram:
        """Get or register a histogram family."""
        return self._get_or_create(Histogram, name, help=help, buckets=buckets)

    def get(self, name: str) -> Metric | None:
        """Look up a family by name."""
        return self._metrics.get(name)

    def families(self) -> list[Metric]:
        """All registered families, in registration order."""
        return list(self._metrics.values())

    def snapshot(self) -> dict[str, object]:
        """Plain-data snapshot of every family (JSON-friendly)."""
        out: dict[str, object] = {}
        for metric in self._metrics.values():
            series = [
                {
                    "labels": dict(key),
                    "value": (
                        {
                            "buckets": dict(
                                zip(
                                    [*map(str, metric.buckets), "+Inf"],
                                    value.bucket_counts,
                                )
                            ),
                            "sum": value.total,
                            "count": value.count,
                        }
                        if isinstance(metric, Histogram)
                        else value
                    ),
                }
                for key, value in metric.samples()
            ]
            out[metric.name] = {
                "kind": metric.kind,
                "help": metric.help,
                "samples": series,
            }
        return out
