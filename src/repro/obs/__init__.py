"""Observability: trace spans and metrics (extension).

The paper's evaluation lives off numbers measured *inside* the storage
layer — pages scanned per query (Figure 4), views used (Figure 5), pages
added/removed during maintenance (Figure 7).  This package turns those
ad-hoc measurements into a first-class observability layer:

* :mod:`repro.obs.span` — hierarchical trace spans whose durations come
  from the simulated :class:`~repro.vm.cost.CostLedger`, kept in a
  bounded ring buffer;
* :mod:`repro.obs.metrics` — a registry of counters, gauges and
  fixed-bucket histograms;
* :mod:`repro.obs.exporters` — Prometheus-text, JSON and JSONL renderers
  plus the ASCII trace-tree view;
* :mod:`repro.obs.observer` — the :class:`Observer` composite threaded
  through the VM and adaptive layers, plus the zero-overhead
  :data:`NULL_OBSERVER` used when observation is off (the default).

A view's lifecycle (inserted/replaced/evicted/...) is recorded once, in
:attr:`repro.core.view_index.ViewIndex.history`, and counted by
``view_lifecycle_events_total{event=...}``.  Metric writes take a lock,
so counters stay exact when sharded execution runs on a thread pool.

Enable it per database::

    db = AdaptiveDatabase(observe=True)
    db.query("t", "x", 10, 20)
    print(render_trace_tree(db.observer.tracer))
    print(render_prometheus(db.observer.metrics))
"""

from .exporters import (
    render_metrics_json,
    render_prometheus,
    render_trace_tree,
    trace_to_chrome,
    trace_to_folded,
    trace_to_jsonl,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .observer import NULL_OBSERVER, NullObserver, Observer
from .span import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBSERVER",
    "NullObserver",
    "Observer",
    "render_metrics_json",
    "render_prometheus",
    "render_trace_tree",
    "trace_to_chrome",
    "trace_to_folded",
    "Span",
    "trace_to_jsonl",
    "Tracer",
]
