"""The observer threaded through the VM and adaptive layers.

:class:`Observer` bundles the two observability primitives — a
:class:`~repro.obs.span.Tracer` and a
:class:`~repro.obs.metrics.MetricsRegistry` — behind the narrow hook
interface the instrumented layers call (``span``, ``on_query``,
``on_mmap``, ...).  Each hook turns the fact it is told into counters,
gauges and histograms; the view lifecycle's own record is the index's
journal (:attr:`repro.core.view_index.ViewIndex.history`), which
``view_lifecycle_events_total`` counts.

:data:`NULL_OBSERVER` is the disabled twin: every hook is a no-op and
``span`` yields a shared inert span, so instrumentation left in place
costs nothing when observation is off (the default).  Because spans and
metrics never charge the :class:`~repro.vm.cost.CostLedger`, enabling
observation does not change simulated timings either.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, ContextManager

from ..vm.cost import MAIN_LANE, CostLedger
from .metrics import (
    PAGE_COUNT_BUCKETS,
    SIM_NS_BUCKETS,
    WALL_US_BUCKETS,
    MetricsRegistry,
)
from .span import DEFAULT_CAPACITY, Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    import numpy as np

    from ..core.stats import MaintenanceStats, QueryStats, ViewLifecycleEvent
    from ..substrate.interface import WallClockLedger
    from .calibration.model import DriftFinding

#: Buckets for views-used-per-query (Figure 5 peaks below ten).
VIEWS_USED_BUCKETS = tuple(float(n) for n in (1, 2, 3, 4, 6, 8, 12, 16, 32))

#: Health-state severity exposed on the ``resilience_health`` gauge
#: (kept in sync with :class:`repro.resilience.policy.HealthState`;
#: duplicated here because the observer must not import the resilience
#: package — the core imports the observer first).
_HEALTH_SEVERITY = {"healthy": 0.0, "degraded": 1.0, "readonly": 2.0}


class _NullSpan(Span):
    """Shared inert span handed out by the null observer."""

    def __init__(self) -> None:
        super().__init__(name="null", span_id=0, parent_id=None, depth=0)

    def set(self, **attrs: object) -> "Span":
        return self


_NULL_SPAN = _NullSpan()

#: What every null span opens: one shared, reusable inert context.
_NULL_CONTEXT = nullcontext(_NULL_SPAN)


class NullObserver:
    """Disabled observer: every hook is a no-op.

    Call sites keep a single unconditional reference (``self.observer =
    observer or NULL_OBSERVER``) instead of sprinkling ``if`` checks;
    the per-call overhead is one no-op method dispatch.
    """

    enabled = False
    tracer: Tracer | None = None
    metrics: MetricsRegistry | None = None

    def span(self, name: str, **attrs: object) -> ContextManager[Span]:
        """An inert context manager yielding the shared null span."""
        return _NULL_CONTEXT

    def on_query(self, stats: "QueryStats") -> None:
        """Hook: one routed range query finished."""

    def on_maintenance(self, stats: "MaintenanceStats") -> None:
        """Hook: one batch view realignment finished."""

    def on_view_event(self, record: "ViewLifecycleEvent") -> None:
        """Hook: the view index decided a candidate's fate."""

    def on_mmap(self, kind: str, pages: int) -> None:
        """Hook: one mmap() syscall was issued."""

    def on_munmap(self, pages: int) -> None:
        """Hook: one munmap() syscall was issued."""

    def on_maps_parse(self, lines: int) -> None:
        """Hook: /proc/PID/maps was parsed."""

    def on_fault(self, op: str, kind: str) -> None:
        """Hook: a substrate fault fired (injected or real)."""

    def on_statement(self, kind: str) -> None:
        """Hook: one SQL statement executed."""

    def on_retry(self, op: str, kind: str) -> None:
        """Hook: one retry attempt against a transient fault."""

    def on_rebuild(self) -> None:
        """Hook: a quarantined view was rebuilt and re-admitted."""

    def on_governor_eviction(self) -> None:
        """Hook: the mapping governor evicted a view for budget."""

    def on_health(self, state: str) -> None:
        """Hook: a layer's health state changed."""

    def on_drift(self, finding: "DriftFinding") -> None:
        """Hook: the calibration observatory flagged cost-model drift."""

    def on_shard_scan(self, shard: int, stats: "QueryStats") -> None:
        """Hook: one shard answered its slice of a routed query."""

    def on_shard_maintenance(
        self, shard: int, stats: "MaintenanceStats"
    ) -> None:
        """Hook: one shard realigned its views after a batch."""

    def on_shard_gather(self, shards: int) -> None:
        """Hook: a scatter-gather merged the results of ``shards`` shards."""

    def on_session_open(self, decision: str, active: int) -> None:
        """Hook: admission control admitted one serving session."""

    def on_session_close(self, active: int) -> None:
        """Hook: one serving session closed (slot released)."""

    def on_session_shed(self, reason: str) -> None:
        """Hook: admission control refused one serving session."""

    def on_server_request(self, op: str, sim_ns: float) -> None:
        """Hook: one server request finished (any operation)."""

    def on_tier_promotions(self, fpages: np.ndarray) -> None:
        """Hook: one move promoted ``fpages`` from the cold to the hot tier."""

    def on_tier_demotions(self, fpages: np.ndarray) -> None:
        """Hook: one move demoted (spilled) ``fpages`` to the cold tier."""

    def on_tier_maintenance(
        self, hot: int, cold: int, hit_ratio: float
    ) -> None:
        """Hook: tier maintenance finished (decay + budget enforcement)."""

    def on_wal_append(self, nbytes: int) -> None:
        """Hook: one framed record landed in the write-ahead log."""

    def on_wal_fsync(self) -> None:
        """Hook: the active WAL segment was fsynced."""

    def on_recovery(self) -> None:
        """Hook: a crash-consistent recovery finished replaying."""


#: The shared disabled observer (observation off, the default).
NULL_OBSERVER = NullObserver()


class Observer(NullObserver):
    """Live observer: spans and metrics, wired to one ledger.

    The standard metric families are registered eagerly so exporters
    always present a stable schema, even before traffic arrives.
    """

    enabled = True

    def __init__(
        self,
        ledger: CostLedger,
        max_spans: int = DEFAULT_CAPACITY,
        lane: str = MAIN_LANE,
        wall: "WallClockLedger | None" = None,
    ) -> None:
        """``wall`` (the substrate's measured-time ledger, native backend
        only) opts spans into wall-clock timing — the raw material of
        the calibration observatory (:mod:`repro.obs.calibration`)."""
        self.ledger = ledger
        self.tracer = Tracer(ledger, capacity=max_spans, lane=lane, wall=wall)
        self.metrics = MetricsRegistry()

        m = self.metrics
        self._queries = m.counter("queries_total", "Routed range queries answered")
        self._query_ns = m.histogram(
            "query_sim_ns", "Simulated response time per query", SIM_NS_BUCKETS
        )
        self._pages_scanned = m.histogram(
            "pages_scanned", "Physical pages scanned per query", PAGE_COUNT_BUCKETS
        )
        self._views_used = m.histogram(
            "views_used", "Views used per query", VIEWS_USED_BUCKETS
        )
        self._result_rows = m.counter(
            "query_result_rows_total", "Rows returned across all queries"
        )
        self._view_events = m.counter(
            "view_lifecycle_events_total", "Candidate-view decisions by outcome"
        )
        self._partial_views = m.gauge(
            "partial_views", "Partial views held after the last query"
        )
        self._mmap_calls = m.counter(
            "mmap_calls_total", "mmap() syscalls by kind (anon/file/fixed)"
        )
        self._mmap_pages = m.counter(
            "mmap_pages_total", "Pages mapped by mmap() syscalls, by kind"
        )
        self._munmap_calls = m.counter("munmap_calls_total", "munmap() syscalls")
        self._flushes = m.counter("flush_total", "Batch view realignments")
        self._flush_ns = m.histogram(
            "flush_sim_ns", "Simulated time per realignment batch", SIM_NS_BUCKETS
        )
        self._pages_added = m.counter(
            "flush_pages_added_total", "Pages mapped into views during realignment"
        )
        self._pages_removed = m.counter(
            "flush_pages_removed_total", "Pages removed from views during realignment"
        )
        self._maps_lines = m.gauge(
            "maps_lines", "Lines of the most recent /proc/PID/maps parse"
        )
        self._maps_lines_parsed = m.counter(
            "maps_lines_parsed_total", "Maps-file lines parsed across all batches"
        )
        self._statements = m.counter(
            "sql_statements_total", "SQL statements executed, by kind"
        )
        self._faults = m.counter(
            "substrate_faults_total", "Substrate faults by operation and kind"
        )
        self._retries = m.counter(
            "retries_total", "Retry attempts against transient faults"
        )
        self._rebuilds = m.counter(
            "views_rebuilt_total", "Quarantined views rebuilt and re-admitted"
        )
        self._governor_evictions = m.counter(
            "governor_evictions_total", "Views evicted to satisfy the budget"
        )
        self._health = m.gauge(
            "resilience_health",
            "Layer health severity (0=healthy, 1=degraded, 2=readonly)",
        )
        self._drift_ratio = m.gauge(
            "cost_drift_ratio",
            "Measured / predicted cost ratio per span kind (1.0 = calibrated)",
        )
        self._drift_findings = m.counter(
            "cost_drift_findings_total", "Drift findings raised, by span kind"
        )
        self._span_wall_ns = m.histogram(
            "span_wall_ns",
            "Measured wall-clock nanoseconds per span (native backend)",
            WALL_US_BUCKETS,
        )
        self._shard_scans = m.counter(
            "shard_scans_total", "Per-shard slices of routed queries, by shard"
        )
        self._shard_flushes = m.counter(
            "shard_flushes_total", "Per-shard view realignments, by shard"
        )
        self._shard_gathers = m.counter(
            "shard_gathers_total", "Scatter-gather merges across shards"
        )
        self._shard_fanout = m.histogram(
            "shard_gather_fanout",
            "Shards visited per scatter-gather execution",
            VIEWS_USED_BUCKETS,
        )
        self._sessions_active = m.gauge(
            "sessions_active", "Serving sessions currently open"
        )
        self._sessions_opened = m.counter(
            "sessions_opened_total", "Sessions admitted, by decision"
        )
        self._sessions_rejected = m.counter(
            "sessions_rejected_total", "Sessions shed by admission, by reason"
        )
        self._server_requests = m.counter(
            "server_requests_total", "Server requests served, by operation"
        )
        self._server_request_ns = m.histogram(
            "server_request_sim_ns",
            "Simulated time charged per server request",
            SIM_NS_BUCKETS,
        )
        self._tier_pages = m.gauge(
            "tier_pages", "Physical pages per tier after the last maintenance"
        )
        self._tier_promotions = m.counter(
            "tier_promotions_total", "Pages promoted from the cold tier"
        )
        self._tier_demotions = m.counter(
            "tier_demotions_total", "Pages demoted (spilled) to the cold tier"
        )
        self._tier_hit_ratio = m.gauge(
            "tier_hit_ratio", "Fraction of page accesses served by the hot tier"
        )
        self._wal_appends = m.counter(
            "wal_appends_total", "Framed records appended to the write-ahead log"
        )
        self._wal_bytes = m.counter(
            "wal_bytes_total", "Bytes appended to the write-ahead log"
        )
        self._wal_fsyncs = m.counter(
            "wal_fsyncs_total", "fsync() calls on the active WAL segment"
        )
        self._recoveries = m.counter(
            "recoveries_total", "Crash-consistent recoveries completed"
        )

    def span(self, name: str, **attrs: object) -> ContextManager[Span]:
        """Open a trace span (see :meth:`repro.obs.span.Tracer.span`)."""
        return self.tracer.span(name, **attrs)

    # -- layer hooks ----------------------------------------------------

    def on_query(self, stats: "QueryStats") -> None:
        self._queries.inc()
        self._query_ns.observe(stats.sim_ns)
        self._pages_scanned.observe(stats.pages_scanned)
        self._views_used.observe(stats.views_used)
        self._result_rows.inc(stats.result_rows)
        self._partial_views.set(stats.partial_views_after)

    def on_maintenance(self, stats: "MaintenanceStats") -> None:
        self._flushes.inc()
        self._flush_ns.observe(stats.total_ns)
        self._pages_added.inc(stats.pages_added)
        self._pages_removed.inc(stats.pages_removed)

    def on_view_event(self, record: "ViewLifecycleEvent") -> None:
        self._view_events.inc(event=record.event.value)

    # -- VM hooks -------------------------------------------------------

    def on_mmap(self, kind: str, pages: int) -> None:
        self._mmap_calls.inc(kind=kind)
        self._mmap_pages.inc(pages, kind=kind)

    def on_munmap(self, pages: int) -> None:
        self._munmap_calls.inc()

    def on_maps_parse(self, lines: int) -> None:
        self._maps_lines.set(lines)
        self._maps_lines_parsed.inc(lines)

    def on_fault(self, op: str, kind: str) -> None:
        self._faults.inc(op=op, kind=kind)

    # -- resilience hooks -----------------------------------------------

    def on_retry(self, op: str, kind: str) -> None:
        self._retries.inc(op=op, kind=kind)

    def on_rebuild(self) -> None:
        self._rebuilds.inc()

    def on_governor_eviction(self) -> None:
        self._governor_evictions.inc()

    def on_health(self, state: str) -> None:
        self._health.set(_HEALTH_SEVERITY.get(state, -1.0))

    # -- calibration hooks ----------------------------------------------

    def on_drift(self, finding: "DriftFinding") -> None:
        """Record one drift finding: gauge and counter.

        The ``cost_drift_ratio{span=...}`` gauge is what the resilience
        health machine (or any scrape consumer) watches: 1.0 means the
        cost model predicts the measured backend perfectly.
        """
        self._drift_ratio.set(finding.ratio, span=finding.kind)
        self._drift_findings.inc(span=finding.kind)

    def record_span_wall(self, kind: str, wall_ns: float) -> None:
        """Feed one span's measured wall time into the wall histogram."""
        self._span_wall_ns.observe(wall_ns, span=kind)

    # -- shard hooks ------------------------------------------------------

    def on_shard_scan(self, shard: int, stats: "QueryStats") -> None:
        """One shard's slice of a routed query: the existing scan
        metrics gain a ``shard`` label next to the unlabeled
        whole-query series."""
        label = str(shard)
        self._shard_scans.inc(shard=label)
        self._query_ns.observe(stats.sim_ns, shard=label)
        self._pages_scanned.observe(stats.pages_scanned, shard=label)

    def on_shard_maintenance(
        self, shard: int, stats: "MaintenanceStats"
    ) -> None:
        """One shard's view realignment: maintenance metrics, shard-labeled."""
        label = str(shard)
        self._shard_flushes.inc(shard=label)
        self._flush_ns.observe(stats.total_ns, shard=label)
        self._pages_added.inc(stats.pages_added, shard=label)
        self._pages_removed.inc(stats.pages_removed, shard=label)

    def on_shard_gather(self, shards: int) -> None:
        self._shard_gathers.inc()
        self._shard_fanout.observe(shards)

    # -- serving hooks --------------------------------------------------

    def on_session_open(self, decision: str, active: int) -> None:
        self._sessions_active.set(active)
        self._sessions_opened.inc(decision=decision)

    def on_session_close(self, active: int) -> None:
        self._sessions_active.set(active)

    def on_session_shed(self, reason: str) -> None:
        self._sessions_rejected.inc(reason=reason)

    def on_server_request(self, op: str, sim_ns: float) -> None:
        self._server_requests.inc(op=op)
        self._server_request_ns.observe(sim_ns, op=op)

    # -- tier hooks ------------------------------------------------------

    def on_tier_promotions(self, fpages: np.ndarray) -> None:
        self._tier_promotions.inc(fpages.size)

    def on_tier_demotions(self, fpages: np.ndarray) -> None:
        self._tier_demotions.inc(fpages.size)

    def on_tier_maintenance(
        self, hot: int, cold: int, hit_ratio: float
    ) -> None:
        self._tier_pages.set(hot, tier="hot")
        self._tier_pages.set(cold, tier="cold")
        self._tier_hit_ratio.set(hit_ratio)

    # -- durability hooks -------------------------------------------------

    def on_wal_append(self, nbytes: int) -> None:
        self._wal_appends.inc()
        self._wal_bytes.inc(nbytes)

    def on_wal_fsync(self) -> None:
        self._wal_fsyncs.inc()

    def on_recovery(self) -> None:
        self._recoveries.inc()

    # -- SQL hooks ------------------------------------------------------

    def on_statement(self, kind: str) -> None:
        self._statements.inc(kind=kind)

    # -- ledger mirroring -----------------------------------------------

    def sync_ledger(self) -> None:
        """Mirror the cost ledger into gauges (``sim_lane_ns``/``sim_ops``).

        The ledger is the substrate's source of truth for charged time
        and operation counts; mirroring it right before an export makes
        the low-level counters (soft faults, bimap ops, values scanned)
        visible next to the layer-level metrics.
        """
        lanes, counters = self.ledger.snapshot()
        lane_gauge = self.metrics.gauge(
            "sim_lane_ns", "Nanoseconds charged per cost-ledger lane"
        )
        ops_gauge = self.metrics.gauge(
            "sim_ops", "Cost-ledger operation counters"
        )
        for lane, ns in lanes.items():
            lane_gauge.set(ns, lane=lane)
        for op, count in counters.items():
            ops_gauge.set(count, op=op)
