"""Tracer and span semantics: nesting, durations, ring truncation."""

import pytest

from repro.obs.span import Tracer
from repro.vm.cost import MAIN_LANE, MAPPER_LANE, CostLedger


def test_span_duration_equals_lane_charge():
    ledger = CostLedger()
    tracer = Tracer(ledger)
    with tracer.span("work") as span:
        ledger.charge(1500.0)
    assert span.finished
    assert span.duration_ns == 1500.0
    assert span.lane_deltas == {MAIN_LANE: 1500.0}


def test_span_never_charges_the_ledger():
    ledger = CostLedger()
    tracer = Tracer(ledger)
    with tracer.span("outer", hint=1):
        with tracer.span("inner"):
            pass
    assert ledger.lanes() == {}
    assert ledger.counters() == {}


def test_nesting_builds_parent_child_tree():
    ledger = CostLedger()
    tracer = Tracer(ledger)
    with tracer.span("query") as root:
        with tracer.span("route"):
            pass
        with tracer.span("scan") as scan:
            with tracer.span("scan-view"):
                pass
    assert [c.name for c in root.children] == ["route", "scan"]
    assert [c.name for c in scan.children] == ["scan-view"]
    assert root.depth == 0 and scan.depth == 1
    assert scan.children[0].depth == 2
    assert scan.children[0].parent_id == scan.span_id
    assert [s.name for s in root.walk()] == [
        "query", "route", "scan", "scan-view",
    ]


def test_child_duration_contained_in_parent():
    ledger = CostLedger()
    tracer = Tracer(ledger)
    with tracer.span("parent") as parent:
        ledger.charge(100.0)
        with tracer.span("child") as child:
            ledger.charge(250.0)
        ledger.charge(50.0)
    assert child.duration_ns == 250.0
    assert parent.duration_ns == 400.0


def test_duration_follows_the_tracer_lane_only():
    ledger = CostLedger()
    tracer = Tracer(ledger, lane=MAIN_LANE)
    with tracer.span("work") as span:
        ledger.charge(300.0, MAIN_LANE)
        ledger.charge(999.0, MAPPER_LANE)
        ledger.count("soft_faults", 4)
    assert span.duration_ns == 300.0
    assert span.lane_deltas == {MAIN_LANE: 300.0, MAPPER_LANE: 999.0}
    assert span.counter_deltas == {"soft_faults": 4}


def test_ring_buffer_truncates_and_counts_drops():
    ledger = CostLedger()
    tracer = Tracer(ledger, capacity=4)
    for i in range(10):
        with tracer.span(f"s{i}"):
            pass
    assert tracer.total_spans == 10
    assert len(tracer.finished_spans()) == 4
    assert [s.name for s in tracer.finished_spans()] == ["s6", "s7", "s8", "s9"]
    assert tracer.dropped_spans == 6
    assert tracer.dropped_roots == 6
    assert len(tracer.roots()) == 4


def test_zero_capacity_rejected():
    with pytest.raises(ValueError):
        Tracer(CostLedger(), capacity=0)


def test_attrs_via_open_and_set():
    tracer = Tracer(CostLedger())
    with tracer.span("q", lo=5, hi=9) as span:
        span.set(pages=12, rows=3)
    assert span.attrs == {"lo": 5, "hi": 9, "pages": 12, "rows": 3}
    record = span.to_dict()
    assert record["name"] == "q"
    assert record["attrs"]["pages"] == 12
    assert record["parent_id"] is None


def test_clear_keeps_totals():
    tracer = Tracer(CostLedger())
    with tracer.span("a"):
        pass
    tracer.clear()
    assert tracer.finished_spans() == []
    assert tracer.roots() == []
    assert tracer.total_spans == 1
