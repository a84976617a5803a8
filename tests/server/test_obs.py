"""Serving observability: truthful metrics and spans — all free.

Style of ``tests/shard/test_obs.py``: run the identical served workload
with observation off and on, demand the simulated cost is bit-identical,
then check the observed run told the truth.
"""

import numpy as np

from repro.core.config import AdaptiveConfig
from repro.server import (
    AdmissionPolicy,
    DatabaseManager,
    SessionOptions,
    SessionShed,
)
from repro.vm.constants import VALUES_PER_PAGE

NUM_PAGES = 4
NUM_ROWS = NUM_PAGES * VALUES_PER_PAGE


def _values() -> np.ndarray:
    return np.arange(NUM_ROWS, dtype=np.int64)


def _serve_workload(observe: bool):
    """The canonical served workload: two admitted sessions (three
    queries, one update), one capacity-shed attempt."""
    manager = DatabaseManager()
    db = manager.create_database(
        observe=observe,
        config=AdaptiveConfig(background_mapping=False),
        policy=AdmissionPolicy(max_sessions=2),
    )
    db.create_table("t", {"x": _values()})

    first = manager.open_session()
    second = manager.open_session()
    try:
        manager.open_session()
    except SessionShed:
        pass
    first.query("t", "x", 10, 400).raise_for_error()
    first.query("t", "x", 0, NUM_ROWS - 1).raise_for_error()
    first.update("t", "x", 3, 999_999).raise_for_error()
    second.query("t", "x", 5, 60).raise_for_error()
    second.close()
    first.close()
    return manager, db


class TestObservationIsFree:
    def test_served_cost_identical_with_and_without_observer(self):
        blind_manager, blind = _serve_workload(observe=False)
        seen_manager, seen = _serve_workload(observe=True)
        try:
            assert blind.observer is None
            assert seen.observer is not None
            assert (
                blind.cost.ledger.snapshot() == seen.cost.ledger.snapshot()
            )
        finally:
            blind_manager.close()
            seen_manager.close()

    def test_observe_false_option_silences_one_session(self):
        manager, db = _serve_workload(observe=True)
        try:
            requests = db.observer.metrics.get("server_requests_total")
            before = sum(v for _, v in requests.samples())
            options = SessionOptions(observe=False)
            with manager.open_session(options=options) as quiet:
                quiet.query("t", "x", 0, 10).raise_for_error()
            assert sum(v for _, v in requests.samples()) == before
        finally:
            manager.close()


class TestServingMetrics:
    def test_session_gauge_and_admission_counters(self):
        manager, db = _serve_workload(observe=True)
        try:
            m = db.observer.metrics
            assert m.get("sessions_active").value() == 0  # all closed
            opened = m.get("sessions_opened_total")
            assert opened.value(decision="admit") == 2
            rejected = m.get("sessions_rejected_total")
            assert rejected.value(reason="capacity") == 1
        finally:
            manager.close()

    def test_request_counters_by_operation(self):
        manager, db = _serve_workload(observe=True)
        try:
            requests = db.observer.metrics.get("server_requests_total")
            assert requests.value(op="query") == 3
            assert requests.value(op="update") == 1
            histogram = db.observer.metrics.get("server_request_sim_ns")
            labels = {dict(key).get("op") for key, _ in histogram.samples()}
            assert {"query", "update"} <= labels
        finally:
            manager.close()


class TestServingEvents:
    def test_admit_and_shed_events_published(self):
        """Admissions and sheds reach the session counters and gauge."""
        manager, db = _serve_workload(observe=True)
        try:
            m = db.observer.metrics
            opened = m.get("sessions_opened_total")
            assert opened.samples() == [((("decision", "admit"),), 2)]
            rejected = m.get("sessions_rejected_total")
            assert rejected.samples() == [((("reason", "capacity"),), 1)]
            # Both admitted sessions closed again.
            assert m.get("sessions_active").value() == 0
        finally:
            manager.close()


class TestServingSpans:
    def test_requests_carry_per_session_span_labels(self):
        manager, db = _serve_workload(observe=True)
        try:
            spans = [
                span
                for span in db.observer.tracer.finished_spans()
                if span.name == "server.request"
            ]
            assert len(spans) == 4  # three queries + one update
            ops = [span.attrs["op"] for span in spans]
            assert ops.count("query") == 3
            assert ops.count("update") == 1
            sessions = {span.attrs["session"] for span in spans}
            assert len(sessions) == 2  # two distinct sessions labelled
        finally:
            manager.close()
