"""Tests for quarantine-and-rebuild of permanently faulted views."""

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.core.stats import ViewEvent
from repro.faults import FaultKind, FaultRule, FaultSchedule, FaultySubstrate
from repro.native import is_supported
from repro.resilience import ResilienceConfig
from repro.substrate import make_substrate
from repro.vm.constants import VALUES_PER_PAGE

NUM_PAGES = 16
NUM_ROWS = NUM_PAGES * VALUES_PER_PAGE


def _armed_db(resilience=None):
    substrate = FaultySubstrate(make_substrate("simulated"))
    values = np.arange(NUM_ROWS, dtype=np.int64)
    db = AdaptiveDatabase(
        config=AdaptiveConfig(background_mapping=False),
        backend=substrate,
        resilience=resilience or ResilienceConfig(seed=0),
    )
    db.create_table("t", {"x": values})
    db.layer("t", "x")  # full view materializes fault-free
    return db, substrate


def _check(db, lo, hi):
    res = db.query("t", "x", lo, hi)
    expected = np.arange(lo, min(hi, NUM_ROWS - 1) + 1, dtype=np.int64)
    assert np.array_equal(np.sort(res.rowids), expected)
    return res


def _quarantine_one_range(db, substrate):
    """Lose one candidate to a permanent fault; return its layer."""
    substrate.schedule = FaultSchedule(
        [FaultRule(ops="map_fixed", nth=1, transient=False)], seed=0
    )
    lo = 2 * VALUES_PER_PAGE
    res = _check(db, lo, lo + VALUES_PER_PAGE - 1)
    assert res.stats.view_event is ViewEvent.FAULTED
    layer = db.layer("t", "x")
    assert len(layer.view_index.quarantine) == 1
    substrate.schedule = None
    return layer


class TestQuarantineAndRebuild:
    def test_repair_rebuilds_quarantined_view(self):
        db, substrate = _armed_db()
        with db:
            layer = _quarantine_one_range(db, substrate)
            assert db.repair()
            assert not layer.view_index.quarantine
            status = db.resilience_status()["layers"]["t.x"]
            assert status["views_rebuilt"] == 1
            assert status["quarantined"] == 0
            assert any(
                e.event is ViewEvent.REBUILT
                for e in layer.view_index.history
            )
            # The rebuilt view serves queries again.
            assert layer.view_index.num_partials == 1
            lo = 2 * VALUES_PER_PAGE
            res = _check(db, lo, lo + VALUES_PER_PAGE - 1)
            assert res.stats.views_used >= 1
            assert db.audit().ok

    def test_maintenance_cycle_drains_quarantine(self):
        """The periodic path: a flush's recovery pass rebuilds the lost
        view without an explicit repair call."""
        db, substrate = _armed_db()
        with db:
            layer = _quarantine_one_range(db, substrate)
            db.update("t", "x", 5, 5)
            db.flush_updates("t", "x")
            assert not layer.view_index.quarantine
            status = db.resilience_status()["layers"]["t.x"]
            assert status["views_rebuilt"] == 1
            assert db.audit().ok

    def test_rebuild_abandoned_after_max_attempts(self):
        """Persistent permanent faults during rebuild consume bounded
        attempts, then the entry is abandoned (not retried forever)."""
        db, substrate = _armed_db(
            ResilienceConfig(rebuild_max_attempts=2, seed=0)
        )
        with db:
            layer = _quarantine_one_range(db, substrate)
            # Every rebuild attempt now dies on its first mapping call.
            substrate.schedule = FaultSchedule(
                [
                    FaultRule(
                        ops="map_fixed", probability=1.0, transient=False
                    )
                ],
                seed=0,
            )
            assert not db.repair()  # attempt 1: deferred
            assert db.repair()  # attempt 2: abandoned, quarantine empty
            assert not layer.view_index.quarantine
            status = db.resilience_status()["layers"]["t.x"]
            assert status["views_rebuilt"] == 0
            assert status["rebuilds_abandoned"] == 1
            # Queries still fall back to the full view, correctly.
            substrate.schedule = None
            _check(db, 100, 900)
            assert db.audit().ok

    def test_quarantine_is_idempotent_per_range(self):
        db, substrate = _armed_db()
        with db:
            layer = _quarantine_one_range(db, substrate)
            entry = layer.view_index.quarantine[0]
            layer.view_index.quarantine_range(entry.lo, entry.hi, "again")
            assert len(layer.view_index.quarantine) == 1


BACKENDS = [
    "simulated",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not is_supported(), reason="native rewiring unsupported here"
        ),
    ),
]


class TestRebuildDecidesFirst:
    @pytest.mark.parametrize("op", ["reserve", "map_fixed"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_repair_never_rebuilds_a_view_listing_1_discards(self, backend, op):
        """A repeated range's candidate is a subset Listing 1 discards;
        a fault on it must not bring it back as a duplicate view."""
        substrate = FaultySubstrate(make_substrate(backend))
        db = AdaptiveDatabase(backend=substrate, resilience=ResilienceConfig())
        with db:
            values = np.arange(64 * VALUES_PER_PAGE, dtype=np.int64)
            db.create_table("t", {"x": values})
            db.query("t", "x", 0, 10_000)
            substrate.schedule = FaultSchedule(
                [FaultRule(ops=op, nth=1, kind=FaultKind.ENOMEM, transient=False)],
                seed=0,
            )
            db.query("t", "x", 0, 10_000)
            assert db.repair()
            index = db.layer("t", "x").view_index
            assert index.num_partials == 1
            assert index.history[-1].event is ViewEvent.DISCARDED_SUBSET
            assert db.audit().ok
