"""A fault plane that cannot fire costs the tier nothing per page.

A :class:`~repro.faults.FaultySubstrate` with no schedule (how stacks
are wrapped before a test or tool arms them), or one held by
``suppress_faults``, answers every consult with "no fault".  The tier
asks :func:`~repro.faults.plane.faults_armed` and takes its batched
path there: a batch's cold reads are one charge and a move's spills
one, with no per-page ``_spill_read`` or ``_cold_write_passes`` call.
The same seeded stream — a tiered ``create_table``, narrow reads that
churn the placement, updates flushed onto cold pages and an insert
merge that grows the column — runs on a bare tiered stack and on the
wrapped ones, on both backends; placement, counters, answers and the
cost ledger must be ``==``.

An armed schedule still consults per page: under a schedule that never
fires, each batch's cold pages are read one ``_spill_read`` at a time
in the order the scan listed them, every spill write is consulted, and
the ledger still equals the bare stack's (``n`` one-page charges book
what one ``n``-page charge books).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.faults import FaultRule, FaultSchedule, FaultySubstrate, suppress_faults
from repro.native import is_supported
from repro.substrate import make_substrate
from repro.tier import TierConfig, TieredPageStore
from repro.vm.constants import VALUES_PER_PAGE
from repro.vm.cost import MAIN_LANE

NUM_PAGES = 24
NUM_ROWS = NUM_PAGES * VALUES_PER_PAGE
BACKENDS = [
    "simulated",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(not is_supported(), reason="native rewiring unsupported"),
    ),
]


@pytest.fixture
def calls(monkeypatch):
    """Count the tier's per-page fault consults and log the pages each
    batch reads one at a time, next to the cold pages it listed."""
    counted = {"_spill_read": 0, "_cold_write_passes": 0}
    log = {"read": [], "listed": []}
    spill_read = TieredPageStore._spill_read
    passes = TieredPageStore._cold_write_passes
    batch = TieredPageStore.record_batch_access

    def counting_spill_read(self, fpage, cost, lane):
        counted["_spill_read"] += 1
        log["read"].append(fpage)
        return spill_read(self, fpage, cost, lane)

    def counting_passes(self):
        counted["_cold_write_passes"] += 1
        return passes(self)

    def listing_batch(self, fpages, cost, lane=MAIN_LANE, kind="seq"):
        listed = [p for p in np.asarray(fpages).tolist() if not self.hot[p]]
        log["listed"].extend(listed)
        return batch(self, fpages, cost, lane=lane, kind=kind)

    monkeypatch.setattr(TieredPageStore, "_spill_read", counting_spill_read)
    monkeypatch.setattr(TieredPageStore, "_cold_write_passes", counting_passes)
    monkeypatch.setattr(TieredPageStore, "record_batch_access", listing_batch)
    counted["log"] = log
    return counted


def _stream(db: AdaptiveDatabase) -> list:
    """The seeded tiered session; returns every read's answer."""
    rng = np.random.default_rng(45)
    db.create_table("t", {"x": np.arange(NUM_ROWS, dtype=np.int64) * 3})
    answers = []
    for step in range(48):
        page = int(rng.integers(0, NUM_PAGES))
        lo = page * VALUES_PER_PAGE * 3 + int(rng.integers(0, 60))
        answers.append(db.query("t", "x", lo, lo + 90).rowids.tolist())
        if step % 8 == 7:
            row = int(rng.integers(0, NUM_ROWS))
            db.update("t", "x", row, int(rng.integers(0, NUM_ROWS * 3)))
            db.flush_updates("t", "x")
    db.insert_rows("t", [(int(v),) for v in range(0, 2 * VALUES_PER_PAGE * 3, 3)])
    db.flush_inserts("t")
    answers.append(db.query("t", "x", 0, NUM_ROWS * 3).rowids.tolist())
    return answers


def _observe(db: AdaptiveDatabase, answers: list) -> dict:
    tier = db.table("t").column("x").tier
    governor = tier.governor
    return {
        "answers": answers,
        "hot": tier.hot.tolist(),
        "hits": tier.hits.tolist(),
        "last_access": tier.last_access.tolist(),
        "moves": (tier.promotions, tier.demotions),
        "served": (tier.hot_hits, tier.cold_hits),
        "failures": (tier.spill_failures, tier.read_fallbacks),
        "governor": (governor.denials, governor.debt, list(governor.journal)),
        "ledger": db.cost.ledger.snapshot(),
    }


def _run(backend: str, wrap=None, suppress: bool = False) -> dict:
    substrate = make_substrate(backend)
    if wrap is not None:
        substrate = wrap(substrate)
    db = AdaptiveDatabase(
        config=AdaptiveConfig(background_mapping=False),
        backend=substrate,
        tiering=TierConfig(hot_budget=6, promote_after=2, write_buffer_rows=10_000),
    )
    try:
        if suppress:
            with suppress_faults(substrate):
                answers = _stream(db)
        else:
            answers = _stream(db)
        observed = _observe(db, answers)
        audit = db.audit()
        assert audit.ok, audit.render()
    finally:
        db.close()
    return observed


def _silent() -> FaultSchedule:
    return FaultSchedule([FaultRule(ops=("cold_read", "cold_write"), probability=0.0)])


def _assert_equal(got: dict, want: dict) -> None:
    for key in want:
        assert got[key] == want[key], f"{key} diverged"


@pytest.mark.parametrize("backend", BACKENDS)
def test_unarmed_plane_takes_the_batched_path(backend, calls):
    bare = _run(backend)
    assert bare["moves"][0] > 0 and bare["served"][1] > 0  # the stream churns
    assert calls["_spill_read"] == calls["_cold_write_passes"] == 0
    unarmed = _run(backend, wrap=FaultySubstrate)
    assert calls["_spill_read"] == 0
    assert calls["_cold_write_passes"] == 0
    _assert_equal(unarmed, bare)


@pytest.mark.parametrize("backend", BACKENDS)
def test_suppressed_armed_plane_takes_the_batched_path(backend, calls):
    bare = _run(backend)
    schedule = _silent()
    suppressed = _run(
        backend, wrap=lambda inner: FaultySubstrate(inner, schedule=schedule), suppress=True
    )
    assert calls["_spill_read"] == calls["_cold_write_passes"] == 0
    assert schedule.total_calls == 0
    _assert_equal(suppressed, bare)


@pytest.mark.parametrize("backend", BACKENDS)
def test_armed_plane_consults_per_page_in_scan_order(backend, calls):
    bare = _run(backend)
    log = calls["log"]
    log["listed"].clear()
    schedule = _silent()
    armed = _run(backend, wrap=lambda inner: FaultySubstrate(inner, schedule=schedule))
    assert log["read"] == log["listed"]
    assert calls["_spill_read"] == schedule.counters["cold_read"] == len(log["listed"]) > 0
    assert calls["_cold_write_passes"] == schedule.counters["cold_write"] > 0
    _assert_equal(armed, bare)
