"""Initial placement in one move against the per-page loop it replaced.

A tiered ``create_table`` demotes every hot page above the budget,
tail first (``TieredPageStore.initial_placement``).  Two databases — one
as shipped, one whose stores place through
``initial_placement_oracle`` — load the same column under the same
``cold_write`` fault schedule, on both backends.  Placement (``hot``),
``demotions``, ``spill_failures``,
the governor's debt and journal, the fault journal, the schedule's
per-op call counts and the cost ledger must all be ``==``, and the
auditor must pass.  A planted case pins the spill-failure rule, and a
mutant that skips one page's fault check in a move must be caught.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.faults import FaultRule, FaultSchedule, FaultySubstrate
from repro.native import is_supported
from repro.substrate import make_substrate
from repro.tier import TierConfig, TieredPageStore
from repro.vm.constants import VALUES_PER_PAGE

from .initial_placement_oracle import oracle_initial_placement

NUM_PAGES = 12
BACKENDS = [
    "simulated",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(not is_supported(), reason="native rewiring unsupported"),
    ),
]


def _transient(seed: int) -> FaultSchedule:
    return FaultSchedule([FaultRule(ops="cold_write", probability=0.4)], seed=seed)


def _permanent(seed: int) -> FaultSchedule:
    return FaultSchedule(
        [FaultRule(ops="cold_write", probability=0.3, transient=False)], seed=seed
    )


def _mixed(seed: int) -> FaultSchedule:
    return FaultSchedule(
        [
            FaultRule(ops="cold_write", probability=0.3),
            FaultRule(ops="cold_write", probability=0.15, transient=False),
        ],
        seed=seed,
    )


def _nth_fails_for_good(n: int):
    return lambda: FaultSchedule(
        [FaultRule(ops="cold_write", nth=n, transient=False)]
    )


def _place(backend: str, schedule: FaultSchedule | None, budget, use_oracle, monkeypatch):
    """A tiered database whose one column was placed under ``schedule``
    (armed from the start, so the placement's spills consult it)."""
    if use_oracle:
        monkeypatch.setattr(
            TieredPageStore, "initial_placement", oracle_initial_placement
        )
    try:
        db = AdaptiveDatabase(
            config=AdaptiveConfig(background_mapping=False),
            backend=FaultySubstrate(make_substrate(backend), schedule=schedule),
            tiering=TierConfig(hot_budget=budget, spill_retries=2),
        )
        values = np.arange(NUM_PAGES * VALUES_PER_PAGE, dtype=np.int64)[::-1].copy()
        db.create_table("t", {"x": values})
    finally:
        monkeypatch.undo()
    return db


def _observe(db, schedule) -> dict:
    store = db.table("t").column("x").tier
    governor = store.governor
    return {
        "hot": store.hot.tolist(),
        "hot_count": store.hot_count(),
        "moves": (store.promotions, store.demotions),
        "spill_failures": store.spill_failures,
        "governor": (governor.denials, governor.debt, list(governor.journal)),
        "churn_mark": store._churn_mark,
        "faults": (
            [(f.op, f.kind, f.call_index, f.rule) for f in schedule.journal]
            if schedule is not None
            else []
        ),
        "consults": dict(schedule.counters) if schedule is not None else {},
        "ledger": db.cost.ledger.snapshot(),
    }


def _assert_parity(backend, make_schedule, budget, monkeypatch) -> dict:
    """Place both ways; every observation must be ``==``.  Returns the
    shipped side's observation."""
    observed = []
    for use_oracle in (False, True):
        schedule = make_schedule() if make_schedule else None
        db = _place(backend, schedule, budget, use_oracle, monkeypatch)
        try:
            observed.append(_observe(db, schedule))
            audit = db.audit()
            assert audit.ok, audit.render()
        finally:
            db.close()
    got, want = observed
    for key in want:
        assert got[key] == want[key], f"{key} diverged"
    return got


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("budget", [None, 1, 4, 11, 12, 20])
def test_fault_free_placement_matches_the_loop(backend, budget, monkeypatch):
    got = _assert_parity(backend, None, budget, monkeypatch)
    kept = NUM_PAGES if budget is None else min(budget, NUM_PAGES)
    assert got["hot"] == [page < kept for page in range(NUM_PAGES)]
    assert got["moves"] == (0, NUM_PAGES - kept)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("make", [_transient, _permanent, _mixed])
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("budget", [1, 5])
def test_placement_under_spill_faults_matches_the_loop(
    backend, make, seed, budget, monkeypatch
):
    _assert_parity(backend, lambda: make(seed), budget, monkeypatch)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_failed_last_page_keeps_it_hot_and_the_next_goes(backend, monkeypatch):
    """The last page's spill fails for good: it stays hot, the next
    lower page goes instead, and the budget holds without debt."""
    got = _assert_parity(backend, _nth_fails_for_good(1), 4, monkeypatch)
    hot = [0, 1, 2, NUM_PAGES - 1]
    assert got["hot"] == [page in hot for page in range(NUM_PAGES)]
    assert got["moves"] == (0, NUM_PAGES - 4)
    assert got["spill_failures"] == 1
    assert got["governor"] == (0, 0, [])
    assert got["consults"]["cold_write"] == NUM_PAGES - 3


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_spill_failing_leaves_debt(backend, monkeypatch):
    always = lambda: FaultSchedule(
        [FaultRule(ops="cold_write", probability=1.0, transient=False)]
    )
    got = _assert_parity(backend, always, 4, monkeypatch)
    assert got["hot"] == [True] * NUM_PAGES
    assert got["spill_failures"] == NUM_PAGES
    assert got["governor"][1] == NUM_PAGES - 4


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_move_that_skips_a_fault_check_is_caught(backend, monkeypatch):
    """The guard: a bulk move that does not consult the fault plane for
    its second page (a one-page move, as the loop makes, never has one)
    diverges from the loop."""
    spill = TieredPageStore._spill
    passes = TieredPageStore._cold_write_passes

    def counting_spill(self, *args, **kwargs):
        self.consults_in_move = 0
        return spill(self, *args, **kwargs)

    def skipping_passes(self):
        self.consults_in_move += 1
        return True if self.consults_in_move == 2 else passes(self)

    with pytest.MonkeyPatch.context() as mutant:
        mutant.setattr(TieredPageStore, "_spill", counting_spill)
        mutant.setattr(TieredPageStore, "_cold_write_passes", skipping_passes)
        with pytest.raises(AssertionError, match="diverged"):
            _assert_parity(backend, _nth_fails_for_good(2), 4, monkeypatch)
