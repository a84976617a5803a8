"""Fault-schedule fuzzing of the spill I/O paths.

Seeded :class:`FaultSchedule` programs inject ``cold_read_fail`` /
``cold_write_fail`` faults (transient by default — a congested far tier)
into tiered sessions.  After every step the auditor (tier-placement
invariant included) must pass and every query must match the numpy
oracle: a spill fault may cost a demotion or force a resident fallback,
never a wrong answer or a stale cold copy.  Each session ends with the
recovery oracle: faults disarmed, one maintenance cycle must clear the
governor's debt and restore the budget.

The cost bit-identity class pins the disarmed-tiering contract: an
*untiered* session is bit-identical in simulated cost to a bare run
even with a cold-fault schedule armed — no tier code runs, so no
cold op is ever consulted and no tier counter appears in the ledger.

Knobs: ``REPRO_SEED``, ``REPRO_FUZZ_SCHEDULES`` (default 200).
"""

import os

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.faults import FaultRule, FaultSchedule, FaultySubstrate
from repro.seeds import derive_seed
from repro.substrate import make_substrate
from repro.tier import TierConfig

NUM_PAGES = 8
NUM_ROWS = NUM_PAGES * 512
DOMAIN = 1_000_000

FUZZ_SCHEDULES = int(os.environ.get("REPRO_FUZZ_SCHEDULES", "200"))


class Oracle:
    """Serial fault-free ground truth: a plain numpy column."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = values.copy()
        self.alive = np.ones(values.size, dtype=bool)

    def query(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        mask = self.alive & (self.values >= lo) & (self.values <= hi)
        rowids = np.nonzero(mask)[0]
        return rowids, self.values[rowids]

    def update(self, row: int, value: int) -> None:
        self.values[row] = value

    def delete(self, lo: int, hi: int) -> None:
        mask = self.alive & (self.values >= lo) & (self.values <= hi)
        self.alive[mask] = False


def _spill_schedule(seed: int) -> FaultSchedule:
    """The sweep's fault program: both spill ops, transient and not."""
    return FaultSchedule(
        [
            FaultRule(ops="cold_read", probability=0.15),
            FaultRule(ops="cold_write", probability=0.15),
            # Permanent variants exercise the fallback / abandon paths.
            FaultRule(ops="cold_read", probability=0.05, transient=False),
            FaultRule(ops="cold_write", probability=0.05, transient=False),
        ],
        seed=seed,
    )


def _range(rng: np.random.Generator) -> tuple[int, int]:
    width = int(rng.integers(DOMAIN // 100, DOMAIN // 6))
    lo = int(rng.integers(0, DOMAIN - width))
    return lo, lo + width


def _narrow_range(rng: np.random.Generator) -> tuple[int, int]:
    """A range a handful of rows wide: with uniform values it lands on
    one or two of the column's pages, so repeating it makes those pages
    hotter than any page only whole-domain reads touch."""
    lo = int(rng.integers(0, DOMAIN - DOMAIN // 1000))
    return lo, lo + DOMAIN // 1000


def _generated_ops(rng: np.random.Generator, count: int) -> list[tuple]:
    ops: list[tuple] = []
    hot_range = _narrow_range(rng)
    for _ in range(count):
        roll = rng.random()
        if roll < 0.25:
            ops.append(("query", *_range(rng)))
        elif roll < 0.45:
            # The session's one hot range, several reads in a row: the
            # first builds its view, the rest earn the promotion.
            ops.extend([("query", *hot_range)] * 3)
        elif roll < 0.70:
            ops.append(
                (
                    "update",
                    int(rng.integers(0, NUM_ROWS)),
                    int(rng.integers(0, DOMAIN)),
                )
            )
        elif roll < 0.80:
            ops.append(("flush",))
        else:
            ops.append(("delete", *_range(rng)))
    return ops


def _run_session(
    ops: list[tuple],
    schedule: FaultSchedule | None,
    data_seed: int,
    hot_budget: int = 3,
) -> tuple[int, dict]:
    """One audited tiered session under spill faults, oracle-checked.

    Returns (faults fired, final tier status).  Ends with the recovery
    oracle: faults disarmed, maintenance clears the debt, the audit is
    clean, and every query of the session matches the oracle again.
    """
    rng = np.random.default_rng(data_seed)
    values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
    oracle = Oracle(values)
    substrate = FaultySubstrate(make_substrate("simulated"))

    with AdaptiveDatabase(
        config=AdaptiveConfig(background_mapping=False),
        backend=substrate,
        tiering=TierConfig(hot_budget=hot_budget, spill_retries=2),
    ) as db:
        db.create_table("t", {"x": values})
        store = db.table("t").column("x").file
        placed = store.demotions  # initial placement, before any fault
        substrate.schedule = schedule  # setup above stays fault-free

        for step, op in enumerate(ops):
            if op[0] == "query":
                _, lo, hi = op
                result = db.query("t", "x", lo, hi)
                want_rows, want_vals = oracle.query(lo, hi)
                order = np.argsort(result.rowids)
                assert np.array_equal(
                    result.rowids[order], want_rows
                ) and np.array_equal(result.values[order], want_vals), (
                    f"step {step}: query [{lo}, {hi}] diverged from oracle\n"
                    + (schedule.describe() if schedule else "")
                )
            elif op[0] == "update":
                _, row, value = op
                if not oracle.alive[row]:
                    continue
                db.update("t", "x", row, value)
                oracle.update(row, value)
            elif op[0] == "flush":
                db.flush_updates("t", "x")
            elif op[0] == "delete":
                _, lo, hi = op
                db.delete("t", "x", lo, hi)
                oracle.delete(lo, hi)

            audit = db.audit()
            assert audit.ok, (
                f"step {step} ({op[0]}): invariants violated\n"
                f"{audit.render()}"
                + (f"\nfaults:\n{schedule.describe()}" if schedule else "")
            )

        fired = schedule.faults_fired if schedule else 0
        armed_moves = (store.promotions, store.demotions - placed)

        # Recovery oracle: disarmed, one maintenance cycle restores the
        # budget and clears the debt spill failures may have left.
        substrate.schedule = None
        store.maintenance(db.cost)
        assert store.governor.debt == 0, (
            f"debt {store.governor.debt} survived a fault-free "
            "maintenance cycle"
        )
        assert store.hot_count() <= hot_budget
        audit = db.audit()
        assert audit.ok, f"post-recovery audit failed\n{audit.render()}"
        for op in ops:
            if op[0] != "query":
                continue
            _, lo, hi = op
            result = db.query("t", "x", lo, hi)
            want_rows, want_vals = oracle.query(lo, hi)
            order = np.argsort(result.rowids)
            assert np.array_equal(result.rowids[order], want_rows)
            assert np.array_equal(result.values[order], want_vals)
        status = db.tier_status()["t.x"]
        # What moved while the schedule was armed, for the sweep's
        # coverage assertions.
        status["armed_promotions"], status["armed_demotions"] = armed_moves
        return fired, status


OPS_STRATEGY = st.lists(
    st.one_of(
        st.tuples(
            st.just("query"),
            st.integers(0, DOMAIN // 2),
            st.integers(DOMAIN // 2, DOMAIN),
        ),
        st.tuples(
            st.just("update"),
            st.integers(0, NUM_ROWS - 1),
            st.integers(0, DOMAIN),
        ),
        st.tuples(st.just("flush")),
        st.tuples(
            st.just("delete"),
            st.integers(0, DOMAIN // 4),
            st.integers(DOMAIN // 4, DOMAIN // 2),
        ),
    ),
    min_size=1,
    max_size=12,
)


class TestSpillFaultProperties:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ops=OPS_STRATEGY,
        schedule_seed=st.integers(0, 2**32 - 1),
        hot_budget=st.integers(1, NUM_PAGES),
    )
    def test_spill_faults_never_corrupt_results(
        self, ops, schedule_seed, hot_budget
    ):
        """∀ op sequences, ∀ spill-fault schedules, ∀ budgets: audits
        pass, results match, recovery converges."""
        _run_session(
            ops,
            _spill_schedule(schedule_seed),
            data_seed=1,
            hot_budget=hot_budget,
        )


class TestSpillScheduleSweep:
    def test_bulk_seeded_schedules(self):
        """≥200 seeded spill-fault schedules (REPRO_FUZZ_SCHEDULES)
        survive with per-step audits and the end-of-session recovery
        oracle — and the sweep genuinely exercises the fault paths."""
        total_fired = 0
        fallbacks = 0
        spill_failures = 0
        armed_promotions = 0
        armed_demotions = 0
        for i in range(FUZZ_SCHEDULES):
            seed = derive_seed(20_000 + i)
            rng = np.random.default_rng(seed)
            ops = _generated_ops(rng, 8)
            fired, status = _run_session(
                ops, _spill_schedule(seed), data_seed=seed
            )
            total_fired += fired
            fallbacks += status["read_fallbacks"]
            spill_failures += status["spill_failures"]
            armed_promotions += status["armed_promotions"]
            armed_demotions += status["armed_demotions"]
        assert total_fired >= FUZZ_SCHEDULES // 4, (
            f"only {total_fired} faults fired across {FUZZ_SCHEDULES} "
            "schedules - the schedule generator is too tame"
        )
        assert fallbacks > 0, "no cold read ever fell back to the resident copy"
        assert spill_failures > 0, "no spill write ever failed permanently"
        # Whole-domain reads alone move nothing (a scan is no evidence),
        # and then the recovery oracle covers no spill path at all.
        assert armed_promotions > 0, "no promotion ran under a cold_read rule"
        assert armed_demotions > 0, "no demotion ran under a cold_write rule"

    def test_sweep_is_deterministic(self):
        """Replaying one sweep entry fires the identical fault journal."""
        seed = derive_seed(20_007)
        journals = []
        for _ in range(2):
            rng = np.random.default_rng(seed)
            ops = _generated_ops(rng, 8)
            schedule = _spill_schedule(seed)
            _run_session(ops, schedule, data_seed=seed)
            journals.append(
                [(f.op, f.kind, f.call_index, f.rule) for f in schedule.journal]
            )
        assert journals[0] == journals[1]


def _ledger_of(substrate, ops, seed, tiering=None):
    """The cost-ledger snapshot of one fixed session on ``substrate``."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
    oracle = Oracle(values)
    with AdaptiveDatabase(
        config=AdaptiveConfig(background_mapping=False),
        backend=substrate,
        tiering=tiering,
    ) as db:
        db.create_table("t", {"x": values})
        for op in ops:
            if op[0] == "query":
                db.query("t", "x", op[1], op[2])
            elif op[0] == "update":
                if not oracle.alive[op[1]]:
                    continue
                db.update("t", "x", op[1], op[2])
                oracle.update(op[1], op[2])
            elif op[0] == "flush":
                db.flush_updates("t", "x")
            elif op[0] == "delete":
                db.delete("t", "x", op[1], op[2])
                oracle.delete(op[1], op[2])
        return db.cost.ledger.snapshot()


class TestUntieredCostBitIdentity:
    """Disarmed tiering is invisible on the cost ledger — fuzz-enforced."""

    def test_untiered_session_matches_bare_substrate(self):
        """An untiered session with a cold-fault schedule armed is
        bit-identical to running on the bare substrate: no tier code
        runs, so the schedule's cold rules are never even consulted."""
        seed = derive_seed(5)
        rng = np.random.default_rng(seed)
        ops = _generated_ops(rng, 12)

        bare = _ledger_of(make_substrate("simulated"), ops, seed)
        faulty = FaultySubstrate(make_substrate("simulated"))
        faulty.schedule = _spill_schedule(seed)
        armed = _ledger_of(faulty, ops, seed)
        assert armed == bare
        assert faulty.schedule.faults_fired == 0

    def test_untiered_ledger_carries_no_tier_counters(self):
        """Untiered sessions never count a single tier operation."""
        seed = derive_seed(5)
        rng = np.random.default_rng(seed)
        ops = _generated_ops(rng, 12)
        _, counters = _ledger_of(make_substrate("simulated"), ops, seed)
        tier_keys = [
            k
            for k in counters
            if "cold" in k or "tier" in k or "promot" in k
        ]
        assert tier_keys == []

    @settings(max_examples=15, deadline=None)
    @given(data_seed=st.integers(0, 2**32 - 1))
    def test_untiered_cost_is_deterministic(self, data_seed):
        """∀ seeds: two identical untiered sessions charge identical
        ledgers (the baseline the bit-identity contract rests on)."""
        rng = np.random.default_rng(data_seed)
        ops = _generated_ops(rng, 8)
        first = _ledger_of(make_substrate("simulated"), ops, data_seed)
        second = _ledger_of(make_substrate("simulated"), ops, data_seed)
        assert first == second

    def test_tiered_session_does_charge_tier_costs(self):
        """The contrast case: arming tiering shows up on the ledger."""
        seed = derive_seed(5)
        rng = np.random.default_rng(seed)
        ops = _generated_ops(rng, 12)
        _, counters = _ledger_of(
            make_substrate("simulated"),
            ops,
            seed,
            tiering=TierConfig(hot_budget=2),
        )
        assert counters.get("cold_page_writes", 0) > 0
        assert counters.get("cold_page_reads", 0) > 0
