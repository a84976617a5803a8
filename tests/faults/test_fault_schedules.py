"""Property-based fault-schedule fuzzing (the PR's acceptance suite).

Generated sessions interleave queries, updates, flushes, deletes and
standalone view creations while a seeded :class:`FaultSchedule` injects
substrate failures.  After **every** step the invariant auditor must
pass, and every query result must equal a fault-free numpy oracle — a
fault may cost a view, never a wrong answer.

Knobs (all read once, at collection time):

* ``REPRO_SEED``            — base seed for the whole suite (default 0).
* ``REPRO_FUZZ_SCHEDULES``  — schedules in the bulk sweep (default 200).
* ``REPRO_FUZZ_BACKEND``    — substrate backend to fuzz (default
  ``simulated``; the deep CI job also runs ``native``).
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import AdaptiveConfig
from repro.core.creation import create_partial_view
from repro.core.facade import AdaptiveDatabase
from repro.core.stats import ViewEvent
from repro.faults import (
    FaultKind,
    FaultRule,
    FaultSchedule,
    FaultySubstrate,
    SubstrateFault,
)
from repro.resilience import ResilienceConfig
from repro.seeds import derive_seed
from repro.substrate import make_substrate

from ..resilience import governor_oracle

NUM_PAGES = 8
NUM_ROWS = NUM_PAGES * 512
DOMAIN = 1_000_000

FUZZ_SCHEDULES = int(os.environ.get("REPRO_FUZZ_SCHEDULES", "200"))
FUZZ_BACKEND = os.environ.get("REPRO_FUZZ_BACKEND", "simulated")


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


def _heavy_schedule(seed: int) -> FaultSchedule:
    """The sweep's fault program: every injection point, aggressively."""
    return FaultSchedule(
        [
            FaultRule(ops=("reserve", "map_file"), probability=0.08),
            FaultRule(ops="map_fixed", probability=0.08),
            FaultRule(ops="unmap_slot", probability=0.05),
            FaultRule(ops="maps_snapshot", probability=0.10),
            FaultRule(
                ops="maps_snapshot",
                probability=0.10,
                kind=FaultKind.STALE_MAPS,
            ),
        ],
        seed=seed,
    )


def _transient_schedule(seed: int) -> FaultSchedule:
    """A recovery-oriented program: mostly transient faults the retry
    engine can heal, plus permanent rules to force quarantines (a lost
    candidate here, a dropped-on-maintenance view there)."""
    return FaultSchedule(
        [
            FaultRule(ops="map_fixed", probability=0.12),
            FaultRule(
                ops=("reserve", "map_file"), probability=0.05, transient=True
            ),
            FaultRule(ops="unmap_slot", probability=0.06),
            FaultRule(ops="maps_snapshot", probability=0.10),
            FaultRule(
                ops="maps_snapshot",
                probability=0.06,
                kind=FaultKind.STALE_MAPS,
            ),
            FaultRule(ops="map_fixed", probability=0.06, transient=False),
            FaultRule(ops="maps_snapshot", probability=0.08, transient=False),
        ],
        seed=seed,
    )


def _range(rng: np.random.Generator) -> tuple[int, int]:
    width = int(rng.integers(DOMAIN // 100, DOMAIN // 6))
    lo = int(rng.integers(0, DOMAIN - width))
    return lo, lo + width


def _generated_ops(rng: np.random.Generator, count: int) -> list[tuple]:
    ops: list[tuple] = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.45:
            ops.append(("query", *_range(rng)))
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
        elif roll < 0.90:
            ops.append(("create", *_range(rng)))
        else:
            ops.append(("delete", *_range(rng)))
    return ops


def _run_session(
    ops: list[tuple],
    schedule: FaultSchedule | None,
    data_seed: int,
    backend: str = "simulated",
    resilience: ResilienceConfig | None = None,
    status_out: dict | None = None,
    install=None,
) -> int:
    """Run one audited faulted session against the oracle.

    Returns the number of faults that fired.  Asserts, after every
    step, that the auditor passes and query results match the oracle.
    With ``resilience`` armed, the session additionally verifies the
    recovery oracle at the end: a fault-free repair must converge to an
    empty quarantine, pass the audit, and answer every query of the
    session identically to the fault-free serial oracle.  Under a
    mapping budget a rebuild may be refused admission, so there the
    repair must leave quarantined exactly the ranges it was refused.
    ``install(layer)``, if given, runs once the layer exists.
    ``status_out`` receives the status, the view history and the ledger.
    """
    rng = np.random.default_rng(data_seed)
    values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
    oracle = Oracle(values)
    substrate = FaultySubstrate(make_substrate(backend))

    with AdaptiveDatabase(
        config=AdaptiveConfig(background_mapping=False),
        backend=substrate,
        resilience=resilience,
    ) as db:
        db.create_table("t", {"x": values})
        layer = db.layer("t", "x")
        if install is not None:
            install(layer)
        substrate.schedule = schedule  # setup above stays fault-free

        for step, op in enumerate(ops):
            if op[0] == "query":
                _, lo, hi = op
                result = db.query("t", "x", lo, hi)
                want_rows, want_vals = oracle.query(lo, hi)
                order = np.argsort(result.rowids)
                got_rows = result.rowids[order]
                got_vals = result.values[order]
                assert np.array_equal(got_rows, want_rows) and np.array_equal(
                    got_vals, want_vals
                ), (
                    f"step {step}: query [{lo}, {hi}] diverged from oracle "
                    f"({got_rows.size} vs {want_rows.size} rows)\n"
                    f"faults so far:\n{substrate.schedule.describe()}"
                    if substrate.schedule
                    else ""
                )
            elif op[0] == "update":
                _, row, value = op
                if not oracle.alive[row]:
                    continue  # updating a tombstoned row raises by design
                db.update("t", "x", row, value)
                oracle.update(row, value)
            elif op[0] == "flush":
                db.flush_updates("t", "x")
            elif op[0] == "create":
                _, lo, hi = op
                if len(db.table("t").pending_updates("x")):
                    db.flush_updates("t", "x")
                try:
                    report = create_partial_view(
                        layer.column, [layer.view_index.full_view], lo, hi
                    )
                except SubstrateFault:
                    pass  # rolled back; the audit below proves it
                else:
                    layer.view_index.insert(report.view)
            elif op[0] == "delete":
                _, lo, hi = op
                db.delete("t", "x", lo, hi)
                oracle.delete(lo, hi)

            audit = db.audit()
            assert audit.ok, (
                f"step {step} ({op[0]}): invariants violated\n{audit.render()}"
                + (
                    f"\nfaults:\n{substrate.schedule.describe()}"
                    if substrate.schedule
                    else ""
                )
            )

        fired = len(substrate.schedule.journal) if substrate.schedule else 0

        if resilience is not None:
            # Recovery oracle: with faults disarmed, a repair converges
            # (zero quarantined views), the audit is clean, and every
            # query of the session matches the fault-free oracle again.
            substrate.schedule = None
            denied = _denials(layer)
            converged = db.repair()
            layer = db.layer("t", "x")
            if resilience.mapping_budget is None:
                assert converged, "end-of-session repair did not converge"
                assert not layer.view_index.quarantine
            else:
                refused = _denials(layer) - denied
                assert len(layer.view_index.quarantine) == refused, (
                    "repair left a quarantined range it was not refused"
                )
            audit = db.audit()
            assert audit.ok, f"post-repair audit failed\n{audit.render()}"
            for op in ops:
                if op[0] != "query":
                    continue
                _, lo, hi = op
                result = db.query("t", "x", lo, hi)
                want_rows, want_vals = oracle.query(lo, hi)
                order = np.argsort(result.rowids)
                assert np.array_equal(result.rowids[order], want_rows)
                assert np.array_equal(result.values[order], want_vals)
            if status_out is not None:
                status_out.update(db.resilience_status())
                status_out["history"] = list(layer.view_index.history)
                status_out["ledger"] = db.cost.ledger.snapshot()
        return fired


def _denials(layer) -> int:
    return sum(
        e.event is ViewEvent.DENIED_BUDGET for e in layer.view_index.history
    )


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
            st.just("create"),
            st.integers(0, DOMAIN // 2),
            st.integers(DOMAIN // 2, DOMAIN),
        ),
        st.tuples(
            st.just("delete"),
            st.integers(0, DOMAIN // 4),
            st.integers(DOMAIN // 4, DOMAIN // 2),
        ),
    ),
    min_size=1,
    max_size=16,
)


class TestFaultScheduleProperties:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=OPS_STRATEGY, schedule_seed=st.integers(0, 2**32 - 1))
    def test_faults_never_corrupt_results(self, ops, schedule_seed):
        """∀ op sequences, ∀ fault schedules: audits pass, results match."""
        _run_session(ops, _heavy_schedule(schedule_seed), data_seed=1)

    @settings(max_examples=10, deadline=None)
    @given(data_seed=st.integers(0, 2**32 - 1))
    def test_fault_free_session_is_clean(self, data_seed):
        """The degenerate schedule-less session always passes too."""
        rng = np.random.default_rng(data_seed)
        ops = _generated_ops(rng, 8)
        fired = _run_session(ops, None, data_seed=data_seed)
        assert fired == 0


class TestScheduleSweep:
    def test_bulk_seeded_schedules(self):
        """≥200 distinct seeded schedules (REPRO_FUZZ_SCHEDULES) survive."""
        total_fired = 0
        for i in range(FUZZ_SCHEDULES):
            seed = derive_seed(i)
            rng = np.random.default_rng(seed)
            ops = _generated_ops(rng, 10)
            total_fired += _run_session(
                ops,
                _heavy_schedule(seed),
                data_seed=seed,
                backend=FUZZ_BACKEND,
            )
        # The sweep must actually exercise the fault paths.
        assert total_fired >= FUZZ_SCHEDULES // 4, (
            f"only {total_fired} faults fired across {FUZZ_SCHEDULES} "
            "schedules - the schedule generator is too tame"
        )

    def test_sweep_is_deterministic(self):
        """Replaying one sweep entry fires the identical fault journal."""
        seed = derive_seed(7)
        journals = []
        for _ in range(2):
            rng = np.random.default_rng(seed)
            ops = _generated_ops(rng, 10)
            schedule = _heavy_schedule(seed)
            _run_session(ops, schedule, data_seed=seed)
            journals.append(
                [(f.op, f.kind, f.call_index, f.rule) for f in schedule.journal]
            )
        assert journals[0] == journals[1]


class TestRecoverySweep:
    """Seeded transient-heavy schedules must heal back to the oracle."""

    def test_bulk_transient_recovery(self):
        """Every transient-heavy schedule converges: repair empties the
        quarantine and the healed layer answers like the oracle — and
        the sweep as a whole actually exercised retry and rebuild."""
        count = max(FUZZ_SCHEDULES // 4, 10)
        total_fired = 0
        recovered = 0
        rebuilt = 0
        for i in range(count):
            seed = derive_seed(10_000 + i)
            rng = np.random.default_rng(seed)
            ops = _generated_ops(rng, 10)
            status: dict = {}
            total_fired += _run_session(
                ops,
                _transient_schedule(seed),
                data_seed=seed,
                backend=FUZZ_BACKEND,
                resilience=ResilienceConfig(seed=seed),
                status_out=status,
            )
            for layer_status in status.get("layers", {}).values():
                recovered += layer_status["retries_recovered"]
                rebuilt += layer_status["views_rebuilt"]
        assert total_fired >= count // 4, "transient schedules too tame"
        assert recovered > 0, "no transient fault was ever retried to success"
        assert rebuilt > 0, "no quarantined view was ever rebuilt"

    def test_recovery_is_deterministic(self):
        """Replaying one armed sweep entry fires the identical journal."""
        seed = derive_seed(10_007)
        journals = []
        for _ in range(2):
            rng = np.random.default_rng(seed)
            ops = _generated_ops(rng, 10)
            schedule = _transient_schedule(seed)
            _run_session(
                ops,
                schedule,
                data_seed=seed,
                resilience=ResilienceConfig(seed=seed),
            )
            journals.append(
                [(f.op, f.kind, f.call_index, f.rule) for f in schedule.journal]
            )
        assert journals[0] == journals[1]


#: Maps-line budgets the budgeted sweep draws from.  Every view of the
#: sweep's random columns is about one run, so 1 leaves no room beside
#: the full view (each admission is refused unevicted) and the larger
#: ones evict often.
SWEEP_BUDGETS = (1, 2, 3, 4, 6)


class TestBudgetedRecoverySweep:
    """The recovery sweep under a maps-line budget, against the
    eviction-loop oracle (``tests/resilience/governor_oracle.py``)."""

    def test_budgeted_sweep_matches_the_eviction_loop(self):
        """Per seed, the shipped budget and the oracle's loop leave the
        same view history, ledger lanes and counters, status counters
        and fault journal — and the sweep evicted and denied."""
        evicted = denied = 0
        for i in range(FUZZ_SCHEDULES):
            seed = derive_seed(20_000 + i)
            budget = SWEEP_BUDGETS[i % len(SWEEP_BUDGETS)]
            sides = []
            for install in (None, governor_oracle.install):
                rng = np.random.default_rng(seed)
                schedule = _transient_schedule(seed)
                status: dict = {}
                _run_session(
                    _generated_ops(rng, 10),
                    schedule,
                    data_seed=seed,
                    backend=FUZZ_BACKEND,
                    resilience=ResilienceConfig(mapping_budget=budget, seed=seed),
                    status_out=status,
                    install=install,
                )
                status["faults"] = [
                    (f.op, f.kind, f.call_index, f.rule) for f in schedule.journal
                ]
                sides.append(status)
            shipped, oracle = sides
            for key in oracle:
                assert shipped[key] == oracle[key], (
                    f"seed {seed} (schedule {i}, budget {budget}): {key} diverged"
                )
            layer_status = shipped["layers"]["t.x"]
            evicted += layer_status["governor_evictions"]
            denied += layer_status["governor_denials"]
        assert evicted > 0, "no view was ever evicted for the budget"
        assert denied > 0, "no admission was ever refused"


def _ledger_of(substrate, ops, seed, resilience=None):
    """The cost-ledger snapshot of one fixed session on ``substrate``."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
    oracle = Oracle(values)
    with AdaptiveDatabase(
        config=AdaptiveConfig(background_mapping=False),
        backend=substrate,
        resilience=resilience,
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


@pytest.mark.skipif(
    FUZZ_BACKEND != "simulated", reason="cost model is simulated-only"
)
class TestCostBitIdentity:
    def test_disarmed_session_matches_bare_substrate(self):
        """The same session with faults disabled is bit-identical in
        simulated cost to running without the fault plane at all."""
        seed = derive_seed(3)
        rng = np.random.default_rng(seed)
        ops = _generated_ops(rng, 12)

        bare = _ledger_of(make_substrate("simulated"), ops, seed)
        wrapped = _ledger_of(
            FaultySubstrate(make_substrate("simulated")), ops, seed
        )
        assert wrapped == bare

    def test_armed_faultless_resilience_is_free(self):
        """Armed resilience with no faults and no budget never charges:
        retry wrappers, health checks and governor probes are all free,
        so the ledger is bit-identical to the bare run."""
        seed = derive_seed(3)
        rng = np.random.default_rng(seed)
        ops = _generated_ops(rng, 12)

        bare = _ledger_of(make_substrate("simulated"), ops, seed)
        armed = _ledger_of(
            make_substrate("simulated"),
            ops,
            seed,
            resilience=ResilienceConfig(seed=seed),
        )
        assert armed == bare
