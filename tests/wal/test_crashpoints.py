"""The crash-point fuzz plane: seeded crashes, recovery oracle, bit-identity.

Each schedule in the sweep arms one seeded :class:`CrashPointSchedule`
on a durable session, runs a generated op stream until the simulated
crash fires (abandoning the database object exactly as a ``SIGKILL``
would), then recovers the directory and checks the crash-recovery
contract:

* the audit (including ``wal-consistency``) is clean;
* every *acknowledged* write is present — the recovered content equals
  the acked prefix of the op stream, plus at most the single in-limbo
  op that was mid-append when the crash fired;
* ``acked ≤ replayed ≤ acked + 1`` on the logical-op counts.

The bit-identity classes pin the durability-off contract: without
``durable_dir=`` not a single WAL code path runs, so the cost ledger is
bit-identical to a bare session even with a wal/fsync/torn fault
schedule armed.

Knobs: ``REPRO_SEED``, ``REPRO_FUZZ_SCHEDULES`` (default 200).
"""

import os
import shutil
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.faults import FaultRule, FaultSchedule, FaultySubstrate
from repro.faults.schedule import FaultKind
from repro.seeds import derive_seed
from repro.substrate import make_substrate
from repro.wal import CrashPointSchedule, DurabilityConfig, SimulatedCrash
from repro.wal.recovery import recover_database

NUM_ROWS = 512
DOMAIN = 1_000_000
OPS_PER_SESSION = 24
CRASH_HORIZON = 20

FUZZ_SCHEDULES = int(os.environ.get("REPRO_FUZZ_SCHEDULES", "200"))

CONFIG = AdaptiveConfig(background_mapping=False)


def _second(x):
    """The row's ``a`` value, given its ``x``.

    The table is ``(x, a)`` — not alphabetical, so a replay that lost
    the definition order would hand positional rows back swapped — and
    ``a`` never equals ``x``, so the oracle sees a swap.
    """
    return DOMAIN + 1 - x


class Model:
    """Logical ground truth: the rows a client was told are durable."""

    def __init__(self) -> None:
        self.created = False
        self.values: list[int] = []
        self.second: list[int] = []
        self.alive: list[bool] = []

    def clone(self) -> "Model":
        other = Model()
        other.created = self.created
        other.values = list(self.values)
        other.second = list(self.second)
        other.alive = list(self.alive)
        return other

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "create":
            self.created = True
            self.values = [int(v) for v in op[1]]
            self.second = [_second(v) for v in self.values]
            self.alive = [True] * len(self.values)
        elif kind == "insert":
            self.values.append(op[1])
            self.second.append(_second(op[1]))
            self.alive.append(True)
        elif kind == "update":
            self.values[op[1]] = op[2]
        elif kind == "delete":
            lo, hi = op[1], op[2]
            for i, value in enumerate(self.values):
                if self.alive[i] and lo <= value <= hi:
                    self.alive[i] = False
        elif kind in ("flush", "query"):
            pass  # no logical content change
        else:  # pragma: no cover - generator bug
            raise ValueError(kind)

    def content(self) -> tuple[tuple[int, ...], ...]:
        """Live ``(rowids, x values, a values)``, in row order."""
        live = [row for row, alive in enumerate(self.alive) if alive]
        return (
            tuple(live),
            tuple(self.values[row] for row in live),
            tuple(self.second[row] for row in live),
        )


def _db_content(db) -> tuple[tuple[int, ...], ...]:
    if "t" not in db.table_names():
        return (), (), ()
    by_column = []
    for column in ("x", "a"):
        result = db.query("t", column, -1, DOMAIN + 2)
        order = np.argsort(result.rowids)
        by_column.append(
            (
                tuple(int(r) for r in result.rowids[order]),
                tuple(int(v) for v in result.values[order]),
            )
        )
    (rows, xs), (rows_again, seconds) = by_column
    assert rows == rows_again
    return rows, xs, seconds


def _generated_ops(rng: np.random.Generator, count: int) -> list[tuple]:
    values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
    ops: list[tuple] = [("create", values)]
    for _ in range(count):
        roll = rng.random()
        if roll < 0.40:
            ops.append(("insert", int(rng.integers(0, DOMAIN))))
        elif roll < 0.65:
            ops.append(
                (
                    "update",
                    int(rng.integers(0, NUM_ROWS)),
                    int(rng.integers(0, DOMAIN)),
                )
            )
        elif roll < 0.80:
            width = int(rng.integers(1, DOMAIN // 10))
            lo = int(rng.integers(0, DOMAIN - width))
            ops.append(("delete", lo, lo + width))
        elif roll < 0.90:
            ops.append(("flush",))
        else:
            width = int(rng.integers(1, DOMAIN // 4))
            lo = int(rng.integers(0, DOMAIN - width))
            ops.append(("query", lo, lo + width))
    return ops


def _issue(db, op: tuple) -> None:
    kind = op[0]
    if kind == "create":
        db.create_table("t", {"x": op[1], "a": _second(op[1])})
    elif kind == "insert":
        db.insert("t", {"x": op[1], "a": _second(op[1])})
    elif kind == "update":
        db.update("t", "x", op[1], op[2])
    elif kind == "delete":
        db.delete("t", "x", op[1], op[2])
    elif kind == "flush":
        db.flush_inserts("t")
    elif kind == "query":
        db.query("t", "x", op[1], op[2])


def _run_crash_session(seed: int) -> dict:
    """One armed session + recovery; returns what happened.

    The crash-recovery contract is asserted inside; the returned dict
    feeds the sweep's coverage assertions.
    """
    rng = np.random.default_rng(seed)
    ops = _generated_ops(rng, OPS_PER_SESSION)
    schedule = CrashPointSchedule(seed, horizon=CRASH_HORIZON)
    durable_dir = tempfile.mkdtemp(prefix="repro-crashfuzz-")
    model = Model()
    acked_ops = 0
    pending: tuple | None = None
    try:
        db = AdaptiveDatabase(
            config=CONFIG,
            durable_dir=durable_dir,
            durability=DurabilityConfig(fsync="off"),
        )
        db._wal.crashpoints = schedule
        try:
            for op in ops:
                if op[0] == "update" and (
                    op[1] >= len(model.alive) or not model.alive[op[1]]
                ):
                    continue  # would be refused pre-journal; skip
                pending = op
                _issue(db, op)
                pending = None
                if op[0] in ("create", "insert", "update", "delete"):
                    acked_ops += 1
                model.apply(op)
        except SimulatedCrash:
            pass  # abandon the db object: in-process SIGKILL
        else:
            db._wal._fh.flush()

        recovered, report = recover_database(
            durable_dir, durability=DurabilityConfig(fsync="off")
        )
        try:
            audit = recovered.audit()
            assert audit.ok, (
                f"seed {seed}: post-recovery audit failed "
                f"({schedule.describe()})\n{audit.render()}"
            )
            assert acked_ops <= report.replayed_ops <= acked_ops + 1, (
                f"seed {seed}: acked {acked_ops} vs replayed "
                f"{report.replayed_ops} ({schedule.describe()})"
            )
            candidates = [model.content()]
            if pending is not None:
                limbo = model.clone()
                limbo.apply(pending)
                candidates.append(limbo.content())
            got = _db_content(recovered)
            assert got in candidates, (
                f"seed {seed}: recovered content matches neither the "
                f"acked prefix nor acked+limbo ({schedule.describe()})"
            )
        finally:
            recovered.close()
        return {
            "fired": schedule.fired,
            "phase": schedule.crash_phase if schedule.fired else None,
            "truncated": report.truncated_bytes,
            "replayed": report.replayed_ops,
        }
    finally:
        shutil.rmtree(durable_dir, ignore_errors=True)


class TestCrashPointSweep:
    def test_bulk_seeded_schedules(self):
        """≥200 seeded crash points (REPRO_FUZZ_SCHEDULES) hold the
        crash-recovery contract — and the sweep genuinely crashes at
        every protocol phase, including torn tails."""
        fired = 0
        phases: dict[str, int] = {}
        truncations = 0
        for i in range(FUZZ_SCHEDULES):
            seed = derive_seed(30_000 + i)
            outcome = _run_crash_session(seed)
            if outcome["fired"]:
                fired += 1
                phases[outcome["phase"]] = phases.get(outcome["phase"], 0) + 1
            if outcome["truncated"]:
                truncations += 1
        assert fired >= FUZZ_SCHEDULES // 4, (
            f"only {fired} of {FUZZ_SCHEDULES} schedules crashed — the "
            "horizon is too deep for the workload"
        )
        missing = set(
            ("before_append", "torn", "after_append", "after_fsync")
        ) - set(phases)
        assert not missing, f"phases never exercised: {sorted(missing)}"
        assert truncations > 0, "no torn tail was ever truncated"

    def test_sweep_entry_is_deterministic(self):
        """Replaying one sweep seed crashes at the identical point and
        recovers the identical content."""
        seed = derive_seed(30_011)
        outcomes = [_run_crash_session(seed) for _ in range(2)]
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_contract_holds_for_arbitrary_seeds(self, seed):
        """∀ seeds: the crash-recovery contract holds."""
        _run_crash_session(seed)


def _durability_fault_schedule(seed: int) -> FaultSchedule:
    """A schedule aimed squarely at the WAL fault surface."""
    return FaultSchedule(
        [
            FaultRule(ops="wal_append", probability=0.2),
            FaultRule(ops="fsync", probability=0.2),
            FaultRule(
                ops="wal_append",
                probability=0.1,
                kind=FaultKind.TORN_WRITE,
            ),
        ],
        seed=seed,
    )


def _ledger_of(substrate, ops, durable_dir=None):
    """Cost-ledger snapshot of one fixed session on ``substrate``."""
    kwargs = {}
    if durable_dir is not None:
        kwargs = {
            "durable_dir": durable_dir,
            "durability": DurabilityConfig(fsync="off"),
        }
    model = Model()
    with AdaptiveDatabase(config=CONFIG, backend=substrate, **kwargs) as db:
        for op in ops:
            if op[0] == "update" and (
                op[1] >= len(model.alive) or not model.alive[op[1]]
            ):
                continue
            _issue(db, op)
            model.apply(op)
        return db.cost.ledger.snapshot()


class TestDurabilityOffBitIdentity:
    """Durability off = WAL code invisible on the ledger, fuzz-enforced."""

    def test_off_session_matches_bare_substrate(self):
        seed = derive_seed(9)
        rng = np.random.default_rng(seed)
        ops = _generated_ops(rng, 16)

        bare = _ledger_of(make_substrate("simulated"), ops)
        faulty = FaultySubstrate(make_substrate("simulated"))
        faulty.schedule = _durability_fault_schedule(seed)
        armed = _ledger_of(faulty, ops)
        assert armed == bare
        assert faulty.schedule.faults_fired == 0

    def test_off_ledger_carries_no_wal_counters(self):
        seed = derive_seed(9)
        rng = np.random.default_rng(seed)
        ops = _generated_ops(rng, 16)
        _, counters = _ledger_of(make_substrate("simulated"), ops)
        assert [k for k in counters if "wal" in k or "fsync" in k] == []

    @settings(max_examples=10, deadline=None)
    @given(data_seed=st.integers(0, 2**32 - 1))
    def test_off_cost_is_deterministic_and_schedule_blind(self, data_seed):
        """∀ seeds: arming a WAL fault schedule never perturbs a
        durability-off session's ledger."""
        rng = np.random.default_rng(data_seed)
        ops = _generated_ops(rng, 10)
        bare = _ledger_of(make_substrate("simulated"), ops)
        faulty = FaultySubstrate(make_substrate("simulated"))
        faulty.schedule = _durability_fault_schedule(data_seed)
        assert _ledger_of(faulty, ops) == bare
        assert faulty.schedule.faults_fired == 0

    def test_durable_session_does_charge_wal_costs(self, tmp_path):
        """The contrast case: durability on shows up on the ledger."""
        seed = derive_seed(9)
        rng = np.random.default_rng(seed)
        ops = _generated_ops(rng, 16)
        _, counters = _ledger_of(
            make_substrate("simulated"), ops, durable_dir=str(tmp_path)
        )
        assert counters.get("wal_appends", 0) > 0
        assert counters.get("wal_bytes", 0) > 0
