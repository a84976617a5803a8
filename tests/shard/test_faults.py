"""Sharded execution under injected faults: results never diverge.

Each shard's substrate is wrapped in a
:class:`~repro.faults.plane.FaultySubstrate` with its own seeded
probabilistic schedule (derived through
:func:`~repro.seeds.derive_seed`, so the sweep replays from the
environment).  With resilience armed the faulted session must keep
matching the fault-free numpy oracle query for query; afterwards a
repair must converge and the audit must come back clean.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.faults import FaultSchedule, FaultySubstrate
from repro.resilience.policy import ResilienceConfig
from repro.seeds import derive_seed
from repro.shard import ShardedDatabase
from repro.substrate import make_substrate
from repro.vm.constants import VALUES_PER_PAGE
from repro.workloads.distributions import DEFAULT_DOMAIN

NUM_ROWS = 16 * VALUES_PER_PAGE
DOMAIN = DEFAULT_DOMAIN[1]

#: Retryable rewiring ops the sweep injects transient failures into.
FAULT_OPS = ("map_fixed", "unmap")


def _faulty_substrates(
    num_shards: int, probability: float, sweep_seed: int
) -> list[FaultySubstrate]:
    """One FaultySubstrate per shard, schedules decorrelated per shard."""
    return [
        FaultySubstrate(
            make_substrate("simulated"),
            schedule=FaultSchedule.probabilistic(
                FAULT_OPS,
                probability=probability,
                seed=derive_seed(index) + sweep_seed,
            ),
        )
        for index in range(num_shards)
    ]


def _faulted_db(substrates: list[FaultySubstrate], values) -> ShardedDatabase:
    db = ShardedDatabase(
        shards=len(substrates),
        config=AdaptiveConfig(background_mapping=False),
        backend=substrates,
        resilience=ResilienceConfig(max_attempts=6),
    )
    db.create_table("t", {"x": values})
    return db


def _mixed_ops(seed: int, count: int = 20):
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.25:
            ops.append(
                ("update", int(rng.integers(0, NUM_ROWS)),
                 int(rng.integers(0, DOMAIN)))
            )
        elif roll < 0.35:
            ops.append(("flush",))
        else:
            lo = int(rng.integers(0, DOMAIN))
            hi = min(lo + int(rng.integers(0, DOMAIN // 3)), DOMAIN)
            ops.append(("query", lo, hi))
    return ops


@pytest.mark.parametrize("num_shards", [2, 4])
@pytest.mark.parametrize("sweep_seed", [0, 1, 2])
def test_faulted_sharded_results_match_oracle(num_shards, sweep_seed):
    rng = np.random.default_rng(41)
    values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
    oracle = values.copy()
    substrates = _faulty_substrates(
        num_shards, probability=0.05, sweep_seed=sweep_seed
    )

    with _faulted_db(substrates, values) as db:
        for step, op in enumerate(_mixed_ops(seed=sweep_seed + 50)):
            if op[0] == "update":
                _, row, value = op
                db.update("t", "x", row, value)
                oracle[row] = value
            elif op[0] == "flush":
                db.flush_all()
            else:
                _, lo, hi = op
                result = db.query("t", "x", lo, hi)
                want = np.nonzero((oracle >= lo) & (oracle <= hi))[0]
                order = np.argsort(result.rowids)
                assert np.array_equal(result.rowids[order], want), (
                    f"step {step}: query [{lo}, {hi}] diverged "
                    f"({result.rowids.size} vs {want.size} rows)"
                )
                assert np.array_equal(result.values[order], oracle[want])

        # The schedules must at least have been consulted (most cells of
        # the sweep grid also fire; firing per cell is seed-dependent).
        assert all(
            s.schedule.total_calls > 0 for s in substrates if s.schedule
        )
        # Disarm injection, then the recovery oracle: repair converges
        # and the audit is clean.
        for substrate in substrates:
            substrate.schedule = None
        assert db.repair()
        report = db.audit()
        assert not report.findings, report.findings


def test_faulted_run_is_deterministic():
    """The same sweep seed replays to the same fault journal."""

    def run() -> list[tuple[str, int]]:
        rng = np.random.default_rng(41)
        values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
        substrates = _faulty_substrates(2, probability=0.1, sweep_seed=9)
        with _faulted_db(substrates, values) as db:
            for op in _mixed_ops(seed=77):
                if op[0] == "update":
                    db.update("t", "x", op[1], op[2])
                elif op[0] == "flush":
                    db.flush_all()
                else:
                    db.query("t", "x", op[1], op[2])
            return [
                (fault.op, fault.call_index)
                for substrate in substrates
                if substrate.schedule
                for fault in substrate.schedule.journal
            ]

    assert run() == run()


def test_per_shard_schedules_are_decorrelated():
    """Shard 0 and shard 1 draw from different fault streams."""
    substrates = _faulty_substrates(2, probability=0.5, sweep_seed=0)
    hits = []
    for substrate in substrates:
        hits.append(
            [substrate.schedule.check("map_fixed") is not None
             for _ in range(64)]
        )
    assert hits[0] != hits[1]
