"""The sharded database on the native backend, as the benchmark runs it.

``ShardedDatabase(shards=4, backend="native")`` — real memfd files and
``mmap(MAP_FIXED)`` rewiring per shard, per-shard work on the thread
pool by default.  Query, scan, update and delete are checked against a
numpy oracle; the merged simulated ledger must equal the same stream run
sequentially, and the audit must come back clean.
"""

import numpy as np
import pytest

from repro import AdaptiveConfig
from repro.native import is_supported
from repro.shard import ShardedDatabase
from repro.vm.constants import VALUES_PER_PAGE

pytestmark = pytest.mark.skipif(
    not is_supported(), reason="native rewiring unsupported on this platform"
)

SHARDS = 4
NUM_ROWS = 16 * VALUES_PER_PAGE
DOMAIN = 1_000_000
CONFIG = AdaptiveConfig(background_mapping=False)


def _values() -> np.ndarray:
    """Nearly sorted, so narrow ranges prune to one or two shards."""
    rng = np.random.default_rng(7)
    base = np.linspace(0, DOMAIN, NUM_ROWS).astype(np.int64)
    return base + rng.integers(0, DOMAIN // 100, NUM_ROWS)


def _ops() -> list[tuple]:
    rng = np.random.default_rng(11)
    ops: list[tuple] = []
    for _ in range(40):
        roll = rng.random()
        lo = int(rng.integers(0, DOMAIN))
        if roll < 0.25:
            ops.append(("update", int(rng.integers(0, NUM_ROWS)), lo))
        elif roll < 0.35:
            ops.append(("delete", lo, lo + DOMAIN // 200))
        elif roll < 0.55:
            ops.append(("scan", lo, lo + DOMAIN // 20))
        else:
            ops.append(("query", lo, lo + DOMAIN // 20))
    return ops


def _run(parallel: bool | None):
    """Replay the stream against the oracle; returns the merged ledger."""
    values = _values()
    oracle = values.copy()
    live = np.ones(NUM_ROWS, dtype=bool)
    kwargs = {} if parallel is None else {"parallel": parallel}
    with ShardedDatabase(
        shards=SHARDS, config=CONFIG, backend="native", **kwargs
    ) as db:
        assert db.parallel is (parallel is None or parallel)
        db.create_table("t", {"x": values})
        for kind, a, b in _ops():
            if kind == "update":
                if live[a]:
                    db.update("t", "x", a, b)
                    oracle[a] = b
                else:
                    with pytest.raises(KeyError):
                        db.update("t", "x", a, b)
                continue
            want = np.nonzero(live & (oracle >= a) & (oracle <= b))[0]
            if kind == "delete":
                assert db.delete("t", "x", a, b) == want.size
                live[want] = False
                continue
            result = getattr(db, kind)("t", "x", a, b)
            order = np.argsort(result.rowids)
            assert np.array_equal(result.rowids[order], want)
            assert np.array_equal(result.values[order], oracle[want])
        db.flush_all()
        report = db.audit()
        assert report.ok, report.render()
        assert db.substrates[0].backend == "native"
        return db.merged_cost()


def test_native_sharded_stream_matches_oracle_and_sequential_ledger():
    threaded = _run(parallel=None)
    sequential = _run(parallel=False)
    assert threaded == sequential
