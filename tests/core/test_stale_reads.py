"""Reads that route around pending updates, against a numpy mirror.

A read never realigns views: it answers from the views as they stand
plus the dirty pages they do not map, and the batch realigns every view
once when it ends.  Seeded update/read/flush interleavings run on
``AdaptiveDatabase`` and on ``ShardedDatabase`` with one and four
shards; every read must equal the mirror, the pending log must survive
reads, and after each flush the semantic audit must come back clean.

Two planted cases pin the states the sweep reaches only by chance: a
view created while a batch is pending whose extended range covers a
moved value it does not map (the flush must add the page), and one that
mapped a page for a value the batch overwrote again before the flush
(compaction keeps only the first old value, so the flush must check the
page).

Knobs: ``REPRO_SEED`` re-seeds the sweep, ``REPRO_FUZZ_SCHEDULES`` sets
its length (default 200); a failing entry names its seed.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.seeds import derive_seed
from repro.shard import ShardedDatabase
from repro.vm.constants import VALUES_PER_PAGE

FUZZ_SCHEDULES = int(os.environ.get("REPRO_FUZZ_SCHEDULES", "200"))

NUM_PAGES = 16
NUM_ROWS = NUM_PAGES * VALUES_PER_PAGE
#: Page ``p`` holds values in ``[p * BAND, (p + 1) * BAND)``, so narrow
#: ranges make partial views of a few pages.
BAND = 1000
DOMAIN = NUM_PAGES * BAND
#: Updates hit this many rows, so one batch often rewrites a row twice.
HOT_ROWS = 48
OPS = 40
CONFIG = AdaptiveConfig(max_views=6, background_mapping=False)

ENGINES = ("adaptive", "shards1", "shards4")


def clustered_values(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pages = np.repeat(np.arange(NUM_PAGES, dtype=np.int64), VALUES_PER_PAGE)
    return pages * BAND + rng.integers(0, BAND, NUM_ROWS)


def open_engine(engine: str, values: np.ndarray, backend: str = "simulated"):
    if engine == "adaptive":
        db = AdaptiveDatabase(CONFIG, backend=backend)
    else:
        db = ShardedDatabase(
            shards=int(engine.removeprefix("shards")), config=CONFIG, backend=backend
        )
    db.create_table("t", {"x": values})
    return db


def pending(db) -> int:
    if isinstance(db, AdaptiveDatabase):
        return len(db.table("t").pending_updates("x"))
    return db.column("t", "x").pending_update_count


def assert_exact(db, mirror: np.ndarray, lo: int, hi: int, where: str = "") -> None:
    result = db.query("t", "x", lo, hi)
    order = np.argsort(result.rowids)
    want = np.flatnonzero((mirror >= lo) & (mirror <= hi))
    assert np.array_equal(result.rowids[order], want), f"{where} rows [{lo}, {hi}]"
    assert np.array_equal(result.values[order], mirror[want]), f"{where} values"


def flush_and_audit(db, where: str = "") -> None:
    db.flush_updates("t", "x")
    assert pending(db) == 0
    report = db.audit()
    assert report.semantics_checked, where
    assert report.ok, f"{where}\n{report.render()}"


def schedule(seed: int) -> list[tuple]:
    """``OPS`` operations: 45 % updates, 50 % reads, 5 % flushes."""
    rng = np.random.default_rng(seed)
    hot = rng.choice(NUM_ROWS, HOT_ROWS, replace=False)
    ops: list[tuple] = []
    for _ in range(OPS):
        roll = rng.random()
        if roll < 0.45:
            ops.append(("update", int(rng.choice(hot)), int(rng.integers(0, DOMAIN))))
        elif roll < 0.95:
            lo = int(rng.integers(0, DOMAIN))
            ops.append(("read", lo, lo + int(rng.integers(0, 3 * BAND))))
        else:
            ops.append(("flush",))
    return ops


def run_schedule(engine: str, seed: int, backend: str = "simulated") -> int:
    """Replay one schedule against the mirror; returns the reads made
    while updates were pending."""
    values = clustered_values(seed)
    mirror = values.copy()
    stale_reads = 0
    db = open_engine(engine, values, backend)
    try:
        for step, op in enumerate(schedule(seed)):
            where = f"{engine} seed {seed} op {step} {op}"
            if op[0] == "update":
                db.update("t", "x", op[1], op[2])
                mirror[op[1]] = op[2]
            elif op[0] == "read":
                waiting = pending(db)
                assert_exact(db, mirror, op[1], op[2], where)
                assert pending(db) == waiting, f"{where}: the read realigned"
                stale_reads += waiting > 0
            else:
                flush_and_audit(db, where)
        flush_and_audit(db, f"{engine} seed {seed} final")
        assert_exact(db, mirror, 0, DOMAIN, f"{engine} seed {seed} final")
    finally:
        db.close()
    return stale_reads


@pytest.mark.parametrize("engine", ENGINES)
def test_seeded_interleavings_match_the_mirror(engine):
    stale_reads = 0
    for i in range(FUZZ_SCHEDULES):
        seed = derive_seed(i)
        try:
            stale_reads += run_schedule(engine, seed)
        except AssertionError as exc:
            raise AssertionError(f"sweep entry {i} (seed {seed}): {exc}") from exc
    assert stale_reads > 0


def planted_extension(engine: str, backend: str = "simulated") -> None:
    """A read while a moved value sits in the candidate's extended range
    but outside the query range: the flush must map that page into the
    view the read created."""
    values = np.repeat(np.arange(NUM_PAGES, dtype=np.int64) * BAND, VALUES_PER_PAGE)
    mirror = values.copy()
    db = open_engine(engine, values, backend)
    try:
        db.query("t", "x", 3000, 5999)  # a view over pages 3-5
        db.update("t", "x", 0, 3500)  # page 0 now holds 3500
        mirror[0] = 3500
        assert_exact(db, mirror, 4000, 4999)  # the candidate: page 4 only
        if engine == "adaptive":
            born = [
                view
                for view in db.layer("t", "x").view_index.partial_views
                if view.lo <= 3500 <= view.hi and view.lo > 3000
            ]
            assert born and 0 not in born[0].mapped_fpages().tolist()
        assert pending(db) == 1
        flush_and_audit(db, f"{engine} planted extension")
        assert_exact(db, mirror, 3001, 3600)
        assert_exact(db, mirror, 3001, 4999)
    finally:
        db.close()


def planted_overwrite(engine: str, backend: str = "simulated") -> None:
    """A read maps a page for a value the same batch later overwrites:
    compaction keeps (first old, last new), both outside the view, so
    only a check of the page can unmap it."""
    values = np.repeat(np.arange(NUM_PAGES, dtype=np.int64) * BAND, VALUES_PER_PAGE)
    mirror = values.copy()
    db = open_engine(engine, values, backend)
    try:
        db.update("t", "x", 0, 5500)
        mirror[0] = 5500
        assert_exact(db, mirror, 5400, 5600)  # a view holding page 0
        db.update("t", "x", 0, 0)
        mirror[0] = 0
        flush_and_audit(db, f"{engine} planted overwrite")
        assert_exact(db, mirror, 5001, 5999)
    finally:
        db.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_view_created_mid_batch_gains_the_moved_page(engine):
    planted_extension(engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_view_created_mid_batch_drops_an_overwritten_page(engine):
    planted_overwrite(engine)


def test_a_read_leaves_the_batch_to_the_flush():
    """Three reads between two updates realign nothing; the flush
    realigns once."""
    db = open_engine("adaptive", clustered_values())
    layer = db.layer("t", "x")
    calls = []
    apply_updates = layer.apply_updates
    layer.apply_updates = lambda batch: calls.append(len(batch)) or apply_updates(batch)
    try:
        db.query("t", "x", 2000, 2999)
        db.update("t", "x", 7, 2500)
        for lo in (2000, 2400, 9000):
            db.query("t", "x", lo, lo + 500)
        db.update("t", "x", 8, 9100)
        assert calls == []
        db.flush_updates("t", "x")
        assert calls == [2]
    finally:
        db.close()
