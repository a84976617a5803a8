"""Tiered sessions on the native substrate, and what a tier leaves behind.

The tier is placement, not a second copy: a cold page stays in the
column's store, so a tiered column answers and audits like any other,
and a tiered database, closed or only dropped, leaves no file, no
descriptor and no retained far copy behind.  The native sessions run on
real memfd stores with real ``mmap`` rewiring and skip on platforms
without it.  The heavy acceptance scenario — a 64k-page column under a
25% hot budget running a mixed workload audit-clean and
oracle-identical — is additionally gated behind
``REPRO_TIER_NATIVE_HEAVY=1`` so the default suite stays fast.
"""

import gc
import glob
import os
import tempfile
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.faults import FaultRule, FaultSchedule, FaultySubstrate
from repro.native import is_supported
from repro.resilience import ResilienceConfig
from repro.seeds import derive_seed
from repro.substrate import make_substrate
from repro.tier import TierConfig, TieredPageStore
from repro.vm.constants import VALUES_PER_PAGE

NATIVE = pytest.mark.skipif(
    not is_supported(), reason="native rewiring unsupported on this platform"
)
BACKENDS = ["simulated", pytest.param("native", marks=NATIVE)]

NUM_PAGES = 16
NUM_ROWS = NUM_PAGES * VALUES_PER_PAGE
DOMAIN = 2_000_000

HEAVY = os.environ.get("REPRO_TIER_NATIVE_HEAVY") == "1"


def _values(seed: int, rows: int = NUM_ROWS) -> np.ndarray:
    rng = np.random.default_rng(derive_seed(seed))
    return rng.integers(0, DOMAIN, size=rows, dtype=np.int64)


def _assert_query_matches(result, values, lo, hi, deleted=None):
    mask = (values >= lo) & (values <= hi)
    if deleted is not None:
        mask &= ~deleted
    order = np.argsort(result.rowids)
    np.testing.assert_array_equal(result.rowids[order], np.nonzero(mask)[0])
    np.testing.assert_array_equal(result.values[order], values[mask])


@NATIVE
class TestNativeTier:
    def test_a_tiered_column_answers_and_audits_clean(self):
        values = _values(31_000)
        with AdaptiveDatabase(backend="native", tiering=TierConfig(hot_budget=4)) as db:
            db.create_table("t", {"x": values})
            store = db.table("t").column("x").tier
            assert store.hot_count() <= 4
            assert store.tier_status()["cold_pages"] == NUM_PAGES - store.hot_count()
            result = db.query("t", "x", 0, DOMAIN)
            _assert_query_matches(result, values, 0, DOMAIN)
            audit = db.audit()
            assert audit.ok, audit.render()

    def test_a_cold_page_write_lands_in_the_store(self):
        """An in-place write to a cold page is a far write: it passes and
        the page stays cold, or it fails and the page lands hot; either
        way the store holds the new value and queries see it."""
        values = _values(31_001)
        with AdaptiveDatabase(backend="native", tiering=TierConfig(hot_budget=2)) as db:
            db.create_table("t", {"x": values})
            store = db.table("t").column("x").tier
            cold_page = int(np.flatnonzero(~store.hot)[-1])
            row = cold_page * VALUES_PER_PAGE + 5
            db.update("t", "x", row, 999_999)
            db.flush_updates("t", "x")
            assert not store.hot[cold_page]  # no fault plane: the write passed
            assert store.file.page_values(cold_page)[5] == 999_999
            values[row] = 999_999
            _assert_query_matches(db.query("t", "x", 999_999, 999_999), values, 999_999, 999_999)
            audit = db.audit()
            assert audit.ok, audit.render()

    @pytest.mark.parametrize("seed", range(3))
    def test_a_faulted_stream_stays_oracle_identical(self, seed, monkeypatch):
        """A seeded stream of hotspot reads and cold-page updates under
        spill faults answers as the oracle after every step.  The
        stream's moves spill the whole tail (initial placement), runs of
        several pages (the victims of one placement decision) and single
        pages (a cold page's far write)."""
        num_pages, budget = 32, 8
        runs: list[tuple[int, int]] = []  # (first page, pages) per spill
        spill = TieredPageStore._spill

        def spy(store, fpages, cost, lane, want=None):
            written = spill(store, fpages, cost, lane, want)
            pages = np.sort(fpages[written])
            if pages.size:
                breaks = np.r_[0, np.flatnonzero(np.diff(pages) != 1) + 1]
                lengths = np.diff(np.r_[breaks, pages.size])
                runs.extend(zip(pages[breaks].tolist(), lengths.tolist()))
            return written

        monkeypatch.setattr(TieredPageStore, "_spill", spy)
        live = np.arange(num_pages * VALUES_PER_PAGE, dtype=np.int64) * 3
        substrate = FaultySubstrate(make_substrate("native"))
        rng = np.random.default_rng(derive_seed(31_100 + seed))
        with AdaptiveDatabase(
            config=AdaptiveConfig(background_mapping=False),
            backend=substrate,
            tiering=TierConfig(hot_budget=budget),
        ) as db:
            db.create_table("t", {"x": live})
            store = db.table("t").column("x").tier
            assert runs == [(budget, num_pages - budget)]  # the whole tail
            substrate.schedule = FaultSchedule(
                [
                    FaultRule(ops="cold_write", probability=0.2),
                    FaultRule(ops="cold_read", probability=0.2),
                    FaultRule(ops="cold_write", probability=0.05, transient=False),
                ],
                seed=seed,
            )
            for step in range(40):
                first = int(rng.integers(0, num_pages - 4))
                width = int(rng.integers(1, 5))
                lo = int(live[first * VALUES_PER_PAGE])
                hi = int(live[(first + width) * VALUES_PER_PAGE - 1])
                for _ in range(3):
                    _assert_query_matches(db.query("t", "x", lo, hi), live, lo, hi)
                cold = np.flatnonzero(~store.hot)
                if cold.size and step % 2:
                    row = int(rng.choice(cold)) * VALUES_PER_PAGE + 7
                    db.update("t", "x", row, int(live[row]) + 1)
                    live[row] += 1
                    db.flush_updates("t", "x")
            lengths = {length for _, length in runs[1:]}
            assert 1 in lengths and max(lengths) > 1
            assert substrate.journal, "the schedule never fired"
            audit = db.audit()
            assert audit.ok, audit.render()


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "dropped"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_tiered_database_is_freed_without_gc(backend, closed):
    """Neither budget pins the tier: once the database is dropped,
    closed first or not, reference counting alone frees the tier and
    the column's store (on native, with its whole-file mapping)."""
    gc.collect()
    gc.disable()
    try:
        db = AdaptiveDatabase(
            config=AdaptiveConfig(background_mapping=False),
            backend=backend,
            tiering=TierConfig(hot_budget=4),
            resilience=ResilienceConfig(mapping_budget=8, seed=0),
        )
        db.create_table("t", {"x": _values(31_002)})
        for lo in range(0, DOMAIN, DOMAIN // 8):
            db.query("t", "x", lo, lo + DOMAIN // 40)
        column = db.table("t").column("x")
        freed = [weakref.ref(column.tier), weakref.ref(column.file)]
        assert column.tier.demotions > 0  # the hot-page budget did work
        del column
        if closed:
            db.close()
        del db
        assert [ref() is None for ref in freed] == [True, True]
    finally:
        gc.enable()


@NATIVE
def test_a_dropped_native_tiered_database_leaves_no_descriptor_or_directory():
    """A native tiered database dropped without ``close()`` gives back
    every descriptor it opened and leaves no directory behind."""
    fds = set(os.listdir("/proc/self/fd"))
    dirs = set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-tier-*")))
    db = AdaptiveDatabase(
        config=AdaptiveConfig(background_mapping=False),
        backend="native",
        tiering=TierConfig(hot_budget=4),
    )
    db.create_table("t", {"x": _values(31_003)})
    db.query("t", "x", 0, DOMAIN // 4)
    assert db.table("t").column("x").tier.demotions > 0
    del db
    gc.collect()
    assert set(os.listdir("/proc/self/fd")) - fds == set()
    assert set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-tier-*"))) == dirs


def test_a_tiered_column_retains_no_far_copy():
    """A tiered ``create_table`` (512 pages, budget 128) retains what an
    untiered one does plus the placement arrays: the 384 cold pages are
    not copied anywhere."""

    def retained(tiering):
        values = np.arange(512 * VALUES_PER_PAGE, dtype=np.int64)
        db = AdaptiveDatabase(AdaptiveConfig(background_mapping=False), tiering=tiering)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            db.create_table("t", {"x": values})
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        db.close()
        return grown

    plain = retained(None)
    tiered = retained(TierConfig(hot_budget=128))
    assert tiered - plain <= 64 * 1024, (tiered, plain)


@NATIVE
@pytest.mark.skipif(
    not HEAVY, reason="set REPRO_TIER_NATIVE_HEAVY=1 to run the 64k-page scenario"
)
class TestNativeHeavyAcceptance:
    def test_64k_page_mixed_workload_under_quarter_budget(self):
        """The acceptance scenario: a native 64k-page column under a
        25% hot budget completes a mixed query/update/insert/delete
        workload audit-clean and oracle-identical."""
        num_pages = 65_536
        num_rows = num_pages * VALUES_PER_PAGE
        budget = num_pages // 4
        values = _values(31_064, rows=num_rows)
        rng = np.random.default_rng(derive_seed(31_065))

        db = AdaptiveDatabase(
            backend="native",
            tiering=TierConfig(hot_budget=budget, write_buffer_rows=256),
        )
        try:
            db.create_table("t", {"x": values.copy()})
            store = db.table("t").column("x").tier
            assert store.hot_count() <= budget

            live = values.copy()
            deleted = np.zeros(num_rows, dtype=bool)
            staged: list[int] = []

            def merge_staged():
                nonlocal live, deleted
                if staged:
                    live = np.concatenate(
                        [live, np.asarray(staged, dtype=np.int64)]
                    )
                    deleted = np.concatenate(
                        [deleted, np.zeros(len(staged), dtype=bool)]
                    )
                    staged.clear()

            def check_query(lo, hi):
                vals = (
                    np.concatenate(
                        [live, np.asarray(staged, dtype=np.int64)]
                    )
                    if staged
                    else live
                )
                dele = (
                    np.concatenate(
                        [deleted, np.zeros(len(staged), dtype=bool)]
                    )
                    if staged
                    else deleted
                )
                _assert_query_matches(
                    db.query("t", "x", lo, hi), vals, lo, hi, dele
                )

            for step in range(10):
                lo = int(rng.integers(0, DOMAIN - DOMAIN // 100))
                check_query(lo, lo + DOMAIN // 100)

                row = int(rng.integers(0, live.size))
                if not deleted[row]:
                    value = int(rng.integers(0, DOMAIN))
                    db.update("t", "x", row, value)
                    live[row] = value

                for _ in range(3):
                    value = int(rng.integers(0, DOMAIN))
                    db.insert("t", {"x": value})
                    staged.append(value)

                if step == 5:
                    db.flush_inserts("t")
                    merge_staged()
                    span = (DOMAIN // 2, DOMAIN // 2 + DOMAIN // 500)
                    count = db.delete("t", "x", *span)
                    mask = (
                        (live >= span[0]) & (live <= span[1]) & ~deleted
                    )
                    assert count == int(mask.sum())
                    deleted |= mask

                if step % 2 == 1:
                    store.maintenance(db.cost)
                    assert store.hot_count() <= budget + store.governor.debt

            db.flush_inserts("t")
            merge_staged()
            store.maintenance(db.cost)
            assert store.governor.debt == 0
            assert store.spill_failures == 0
            assert store.hot_count() <= budget

            check_query(0, DOMAIN)
            audit = db.audit(max_content_pages=256)
            assert audit.ok, audit.render()
        finally:
            db.close()
