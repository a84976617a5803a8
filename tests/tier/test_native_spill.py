"""Native tiered sessions: the cold tier round-trips through real
on-disk spill files.

Everything here runs on the native substrate (real memfd stores, real
``mmap`` rewiring) and skips on platforms without it.  The heavy
acceptance scenario — a 64k-page column under a 25% hot budget running
a mixed workload audit-clean and oracle-identical — is additionally
gated behind ``REPRO_TIER_NATIVE_HEAVY=1`` so the default suite stays
fast.
"""

import gc
import os
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
from repro.tier import ColdStore, TierConfig
from repro.vm.constants import VALUES_PER_PAGE

pytestmark = pytest.mark.skipif(
    not is_supported(), reason="native rewiring unsupported on this platform"
)

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


class TestNativeSpillFiles:
    def test_cold_tier_round_trips_through_spill_file(self):
        values = _values(31_000)
        db = AdaptiveDatabase(
            backend="native", tiering=TierConfig(hot_budget=4)
        )
        try:
            db.create_table("t", {"x": values})
            store = db.table("t").column("x").tier
            status = store.tier_status()
            spill_path = status["spill_path"]
            assert spill_path is not None
            assert os.path.exists(spill_path)
            assert os.path.getsize(spill_path) > 0
            assert store.hot_count() <= 4
            assert len(store.cold.pages()) == NUM_PAGES - store.hot_count()

            # The spill file genuinely holds the cold bytes: reads come
            # back from disk and match the authoritative store.
            for fpage in store.cold.pages():
                np.testing.assert_array_equal(
                    store.cold.read_page(fpage),
                    np.asarray(store.file.page_values(fpage)),
                )

            result = db.query("t", "x", 0, DOMAIN)
            _assert_query_matches(result, values, 0, DOMAIN)
            audit = db.audit()
            assert audit.ok, audit.render()
        finally:
            db.close()
        assert not os.path.exists(spill_path)

    def test_cold_write_refreshes_spill_file(self):
        """An in-place write to a cold page lands in the spill file too
        — the on-disk far tier never goes stale."""
        values = _values(31_001)
        db = AdaptiveDatabase(
            backend="native", tiering=TierConfig(hot_budget=2)
        )
        try:
            db.create_table("t", {"x": values})
            store = db.table("t").column("x").tier
            cold_page = store.cold.pages()[-1]
            row = cold_page * VALUES_PER_PAGE + 5
            db.update("t", "x", row, 999_999)
            db.flush_updates("t", "x")
            if not store.hot[cold_page]:
                assert store.cold.read_page(cold_page)[5] == 999_999
            else:
                # The write pulled the page hot; the cold copy is gone.
                assert cold_page not in store.cold
            audit = db.audit()
            assert audit.ok, audit.render()
        finally:
            db.close()

    @pytest.mark.parametrize("seed", range(3))
    def test_spill_file_holds_every_cold_page_after_a_faulted_stream(
        self, seed, monkeypatch
    ):
        """A seeded stream of hotspot reads and cold-page updates under
        spill faults: after every step each cold page's bytes in the
        spill file — read straight from the file, at the page's own
        offset — equal the store's page.  The stream's moves write the
        whole tail (initial placement), runs of several pages (the
        victims of one placement decision) and single pages (a cold
        page's write-through refresh)."""
        num_pages, budget = 32, 8
        runs: list[tuple[int, int]] = []  # (first page, pages) per copy
        write = ColdStore.write

        def spy(cold, fpages, data):
            pages = np.sort(fpages)
            breaks = np.r_[0, np.flatnonzero(np.diff(pages) != 1) + 1]
            lengths = np.diff(np.r_[breaks, pages.size])
            runs.extend(zip(pages[breaks].tolist(), lengths.tolist()))
            write(cold, fpages, data)

        monkeypatch.setattr(ColdStore, "write", spy)
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
            page_bytes = store.file.slots_per_page * 8
            substrate.schedule = FaultSchedule(
                [
                    FaultRule(ops="cold_write", probability=0.2),
                    FaultRule(ops="cold_read", probability=0.2),
                    FaultRule(ops="cold_write", probability=0.05, transient=False),
                ],
                seed=seed,
            )
            # Unbuffered: a buffered reader may serve a seek from stale
            # buffer contents.
            spill_path = store.tier_status()["spill_path"]
            with open(spill_path, "rb", buffering=0) as spill:
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
                    for fpage in store.cold.pages():
                        spill.seek(fpage * page_bytes)
                        on_disk = np.frombuffer(spill.read(page_bytes), dtype=np.int64)
                        np.testing.assert_array_equal(
                            on_disk,
                            np.asarray(store.file.page_values(fpage)),
                            err_msg=f"step {step}: page {fpage}",
                        )
                    assert store.cold.pages() == np.flatnonzero(~store.hot).tolist()
            lengths = {length for _, length in runs[1:]}
            assert 1 in lengths and max(lengths) > 1
            assert substrate.journal, "the schedule never fired"
            audit = db.audit()
            assert audit.ok, audit.render()

    def test_closed_store_is_freed_without_gc(self):
        """Neither budget pins the store: once the database is closed
        and dropped, reference counting alone frees the tiered store and
        with it the whole-file mapping.  (The simulated store is not
        freed without a gc pass, for reasons outside the budgets, so
        this guard runs on the native backend only.)"""
        gc.disable()
        try:
            db = AdaptiveDatabase(
                config=AdaptiveConfig(background_mapping=False),
                backend="native",
                tiering=TierConfig(hot_budget=4),
                resilience=ResilienceConfig(mapping_budget=8, seed=0),
            )
            db.create_table("t", {"x": _values(31_002)})
            for lo in range(0, DOMAIN, DOMAIN // 8):
                db.query("t", "x", lo, lo + DOMAIN // 40)
            store = weakref.ref(db.table("t").column("x").tier)
            assert store().demotions > 0  # the hot-page budget did work
            db.close()
            del db
            assert store() is None
        finally:
            gc.enable()


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
            assert store.tier_status()["spill_path"] is not None
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
