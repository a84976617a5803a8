"""Property-based tier-invariant suite (this PR's acceptance suite).

Generated sessions interleave queries, updates, flushes, appends and
write-buffer merges against a :class:`TieredPageStore` under an
arbitrary hot budget.  After **every** step the invariant auditor
(including the ``tier-placement`` invariant) must pass and every query
result must equal a plain numpy oracle — tiering may move pages, never
answers.  After maintenance, with no faults armed, the governor must be
debt-free and within budget.

Knobs: ``REPRO_SEED`` re-seeds the deterministic tests.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.core.scan import batch_scan
from repro.tier import TierConfig, TieredPageStore, WriteBuffer
from repro.vm.cost import CostModel

NUM_PAGES = 8
SLOTS = 512
NUM_ROWS = NUM_PAGES * SLOTS
DOMAIN = 1_000_000


class Oracle:
    """Serial ground truth: a growable numpy column with tombstones."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = values.copy()
        self.alive = np.ones(values.size, dtype=bool)

    def query(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        mask = self.alive & (self.values >= lo) & (self.values <= hi)
        rowids = np.nonzero(mask)[0]
        return rowids, self.values[rowids]

    def update(self, row: int, value: int) -> None:
        self.values[row] = value

    def append(self, value: int) -> None:
        self.values = np.append(self.values, np.int64(value))
        self.alive = np.append(self.alive, True)

    def delete(self, lo: int, hi: int) -> None:
        mask = self.alive & (self.values >= lo) & (self.values <= hi)
        self.alive[mask] = False


def _assert_query_matches(db, oracle, lo, hi, context=""):
    result = db.query("t", "x", lo, hi)
    want_rows, want_vals = oracle.query(lo, hi)
    order = np.argsort(result.rowids)
    got_rows = result.rowids[order]
    got_vals = result.values[order]
    assert np.array_equal(got_rows, want_rows) and np.array_equal(
        got_vals, want_vals
    ), (
        f"{context}: query [{lo}, {hi}] diverged from oracle "
        f"({got_rows.size} vs {want_rows.size} rows)"
    )


def _assert_tier_consistent(store: TieredPageStore, context=""):
    """Exactly-one-tier, directly on the placement structures."""
    cold = np.array(store.cold.pages(), dtype=np.int64)
    expected = np.nonzero(~store.hot)[0]
    assert np.array_equal(cold, expected), (
        f"{context}: cold tier {cold.tolist()} != complement of hot "
        f"{expected.tolist()}"
    )
    budget = store.governor.budget
    if budget is not None:
        assert store.hot_count() <= budget + store.governor.debt, (
            f"{context}: {store.hot_count()} hot pages over budget "
            f"{budget} + debt {store.governor.debt}"
        )


def _run_tiered_session(
    ops: list[tuple], hot_budget: int, data_seed: int
) -> dict:
    """Run one audited tiered session against the oracle.

    Returns the final tier status.  Asserts, after every step, that the
    auditor (tier-placement invariant included) passes, the placement
    is exactly-one-tier, and query results match the oracle.
    """
    rng = np.random.default_rng(data_seed)
    values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
    oracle = Oracle(values)

    with AdaptiveDatabase(
        config=AdaptiveConfig(background_mapping=False),
        tiering=TierConfig(hot_budget=hot_budget, write_buffer_rows=64),
    ) as db:
        db.create_table("t", {"x": values})
        store = db.table("t").column("x").file
        assert isinstance(store, TieredPageStore)

        for step, op in enumerate(ops):
            context = f"step {step} ({op[0]})"
            if op[0] == "query":
                _assert_query_matches(db, oracle, op[1], op[2], context)
            elif op[0] == "update":
                row = op[1] % db.table("t").num_rows
                if not oracle.alive[row]:
                    continue  # updating a tombstoned row raises by design
                db.update("t", "x", row, op[2])
                oracle.update(row, op[2])
            elif op[0] == "flush":
                db.flush_updates("t", "x")
            elif op[0] == "append":
                for value in op[1]:
                    db.insert("t", {"x": value})
                    oracle.append(value)
            elif op[0] == "merge":
                db.flush_inserts("t")
            elif op[0] == "delete":
                db.delete("t", "x", op[1], op[2])
                oracle.delete(op[1], op[2])

            _assert_tier_consistent(store, context)
            audit = db.audit()
            assert audit.ok, f"{context}:\n{audit.render()}"

        # Faultless sessions end debt-free and within budget once
        # maintenance has run.
        db.flush_inserts("t")
        store.maintenance(db.cost)
        assert store.governor.debt == 0
        assert store.spill_failures == 0
        assert store.hot_count() <= hot_budget
        _assert_tier_consistent(store, "final")
        audit = db.audit()
        assert audit.ok, f"final audit:\n{audit.render()}"

        # Every read is still oracle-identical after enforcement.
        _assert_query_matches(db, oracle, 0, DOMAIN, "final full query")
        return db.tier_status()["t.x"]


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
            st.just("append"),
            st.lists(st.integers(0, DOMAIN), min_size=1, max_size=40),
        ),
        st.tuples(st.just("merge")),
        st.tuples(
            st.just("delete"),
            st.integers(0, DOMAIN // 4),
            st.integers(DOMAIN // 4, DOMAIN // 2),
        ),
    ),
    min_size=1,
    max_size=16,
)


class TestTierInvariantProperties:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ops=OPS_STRATEGY,
        hot_budget=st.integers(1, NUM_PAGES),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_tiered_sessions_stay_invariant(self, ops, hot_budget, data_seed):
        """∀ op sequences, ∀ hot budgets: every page lives in exactly one
        tier, the budget holds after enforcement, audits pass and every
        read is oracle-identical."""
        _run_tiered_session(ops, hot_budget, data_seed)

    @settings(max_examples=10, deadline=None)
    @given(data_seed=st.integers(0, 2**32 - 1))
    def test_minimal_budget_is_correct(self, data_seed):
        """The most hostile budget (one hot page) still answers exactly."""
        status = _run_tiered_session(
            [("query", 0, DOMAIN), ("query", 0, DOMAIN // 3), ("flush",)],
            hot_budget=1,
            data_seed=data_seed,
        )
        assert status["hot_pages"] <= 1 + status["debt"]


class TestTierMechanics:
    """Deterministic placement mechanics, directly on the store."""

    def _make_db(self, hot_budget=3, seed=7):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
        db = AdaptiveDatabase(
            config=AdaptiveConfig(background_mapping=False),
            tiering=TierConfig(hot_budget=hot_budget),
        )
        db.create_table("t", {"x": values})
        return db, values

    def test_initial_placement_keeps_prefix_hot(self):
        db, _ = self._make_db(hot_budget=3)
        store = db.table("t").column("x").file
        assert store.hot_count() == 3
        assert store.hot[:3].all() and not store.hot[3:].any()
        db.close()

    def test_batch_scan_records_its_pages_once(self):
        db, _ = self._make_db(hot_budget=3)
        column = db.table("t").column("x")
        store = column.file
        seen = []
        record = store.record_batch_access

        def spy(fpages, cost, lane, kind):
            seen.append((fpages.tolist(), kind))
            record(fpages, cost, lane=lane, kind=kind)

        store.record_batch_access = spy
        fpages = np.array([column.num_pages - 1, 0, 4, 2])  # hot and cold
        accesses = store.hot_hits + store.cold_hits
        batch_scan(column, fpages, 0, DOMAIN // 2, access_kind="random")
        assert seen == [(fpages.tolist(), "random")]
        assert store.hot_hits + store.cold_hits == accesses + fpages.size
        db.close()

    def test_repeated_access_promotes(self):
        db, values = self._make_db(hot_budget=3)
        store = db.table("t").column("x").file
        # A range one value wide on a cold page: the first read scans
        # the column and builds the view, the next ones touch only the
        # view's pages, which so out-count every page a scan alone hit.
        wanted = int(values[5 * SLOTS + 1])
        pages = np.unique(np.nonzero(values == wanted)[0] // SLOTS)
        assert not store.hot[pages].any()
        for _ in range(4):
            db.query("t", "x", wanted, wanted)
        assert store.promotions == pages.size
        assert store.hot[pages].all()
        assert store.hot_count() <= 3 + store.governor.debt
        db.close()

    def test_denial_journal_records_refusals(self):
        db, _ = self._make_db(hot_budget=2)
        store = db.table("t").column("x").file
        # Pin every hot page as infinitely useful, then ask for more
        # admissions than the budget can ever yield.
        store.hits[:] = 0.0
        cost = CostModel()
        assert store.governor.admit(NUM_PAGES + 1, cost) is False
        assert store.governor.denials == 1
        assert store.governor.journal[-1]["action"] == "deny"
        db.close()

    def test_maintenance_decays_and_enforces(self):
        db, _ = self._make_db(hot_budget=2)
        store = db.table("t").column("x").file
        db.query("t", "x", 0, DOMAIN)
        store._install_hot(5, db.cost, "main")  # one page over budget
        hits_before = store.hits.copy()
        assert hits_before.any()
        result = store.maintenance(db.cost)
        assert np.array_equal(store.hits, hits_before * store.config.decay)
        assert store.hot_count() == 2
        assert result == {"demoted": 1, "churn": 2, "thrashing": False}
        db.close()

    def test_read_only_stream_reaches_maintenance(self):
        """Reads alone tick maintenance once per column's worth of
        accounted page accesses (decay and enforcement used to be
        reachable from update alignment and merges only)."""
        db, _ = self._make_db(hot_budget=2)
        store = db.table("t").column("x").file
        ticks = []
        maintenance = store.maintenance

        def spy(cost, lane="main"):
            ticks.append(store.hot_hits + store.cold_hits)
            return maintenance(cost, lane)

        store.maintenance = spy
        for _ in range(3):
            db.query("t", "x", 0, DOMAIN)
        assert ticks == [store.num_pages * n for n in (1, 2, 3)]
        assert store.hits.max() < 3.0  # decayed between the scans
        db.close()

    def test_thrash_latch_degrades_health(self):
        """Latched iff a window moved ``thrash_threshold`` pages and at
        least as many pages as it served hot."""
        db, _ = self._make_db(hot_budget=2)
        db.layer("t", "x")  # health is reported per instantiated layer
        column = db.table("t").column("x")
        store = column.file
        store.config = TierConfig(hot_budget=2, thrash_threshold=2)

        def touch(pages, times):
            for _ in range(times):
                batch_scan(column, np.array(pages), 0, DOMAIN)

        # Initial placement is set-up, not churn.
        assert store.maintenance(db.cost)["churn"] == 0
        # Two reads of a cold page swap it in: 2 moves, nothing served.
        touch([5], 2)
        assert store.hot[5]
        result = store.maintenance(db.cost)
        assert result["churn"] == 2 and result["thrashing"] is True
        assert store.tier_state() == "degraded"
        assert db.health().value == "degraded"
        # The same two moves beside more hot hits are an honest shift.
        touch([6], 2)
        touch([5], 3)
        assert store.hot[6]
        result = store.maintenance(db.cost)
        assert result["churn"] == 2 and result["thrashing"] is False
        assert store.tier_state() == "healthy"
        assert db.health().value == "healthy"
        db.close()

    def test_audit_cross_checks_the_running_hot_count(self):
        """``hot_count()`` is a maintained integer; the tier-placement
        audit holds it to ``hot.sum()``."""
        db, _ = self._make_db(hot_budget=3)
        store = db.table("t").column("x").file
        db.query("t", "x", 0, DOMAIN)
        assert db.audit().ok
        store._hot_count -= 1
        findings = [f.detail for f in db.audit().findings]
        assert any("running hot count 2 != 3" in m for m in findings), findings
        db.close()

    def test_untiered_store_has_no_tier_surface(self):
        db = AdaptiveDatabase()
        rng = np.random.default_rng(7)
        db.create_table(
            "t", {"x": rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)}
        )
        file = db.table("t").column("x").file
        assert not hasattr(file, "tier_of")
        assert db.tier_status() == {}
        db.close()

    def test_rejects_non_config_tiering(self):
        with pytest.raises(TypeError, match="TierConfig"):
            AdaptiveDatabase(tiering={"hot_budget": 3})


class TestTierConfigValidation:
    def test_defaults_are_valid(self):
        config = TierConfig()
        assert config.hot_budget is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hot_budget": 0},
            {"hot_budget": -1},
            {"promote_after": 0.5},
            {"decay": -0.1},
            {"decay": 1.5},
            {"thrash_threshold": 0},
            {"write_buffer_rows": 0},
            {"spill_retries": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TierConfig(**kwargs)


class TestWriteBuffer:
    def test_staged_rows_visible_before_merge(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
        with AdaptiveDatabase(
            tiering=TierConfig(hot_budget=4, write_buffer_rows=1000)
        ) as db:
            db.create_table("t", {"x": values})
            rowid = db.insert("t", {"x": DOMAIN + 5})
            assert rowid == NUM_ROWS
            assert len(db._write_buffers["t"]) == 1
            result = db.query("t", "x", DOMAIN + 5, DOMAIN + 5)
            assert result.values.tolist() == [DOMAIN + 5]
            assert result.rowids.tolist() == [NUM_ROWS]

    def test_threshold_triggers_merge(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
        with AdaptiveDatabase(
            tiering=TierConfig(hot_budget=4, write_buffer_rows=4)
        ) as db:
            db.create_table("t", {"x": values})
            for i in range(4):
                db.insert("t", {"x": i})
            assert len(db._write_buffers["t"]) == 0  # auto-merged
            assert db.table("t").num_rows == NUM_ROWS + 4
            audit = db.audit()
            assert audit.ok, audit.render()

    def test_merge_grows_pages_and_stays_tiered(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
        with AdaptiveDatabase(
            tiering=TierConfig(hot_budget=3, write_buffer_rows=10_000)
        ) as db:
            db.create_table("t", {"x": values})
            store = db.table("t").column("x").file
            for i in range(SLOTS + 1):  # force at least one new page
                db.insert("t", {"x": i})
            info = db.flush_inserts("t")
            assert info["merged_rows"] == SLOTS + 1
            assert store.num_pages == NUM_PAGES + 2
            assert store.hot.size == NUM_PAGES + 2
            assert store.hot_count() <= 3 + store.governor.debt
            audit = db.audit()
            assert audit.ok, audit.render()
            result = db.query("t", "x", 0, DOMAIN + 10)
            assert result.stats.result_rows == NUM_ROWS + SLOTS + 1

    def test_untiered_insert_also_works(self):
        """The ingest path is independent of tiering."""
        rng = np.random.default_rng(3)
        values = rng.integers(0, DOMAIN, size=NUM_ROWS, dtype=np.int64)
        with AdaptiveDatabase() as db:
            db.create_table("t", {"x": values})
            db.insert("t", {"x": 42})
            db.flush_inserts("t")
            assert db.table("t").num_rows == NUM_ROWS + 1
            audit = db.audit()
            assert audit.ok, audit.render()

    def test_buffer_rejects_wrong_columns(self):
        buffer = WriteBuffer(["a", "b"])
        with pytest.raises(ValueError):
            buffer.append({"a": 1})
        with pytest.raises(ValueError):
            buffer.append({"a": 1, "b": 2, "c": 3})
        buffer.append({"a": 1, "b": 2})
        assert len(buffer) == 1
