"""One placement decision per scan: the kernel against its per-page oracle.

``TieredPageStore.record_batch_access`` (array bookkeeping, one sort per
side, one comparison, one ``argmin``) and ``placement_oracle`` (the same
rule, one page and one pair at a time) run over identical stacks.  After
**every** access the two stores must agree on placement (``hot``,
``hits``, ``last_access``), the cold tier's contents, every counter
(promotions, demotions, denials, debt, the denial journal, fallbacks,
spill failures, the thrash latch), the fault journal and the cost
ledger — lanes and counters ``==`` — and the auditor must pass.

Planted cases pin each clause of the rule; the bulk sweep draws random
access traces × spill-fault schedules; two stream properties state what
the rule is *for* on the benchmark-shaped session (512-page sine
column, five hotspot phases, budget 128).

Knobs: ``REPRO_SEED`` re-seeds the bulk sweep, ``REPRO_FUZZ_SCHEDULES``
(default 200) sizes it.
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.core.scan import batch_scan
from repro.faults import FaultRule, FaultSchedule, FaultySubstrate
from repro.seeds import derive_seed
from repro.substrate import make_substrate
from repro.tier import TierConfig
from repro.vm.constants import VALUES_PER_PAGE
from repro.workloads.distributions import sine
from repro.workloads.queries import shifting_hotspot

from . import placement_oracle
from .test_fault_schedules import _spill_schedule

NUM_PAGES = 12
NUM_ROWS = NUM_PAGES * VALUES_PER_PAGE
DOMAIN = NUM_ROWS

FUZZ_SCHEDULES = int(os.environ.get("REPRO_FUZZ_SCHEDULES", "200"))


def _observe(db, schedule) -> dict:
    store = db.table("t").column("x").file
    governor = store.governor
    assert store.hot_count() == int(store.hot.sum())
    return {
        "hot": store.hot.tolist(),
        "hits": store.hits.tolist(),
        "last_access": store.last_access.tolist(),
        "cold": {
            page: store.cold.read_page(page).tobytes()
            for page in store.cold.pages()
        },
        "moves": (store.promotions, store.demotions),
        "served": (store.hot_hits, store.cold_hits),
        "failures": (store.spill_failures, store.read_fallbacks),
        "governor": (governor.denials, governor.debt, list(governor.journal)),
        "thrashing": store.thrashing,
        "since_maintenance": store._since_maintenance,
        "faults": (
            [(f.op, f.kind, f.call_index, f.rule) for f in schedule.journal]
            if schedule is not None
            else []
        ),
        "ledger": db.cost.ledger.snapshot(),
    }


class Pair:
    """The shipped store and the oracle-driven store, in lockstep."""

    def __init__(self, config: TierConfig, make_schedule=None) -> None:
        self.sides = []
        for use_oracle in (False, True):
            schedule = make_schedule() if make_schedule else None
            substrate = make_substrate("simulated")
            if schedule is not None:
                substrate = FaultySubstrate(substrate)
            db = AdaptiveDatabase(
                config=AdaptiveConfig(background_mapping=False),
                backend=substrate,
                tiering=config,
            )
            db.create_table("t", {"x": np.arange(NUM_ROWS, dtype=np.int64)})
            if schedule is not None:
                substrate.schedule = schedule  # set-up stays fault-free
            if use_oracle:
                placement_oracle.install(db.table("t").column("x").file)
            self.sides.append((db, schedule))

    def __enter__(self) -> "Pair":
        return self

    def __exit__(self, *exc) -> None:
        for db, _ in self.sides:
            db.close()

    @property
    def store(self):
        """The shipped side's store (planted cases assert on it)."""
        return self.sides[0][0].table("t").column("x").file

    def each(self, action) -> None:
        """Apply ``action(db)`` to both sides without comparing."""
        for db, _ in self.sides:
            action(db)

    def step(self, action, context: str = "") -> dict:
        """Apply ``action(db)`` to both sides; they must end up equal."""
        self.each(action)
        (db, schedule), (oracle_db, oracle_schedule) = self.sides
        got = _observe(db, schedule)
        want = _observe(oracle_db, oracle_schedule)
        for key in want:
            assert got[key] == want[key], f"{context}: {key} diverged"
        audit = db.audit()
        assert audit.ok, f"{context}:\n{audit.render()}"
        return got

    def scan(self, pages, context: str = "") -> dict:
        fpages = np.array(pages, dtype=np.int64)
        return self.step(
            lambda db: batch_scan(db.table("t").column("x"), fpages, 0, DOMAIN),
            context or f"scan {list(pages)}",
        )


def _set_placement(db, hot_pages, hits) -> None:
    """Plant a placement through the store's own primitives."""
    store = db.table("t").column("x").file
    for page in range(NUM_PAGES):
        if page in hot_pages and not store.hot[page]:
            store._install_hot(page, None, "main")
        elif page not in hot_pages and store.hot[page]:
            assert store.demote(page, None)
    store.hits[:] = 0.0
    for page, value in hits.items():
        store.hits[page] = value
    store.governor._sync_debt()


def _unlimited(db) -> None:
    """Lift the budget after set-up placed pages cold: the only way to
    have cold pages under ``hot_budget=None``."""
    store = db.table("t").column("x").file
    store.config = dataclasses.replace(store.config, hot_budget=None)


class TestPlanted:
    def test_free_room_is_filled_first(self):
        """Candidates enter free room hottest first; only the one left
        over meets a victim, and loses."""
        with Pair(TierConfig(hot_budget=4)) as pair:
            pair.each(
                lambda db: _set_placement(
                    db, {0, 1}, {0: 9.0, 1: 9.0, 5: 1.0, 6: 3.0, 7: 2.0}
                )
            )
            demotions = pair.store.demotions
            got = pair.scan([5, 6, 7])  # hits 2, 4, 3: two free slots
            assert np.nonzero(got["hot"])[0].tolist() == [0, 1, 6, 7]
            assert pair.store.demotions == demotions
            assert pair.store.governor.denials == 0

    def test_equal_counters_do_not_swap(self):
        """Strict ``>``: a candidate level with the coldest hot page
        stays cold; one more hit and it swaps."""
        with Pair(TierConfig(hot_budget=2)) as pair:
            pair.each(lambda db: _set_placement(db, {0, 1}, {0: 2.0, 1: 5.0, 7: 1.0}))
            got = pair.scan([7])  # 2 == 2
            assert np.nonzero(got["hot"])[0].tolist() == [0, 1]
            got = pair.scan([7])  # 3 > 2
            assert np.nonzero(got["hot"])[0].tolist() == [1, 7]

    def test_winners_are_a_prefix_of_the_pairs(self):
        """Hottest candidate meets coldest victim; the first losing pair
        ends the batch even though a colder victim has been used up."""
        with Pair(TierConfig(hot_budget=3)) as pair:
            pair.each(
                lambda db: _set_placement(
                    db,
                    {0, 1, 2},
                    {0: 1.0, 1: 3.0, 2: 9.0, 5: 4.0, 6: 2.0, 7: 1.0},
                )
            )
            promotions = pair.store.promotions
            got = pair.scan([5, 6, 7])  # 5 > 1 swaps, 3 > 3 does not
            assert np.nonzero(got["hot"])[0].tolist() == [1, 2, 5]
            assert pair.store.promotions == promotions + 1

    def test_a_same_batch_promotion_is_never_a_victim(self):
        """Victims are the pages hot *before* the batch: one candidate
        takes the free slot, the others swap against the old hot set."""
        with Pair(TierConfig(hot_budget=3)) as pair:
            pair.each(
                lambda db: _set_placement(
                    db, {0, 1}, {0: 1.0, 1: 1.0, 5: 3.0, 6: 2.0, 7: 1.0}
                )
            )
            promotions, demotions = pair.store.promotions, pair.store.demotions
            got = pair.scan([5, 6, 7])  # hits 4, 3, 2 against 1, 1
            assert np.nonzero(got["hot"])[0].tolist() == [5, 6, 7]
            assert pair.store.promotions == promotions + 3
            assert pair.store.demotions == demotions + 2

    def test_unlimited_budget_promotes_every_earner(self):
        with Pair(TierConfig(hot_budget=3)) as pair:
            pair.each(_unlimited)
            demotions = pair.store.demotions
            got = pair.scan([4, 5, 9])
            assert np.nonzero(got["hot"])[0].tolist() == [0, 1, 2]
            got = pair.scan([4, 5, 9])  # second touch: promote_after
            assert np.nonzero(got["hot"])[0].tolist() == [0, 1, 2, 4, 5, 9]
            assert pair.store.demotions == demotions

    def test_a_batch_of_one_is_a_point_read(self):
        """``record_access`` and a one-page ``record_batch_access``
        leave identical stores and ledgers, promotion included."""
        config = TierConfig(hot_budget=2)
        with Pair(config) as by_point, Pair(config) as by_batch:
            for step, row in enumerate([7 * VALUES_PER_PAGE + 3] * 3 + [5, 9 * VALUES_PER_PAGE]):
                by_point.step(
                    lambda db, row=row: db.table("t").column("x").read(row),
                    f"point read {step}",
                )
                page = row // VALUES_PER_PAGE
                by_batch.step(
                    lambda db, page=page: (
                        db.cost.page_access("random", 1),
                        db.table("t").column("x").file.record_batch_access(
                            np.array([page]), db.cost, kind="random"
                        ),
                    ),
                    f"one-page batch {step}",
                )
                point = _observe(*by_point.sides[0])
                batch = _observe(*by_batch.sides[0])
                assert point == batch
            assert by_point.store.hot[7]

    @pytest.mark.parametrize("transient", [False, True])
    def test_failed_spill_denies_the_paired_candidate_only(self, transient):
        """The first victim's spill stays failed: it stays hot, its
        candidate is denied and journalled, the next pair still swaps."""

        def schedule():
            if transient:  # outlasts spill_retries=1
                rules = [FaultRule(ops="cold_write", nth=n) for n in (1, 2)]
            else:
                rules = [FaultRule(ops="cold_write", nth=1, transient=False)]
            return FaultSchedule(rules, seed=0)

        config = TierConfig(hot_budget=2, spill_retries=1)
        with Pair(config, schedule) as pair:

            def plant(db):
                with db.substrate.suppressed():
                    _set_placement(
                        db, {0, 1}, {0: 1.0, 1: 2.0, 6: 5.0, 7: 4.0}
                    )

            pair.each(plant)
            got = pair.scan([6, 7])  # 6 pairs with 0 (fails), 7 with 1
            assert np.nonzero(got["hot"])[0].tolist() == [0, 7]
            denials, debt, journal = got["governor"]
            assert (denials, debt) == (1, 0)
            assert journal == [{"action": "deny", "requested": 1, "hot": 2}]
            assert got["failures"][0] == 1


# -- bulk sweep -----------------------------------------------------------------


def _trace(rng: np.random.Generator, count: int) -> list[tuple]:
    """Random accesses: full scans, a recurring narrow hot set, random
    subsets, point reads, writes, flushes and explicit maintenance."""
    hot_set = rng.choice(NUM_PAGES, size=int(rng.integers(1, 4)), replace=False)
    ops: list[tuple] = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.15:
            ops.append(("scan", rng.permutation(NUM_PAGES).tolist()))
        elif roll < 0.50:
            ops.append(("scan", hot_set.tolist()))
        elif roll < 0.65:
            size = int(rng.integers(1, NUM_PAGES))
            ops.append(
                ("scan", rng.choice(NUM_PAGES, size=size, replace=False).tolist())
            )
        elif roll < 0.75:
            ops.append(("point", int(rng.integers(0, NUM_ROWS))))
        elif roll < 0.90:
            ops.append(
                ("write", int(rng.integers(0, NUM_ROWS)), int(rng.integers(0, DOMAIN)))
            )
        elif roll < 0.95:
            ops.append(("flush",))
        else:
            ops.append(("maintain",))
        if rng.random() < 0.1:
            hot_set = rng.choice(
                NUM_PAGES, size=int(rng.integers(1, 4)), replace=False
            )
    return ops


def _apply(db, op: tuple) -> None:
    column = db.table("t").column("x")
    if op[0] == "scan":
        batch_scan(column, np.array(op[1], dtype=np.int64), 0, DOMAIN)
    elif op[0] == "point":
        column.read(op[1])
    elif op[0] == "write":
        db.update("t", "x", op[1], op[2])
    elif op[0] == "flush":
        db.flush_updates("t", "x")
    elif op[0] == "maintain":
        column.file.maintenance(db.cost)


def _run_trace(seed: int, faults: bool) -> dict:
    rng = np.random.default_rng(seed)
    budget = [None, 1, 2, 3, 5, 8, NUM_PAGES][int(rng.integers(0, 7))]
    config = TierConfig(
        hot_budget=3 if budget is None else budget,
        spill_retries=int(rng.integers(0, 3)),
        thrash_threshold=int(rng.integers(1, 6)),
    )
    ops = _trace(rng, 40)
    make_schedule = (lambda: _spill_schedule(seed)) if faults else None
    with Pair(config, make_schedule) as pair:
        if budget is None:
            pair.each(_unlimited)
        got = {}
        for index, op in enumerate(ops):
            got = pair.step(
                lambda db, op=op: _apply(db, op),
                f"seed {seed} op {index} {op[0]}",
            )
        return got


def test_bulk_seeded_traces():
    """REPRO_FUZZ_SCHEDULES traces derived from REPRO_SEED, half of them
    under a spill-fault schedule; the sweep must reach every outcome of
    the rule, or it proves nothing about it."""
    promotions = demotions = denials = fallbacks = latched = 0
    for i in range(FUZZ_SCHEDULES):
        got = _run_trace(derive_seed(30_000 + i), faults=i % 2 == 0)
        promotions += got["moves"][0]
        demotions += got["moves"][1]
        denials += got["governor"][0]
        fallbacks += got["failures"][1]
        latched += got["thrashing"]
    assert promotions > FUZZ_SCHEDULES and demotions > FUZZ_SCHEDULES
    if FUZZ_SCHEDULES >= 50:
        assert denials > 0, "no failed spill ever denied a candidate"
        assert fallbacks > 0, "no cold read ever fell back"
        assert latched > 0, "no trace ever ended thrashing"


# -- what the rule is for: the benchmark-shaped stream -------------------------

STREAM_PAGES = 512
STREAM_BUDGET = 128


@pytest.fixture
def stream_db():
    with AdaptiveDatabase(tiering=TierConfig(hot_budget=STREAM_BUDGET)) as db:
        db.create_table("t", {"v": sine(STREAM_PAGES, seed=0)})
        yield db


class TestStreamProperties:
    def test_full_scans_alone_promote_nothing(self, stream_db):
        """A scan touches every page equally — no evidence.  60 scans
        also cover the point where the decayed counters (2 - 2^-k)
        round to exactly ``promote_after``."""
        store = stream_db.table("t").column("v").file
        column = stream_db.table("t").column("v")
        everything = np.arange(STREAM_PAGES)
        for _ in range(60):
            batch_scan(column, everything, 0, 1)
        # Every page did reach promote_after before the last decay:
        # the cold ones were candidates, and lost on the tie.
        config = store.config
        assert store.hits.min() == config.promote_after * config.decay
        assert (store.promotions, store.demotions) == (0, STREAM_PAGES - STREAM_BUDGET)
        assert store.hot[:STREAM_BUDGET].all()
        assert not store.thrashing

    def test_hotspot_stream_is_served_without_cycling(self, stream_db):
        """Five hotspot phases, each fitting the budget: the tier moves
        at most one page per 20 accessed and serves at least 0.9 of
        what *any* policy could — a scan of a column 4x the budget is
        75 % cold whatever is resident."""
        store = stream_db.table("t").column("v").file
        sizes = []
        record = store.record_batch_access

        def spy(fpages, cost, lane="main", kind="seq"):
            sizes.append(len(fpages))
            record(fpages, cost, lane=lane, kind=kind)

        store.record_batch_access = spy
        for query in shifting_hotspot(400, 0.01, 5, 0.2, seed=1):
            stream_db.query("t", "v", query.lo, query.hi)
        sizes = np.array(sizes)
        accesses = int(sizes.sum())
        assert accesses == store.hot_hits + store.cold_hits
        ceiling = np.minimum(sizes, STREAM_BUDGET).sum() / accesses
        assert store.promotions > 0
        assert store.promotions <= accesses / 20
        assert store.hit_ratio() >= 0.9 * ceiling
        assert store.governor.denials == 0
        assert stream_db.audit().ok
