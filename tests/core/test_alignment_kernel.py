"""Kernel parity: ``align_partial_views`` against the per-pair oracle.

``repro.core.maintenance`` classifies every (view, modified page) pair
of a batch at once and walks only the pairs that act; the loop it
replaced lives on in :mod:`tests.core.alignment_oracle`.  Every test
here builds the same stack twice from one :class:`Scenario`, aligns one
with the kernel and one with the oracle, and requires the *observable
state* to be equal: page list per view, every ``MaintenanceStats``
field, ledger lanes (``==``, not approx) and counters — after every
batch, on both snapshot classes.

Knobs: ``REPRO_SEED`` re-seeds the bulk sweep, ``REPRO_FUZZ_SCHEDULES``
sets its length (default 200); a failing sweep entry names its seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import maintenance
from repro.core.maintenance import align_partial_views
from repro.core.view import VirtualView
from repro.faults import FaultKind, FaultRule, FaultSchedule, FaultySubstrate
from repro.faults.plane import suppress_faults
from repro.resilience import ResilienceConfig, RetryPolicy
from repro.seeds import derive_seed
from repro.storage.column import PhysicalColumn
from repro.storage.updates import UpdateBatch, UpdateRecord
from repro.substrate import make_substrate
from repro.vm.constants import VALUES_PER_PAGE

from ..oracle_paths import production_paths, reference_paths
from .alignment_oracle import oracle_align_partial_views

FUZZ_SCHEDULES = int(os.environ.get("REPRO_FUZZ_SCHEDULES", "200"))

NUM_PAGES = 8
BAND = 1000  # page p holds values in [p * BAND, (p + 1) * BAND)
#: A range no initial value lies in: a view over it starts with no pages.
EMPTY_RANGE = (20_000, 20_050)


@dataclass
class Scenario:
    """Everything that determines one two-stack run."""

    #: Value ranges of the partial views, in catalog order.
    ranges: list[tuple[int, int]]
    #: Per batch, the ``(row, new value)`` writes in order.
    batches: list[list[tuple[int, int]]]
    #: Fault rules armed after set-up: (op, nth call, kind, transient).
    faults: list[tuple[str, int, FaultKind | None, bool | None]] = field(
        default_factory=list
    )
    retry: bool = False
    #: ``_BLOCK_CELLS`` for the kernel run (small = many view blocks).
    block_cells: int = maintenance._BLOCK_CELLS
    #: Pages appended to the column after the views exist, so a group's
    #: page can lie at or beyond a view's capacity.
    grown_pages: int = 0
    #: (view index, page) mapped behind the catalog's back before the
    #: first batch: the snapshot then says "indexed", the catalog not.
    desync: tuple[int, int] | None = None
    #: Slot of the view's area the desync mapping goes to (default: last).
    desync_slot: int = -1
    seed: int = 0


def _build(scenario: Scenario):
    """One fresh stack: substrate, column, aligned views, armed faults."""
    substrate = FaultySubstrate(make_substrate("simulated"))
    rng = np.random.default_rng(scenario.seed)
    offsets = rng.integers(0, BAND, size=NUM_PAGES * VALUES_PER_PAGE)
    values = np.repeat(np.arange(NUM_PAGES) * BAND, VALUES_PER_PAGE) + offsets
    column = PhysicalColumn.create(substrate, "col", values)
    views = [VirtualView.full_view(column)]
    for lo, hi in scenario.ranges:
        view = VirtualView(column, lo, hi)
        for page in column.pages_with_values_in(lo, hi).tolist():
            view.add_page(page)
        views.append(view)
    if scenario.grown_pages:
        column.file.resize(column.num_pages + scenario.grown_pages)
        column.num_rows += scenario.grown_pages * VALUES_PER_PAGE
    if scenario.desync is not None:
        index, page = scenario.desync
        view = views[1 + index]
        if not view.contains_page(page):
            slot = scenario.desync_slot % view.capacity
            substrate.map_fixed(view.base_vpn + slot, 1, column.file, page)
    retry = None
    if scenario.retry:
        retry = RetryPolicy(substrate, column.cost, ResilienceConfig(seed=0))
    substrate.schedule = FaultSchedule(
        [
            FaultRule(ops=op, nth=nth, kind=kind, transient=transient)
            for op, nth, kind, transient in scenario.faults
        ],
        seed=0,
    )
    return substrate, column, views, retry


def _observe(column, views, stats, error) -> dict:
    ledger = column.cost.ledger
    seen = {
        f.name: getattr(stats, f.name)
        for f in fields(stats)
        if f.name != "dropped_views"
    }
    seen["dropped_views"] = [views.index(v) for v in stats.dropped_views]
    seen["error"] = error
    # Read off the slot table, not ``mapped_fpages()``: its cache is one
    # of the things a run may have left behind differently.
    seen["pages"] = [
        (view._alive, view._fpage_at[view._fpage_at >= 0].tolist())
        for view in views
    ]
    seen["lanes"] = ledger.lanes()
    seen["counters"] = ledger.counters()
    return seen


def _run(scenario: Scenario, align, fast: bool) -> list[dict]:
    """Align every batch of the scenario; what was observable after each."""
    observed = []
    with production_paths() if fast else reference_paths():
        substrate, column, views, retry = _build(scenario)
        for writes in scenario.batches:
            batch = UpdateBatch()
            for row, new in writes:
                row %= column.num_rows
                batch.append(UpdateRecord(row, column.write(row, new), new))
            # Growing a column under live views is not a supported state
            # (the facade rebuilds them); mapping a page beyond a view's
            # capacity ends in the view's own IndexError on both sides.
            error = None
            stats = maintenance.MaintenanceStats()
            try:
                # like the layer, hand over only views not yet dropped
                live = [view for view in views if view._alive]
                stats = align(column, live, batch, retry=retry)
            except IndexError as exc:
                error = type(exc).__name__
            observed.append(_observe(column, views, stats, error))
            if error is not None:
                break
        with suppress_faults(substrate):
            for view in views:
                view.destroy()
    return observed


def assert_parity(scenario: Scenario) -> list[dict]:
    """Kernel == oracle on both snapshot classes; returns the kernel's
    fast-path observations for tests that also pin an outcome."""
    results = {}
    for fast in (False, True):
        expected = _run(scenario, oracle_align_partial_views, fast)
        previous = maintenance._BLOCK_CELLS
        maintenance._BLOCK_CELLS = scenario.block_cells
        try:
            actual = _run(scenario, align_partial_views, fast)
        finally:
            maintenance._BLOCK_CELLS = previous
        assert len(actual) == len(expected)
        for step, (got, want) in enumerate(zip(actual, expected)):
            for key in want:
                assert got[key] == want[key], (
                    f"{key} differs after batch {step} (fast={fast})"
                )
        results[fast] = actual
    # the two snapshot classes agree with each other, too
    assert results[True] == results[False]
    return results[True]


# -- planted cases --------------------------------------------------------------

ROW = VALUES_PER_PAGE  # first row of page 1


def _fill(page: int, value: int) -> list[tuple[int, int]]:
    """Overwrite every value of ``page``."""
    return [(page * ROW + i, value) for i in range(VALUES_PER_PAGE)]


class TestPlanted:
    def test_empty_batch(self):
        seen = assert_parity(Scenario(ranges=[(1000, 1999)], batches=[[]]))
        assert seen[0]["maps_lines"] > 0  # the maps file is still read
        assert seen[0]["counters"].get("updates_checked", 0) == 0

    def test_all_updates_on_one_page(self):
        writes = [(3 * ROW + i, 1500) for i in range(40)]
        seen = assert_parity(
            Scenario(ranges=[(1000, 1999), (3000, 3999)], batches=[writes])
        )
        assert seen[0]["pages_added"] == 1

    def test_view_with_no_pages_gains_one(self):
        seen = assert_parity(
            Scenario(ranges=[EMPTY_RANGE], batches=[[(5 * ROW, 20_010)]])
        )
        assert seen[0]["pages"][1] == (True, [5])

    def test_add_and_remove_in_the_same_view(self):
        writes = _fill(2, 50) + [(6 * ROW, 2500)]
        seen = assert_parity(Scenario(ranges=[(2000, 2999)], batches=[writes]))
        assert (seen[0]["pages_added"], seen[0]["pages_removed"]) == (1, 1)
        assert seen[0]["pages"][1] == (True, [6])

    def test_page_shared_by_overlapping_views(self):
        writes = _fill(4, 50)
        seen = assert_parity(
            Scenario(
                ranges=[(3500, 4500), (4000, 4999), (4200, 5200)],
                batches=[writes],
            )
        )
        assert seen[0]["pages_removed"] == 3

    def test_group_page_beyond_view_capacity(self):
        grown_row = NUM_PAGES * ROW + 7
        quiet = assert_parity(
            Scenario(
                ranges=[(1000, 1999)],
                batches=[[(grown_row, 9_999), (ROW, 1_500)]],
                grown_pages=1,
            )
        )
        assert quiet[0]["error"] is None
        loud = assert_parity(
            Scenario(
                ranges=[(1000, 1999)],
                batches=[[(grown_row, 1_500)]],
                grown_pages=1,
            )
        )
        assert loud[0]["error"] == "IndexError"

    @pytest.mark.parametrize("view_index", [0, 1, 2])
    @pytest.mark.parametrize("group_index", [0, 1, 2])
    def test_mismatch_at_group_k_of_view_j(self, view_index, group_index):
        """Same ledger up to the raise, same view dropped, later views
        still aligned (the add on page 7 reaches whoever survives)."""
        writes = [(5 * ROW, 9_100), (6 * ROW, 9_200), (7 * ROW, 1_500)]
        page = writes[group_index][0] // ROW
        seen = assert_parity(
            Scenario(
                ranges=[(1000, 1999), (1200, 1800), (1400, 1600)],
                batches=[writes],
                desync=(view_index, page),
            )
        )
        assert seen[0]["dropped_views"] == [1 + view_index]
        assert seen[0]["faults"] == 1
        survivors = {1, 2, 3} - {1 + view_index}
        assert all(7 in seen[0]["pages"][v][1] for v in survivors)

    def test_stale_snapshot_with_overlay_from_previous_batch(self):
        """Batch 1 adds a page (the fast snapshot records it in its
        overlay); batch 2 is handed that same snapshot again."""
        scenario = Scenario(
            ranges=[(1000, 1999), (5000, 5999)],
            batches=[
                [(3 * ROW, 1_500)],
                [(3 * ROW + 1, 1_600), (4 * ROW, 5_500), (6 * ROW, 42)],
            ],
            faults=[("maps_snapshot", 2, FaultKind.STALE_MAPS, None)],
        )
        seen = assert_parity(scenario)
        # the overlay kept the stale snapshot in step with view 1 ...
        assert seen[1]["pages"][1] == (True, [1, 3])
        # ... and nothing was parsed the second time
        assert seen[1]["maps_lines"] == 0

    def test_stale_snapshot_that_contradicts_the_catalog(self):
        """A view created after the stale snapshot was taken is torn."""
        scenario = Scenario(
            ranges=[(1000, 1999)],
            batches=[[(3 * ROW, 1_500)], [(3 * ROW, 7)] + _fill(1, 7)],
            faults=[
                ("unmap_slot", 1, None, False),
                ("maps_snapshot", 2, FaultKind.STALE_MAPS, None),
            ],
        )
        assert_parity(scenario)

    def test_add_over_a_stale_record_is_where_kernel_and_loop_part(self):
        """The one accepted difference.  The snapshot holds page 6 at the
        slot view 1 hands out next although the catalog has that slot
        free.  Adding page 5 there overwrites the stale record, so the
        loop, asking about page 6 afterwards, no longer sees the
        mismatch; the kernel classified page 6 against the snapshot as
        handed over and drops the view — the conservative answer.

        No drawn scenario gets here: a drawn desync sits on a view's last
        slot, which is handed out only once every other page is mapped,
        and a STALE_MAPS snapshot is the one the previous batch kept in
        step with its own (un)maps.
        """
        scenario = Scenario(
            ranges=[(1000, 1999), (1400, 1700)],
            batches=[[(5 * ROW, 1_500), (6 * ROW, 1_600)]],
            desync=(0, 6),
            desync_slot=1,  # view 1 holds page 1 in slot 0
        )
        for fast in (False, True):
            (loop,) = _run(scenario, oracle_align_partial_views, fast)
            (kernel,) = _run(scenario, align_partial_views, fast)
            assert loop["pages"][1] == (True, [1, 5, 6])
            assert (loop["faults"], loop["dropped_views"]) == (0, [])
            assert kernel["pages"][1][0] is False
            assert (kernel["faults"], kernel["dropped_views"]) == (1, [1])
            # the view after it is aligned all the same
            assert kernel["pages"][2] == loop["pages"][2] == (True, [1, 5, 6])

    @pytest.mark.parametrize("retry", [False, True])
    @pytest.mark.parametrize("transient", [False, True])
    def test_map_fixed_fault_mid_view(self, retry, transient):
        writes = [(4 * ROW, 1_100), (5 * ROW, 1_200), (6 * ROW, 1_300)]
        seen = assert_parity(
            Scenario(
                ranges=[(1000, 1999), (1100, 1400)],
                batches=[writes],
                faults=[("map_fixed", 2, None, transient)],
                retry=retry,
            )
        )
        healed = retry and transient
        assert seen[0]["dropped_views"] == ([] if healed else [1])
        assert seen[0]["counters"].get("backoff_waits", 0) == int(healed)

    def test_snapshot_failure_drops_every_view(self):
        seen = assert_parity(
            Scenario(
                ranges=[(1000, 1999), (3000, 3999)],
                batches=[[(ROW, 5)]],
                faults=[("maps_snapshot", 1, None, False)],
            )
        )
        assert seen[0]["dropped_views"] == [1, 2]

    def test_batch_spanning_several_view_blocks(self):
        writes = [(p * ROW + p, 1_000 + 100 * p) for p in range(NUM_PAGES)]
        ranges = [(1000 + 50 * i, 1400 + 50 * i) for i in range(7)]
        seen = assert_parity(
            Scenario(ranges=ranges, batches=[writes], block_cells=16)
        )
        assert seen[0]["pages_added"] > 7


# -- drawn cases ------------------------------------------------------------------

_RANGE = st.one_of(
    st.tuples(st.integers(0, 8_500), st.integers(1, 2_500)).map(
        lambda r: (r[0], r[0] + r[1])
    ),
    st.just(EMPTY_RANGE),
)
_VALUE = st.one_of(st.integers(0, 8_999), st.integers(*EMPTY_RANGE))
_WRITES = st.one_of(
    # anywhere in the column
    st.lists(
        st.tuples(st.integers(0, (NUM_PAGES + 1) * ROW - 1), _VALUE), max_size=40
    ),
    # all on one page, possibly all of it
    st.tuples(
        st.integers(0, NUM_PAGES - 1),
        st.lists(st.tuples(st.integers(0, ROW - 1), _VALUE), max_size=30),
        st.one_of(st.none(), _VALUE),
    ).map(
        lambda t: (_fill(t[0], t[2]) if t[2] is not None else [])
        + [(t[0] * ROW + slot, value) for slot, value in t[1]]
    ),
)
_FAULT = st.one_of(
    st.tuples(
        st.sampled_from(["map_fixed", "unmap_slot"]),
        st.integers(1, 6),
        st.none(),
        st.sampled_from([None, True, False]),
    ),
    st.tuples(
        st.just("maps_snapshot"),
        st.integers(1, 3),
        st.sampled_from([None, FaultKind.STALE_MAPS]),
        st.sampled_from([None, True, False]),
    ),
)
_SCENARIO = st.builds(
    Scenario,
    ranges=st.lists(_RANGE, min_size=1, max_size=6),
    batches=st.lists(_WRITES, min_size=1, max_size=3),
    faults=st.lists(_FAULT, max_size=3),
    retry=st.booleans(),
    block_cells=st.sampled_from([1, 16, 64, maintenance._BLOCK_CELLS]),
    grown_pages=st.sampled_from([0, 0, 0, 1]),
    desync=st.one_of(
        st.none(), st.tuples(st.integers(0, 5), st.integers(0, NUM_PAGES - 1))
    ),
    seed=st.integers(0, 3),
).map(
    lambda s: s
    if s.desync is None or s.desync[0] < len(s.ranges)
    else Scenario(**{**s.__dict__, "desync": None})
)


@settings(max_examples=60, deadline=None)
@given(scenario=_SCENARIO)
def test_kernel_matches_oracle(scenario):
    assert_parity(scenario)


def _seeded_scenario(seed: int) -> Scenario:
    """One sweep entry, drawn with numpy so the seed alone replays it."""
    rng = np.random.default_rng(seed)

    def value() -> int:
        if rng.random() < 0.1:
            return int(rng.integers(EMPTY_RANGE[0], EMPTY_RANGE[1]))
        return int(rng.integers(0, 9_000))

    ranges = []
    for _ in range(int(rng.integers(1, 7))):
        lo = int(rng.integers(0, 8_500))
        ranges.append(
            EMPTY_RANGE if rng.random() < 0.15 else (lo, lo + int(rng.integers(1, 2_500)))
        )
    batches = []
    for _ in range(int(rng.integers(1, 4))):
        writes = []
        if rng.random() < 0.3:
            writes += _fill(int(rng.integers(0, NUM_PAGES)), value())
        for _ in range(int(rng.integers(0, 40))):
            writes.append((int(rng.integers(0, NUM_PAGES * ROW)), value()))
        batches.append(writes)
    faults = []
    for _ in range(int(rng.integers(0, 4))):
        op = ["map_fixed", "unmap_slot", "maps_snapshot"][int(rng.integers(0, 3))]
        stale = op == "maps_snapshot" and rng.random() < 0.5
        faults.append(
            (
                op,
                int(rng.integers(1, 5)),
                FaultKind.STALE_MAPS if stale else None,
                [None, True, False][int(rng.integers(0, 3))],
            )
        )
    desync = None
    if rng.random() < 0.25:
        desync = (int(rng.integers(0, len(ranges))), int(rng.integers(0, NUM_PAGES)))
    return Scenario(
        ranges=ranges,
        batches=batches,
        faults=faults,
        retry=bool(rng.random() < 0.5),
        block_cells=[1, 16, 64, maintenance._BLOCK_CELLS][int(rng.integers(0, 4))],
        desync=desync,
        seed=int(rng.integers(0, 4)),
    )


def test_bulk_seeded_scenarios():
    """REPRO_FUZZ_SCHEDULES scenarios derived from REPRO_SEED; the sweep
    as a whole must have exercised every kind of outcome."""
    totals = {"pages_added": 0, "pages_removed": 0, "faults": 0, "views_dropped": 0}
    for i in range(FUZZ_SCHEDULES):
        seed = derive_seed(i)
        try:
            seen = assert_parity(_seeded_scenario(seed))
        except AssertionError as exc:
            raise AssertionError(f"sweep entry {i} (seed {seed}): {exc}") from exc
        for step in seen:
            for key in totals:
                totals[key] += step[key]
    if FUZZ_SCHEDULES >= 50:
        assert all(totals.values()), totals
