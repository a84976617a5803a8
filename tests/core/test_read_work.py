"""What a small view-hit read costs the ledger: four bookings.

The common read of a warmed-up workload is answered by a small partial
view, and the candidate it builds on the way is discarded.  Each step
books its charges and counters in one locked ledger update: the page
scan (access, header, values and ``pages_scanned`` as one sum), the
candidate's reservation, its mapping plan (the mmap calls and their
soft faults as one sum) and its release.  That is four updates for the
11-page read here, on either backend; booking every charge kind apart
would take eight (seven ``book`` calls and one ``count``).  The sums
are those of the separate bookings: the read's lanes and counters are
checked against them to the picosecond.

The timing region the read opens reports, through ``lane_deltas``,
``counter_deltas``, ``elapsed_ns`` and ``lane_ns``, exactly the deltas
of two ledger snapshots taken around it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.facade import AdaptiveDatabase
from repro.core.stats import ViewEvent
from repro.native import is_supported
from repro.substrate import make_substrate
from repro.vm.constants import VALUES_PER_PAGE
from repro.vm.cost import MAIN_LANE, MAPPER_LANE, PS_PER_NS, CostModel

NUM_PAGES = 64
#: The view's pages: scattered, so the scan gathers them and the
#: candidate's plan has one run per page.
VIEW_PAGES = np.array([2, 5, 9, 14, 20, 27, 33, 40, 46, 51, 58])
LO, HI = 1_000, 1_999

BACKENDS = [
    "simulated",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not is_supported(), reason="native rewiring unsupported here"
        ),
    ),
]


def _values() -> np.ndarray:
    """Filler above the range everywhere; the view's pages hold values
    inside it in their first eight slots."""
    values = np.full((NUM_PAGES, VALUES_PER_PAGE), 10**9, dtype=np.int64)
    values[VIEW_PAGES, :8] = LO + np.arange(8) * 100
    return values.reshape(-1)


class _CountedLedger:
    """Counts the locked updates of one ledger while installed."""

    def __init__(self, ledger) -> None:
        self.ledger = ledger
        self.updates = 0

    def __enter__(self) -> "_CountedLedger":
        for name in ("book", "count", "book_append"):
            method = getattr(self.ledger, name)

            def counted(*args, _method=method, **kwargs):
                self.updates += 1
                return _method(*args, **kwargs)

            setattr(self.ledger, name, counted)
        return self

    def __exit__(self, *exc_info) -> None:
        for name in ("book", "count", "book_append"):
            delattr(self.ledger, name)


@pytest.fixture(params=BACKENDS)
def db(request):
    substrate = make_substrate(request.param)
    with AdaptiveDatabase(backend=substrate) as database:
        database.create_table("t", {"v": _values()})
        warm = database.query("t", "v", LO, HI)
        assert warm.stats.view_event is ViewEvent.INSERTED
        yield database


def test_a_small_view_hit_books_four_times(db):
    ledger = db.cost.ledger
    lanes, counters = ledger.snapshot_ps()
    with _CountedLedger(ledger) as counted:
        result = db.query("t", "v", LO, HI)
    lanes_end, counters_end = ledger.snapshot_ps()

    assert result.stats.view_event is ViewEvent.DISCARDED_SUBSET
    assert result.stats.pages_scanned == VIEW_PAGES.size == 11
    assert result.stats.views_used == 1
    assert counted.updates <= 4

    # The same charges as booking every step apart.
    cost = CostModel()
    cost.page_access("seq", 11)
    cost.page_header(11)
    cost.stream_values(11 * VALUES_PER_PAGE)
    cost.ledger.count("pages_scanned", 11)
    cost.anon_mmap()
    cost.mmap_call(11, calls=11)
    cost.soft_fault(11)
    cost.munmap_call(11)
    want_lanes, want_counters = cost.ledger.snapshot_ps()
    assert lanes_end[MAIN_LANE] - lanes[MAIN_LANE] == want_lanes[MAIN_LANE]
    changed = {
        name: n - counters.get(name, 0)
        for name, n in counters_end.items()
        if n != counters.get(name, 0)
    }
    assert changed == want_counters


def test_region_reads_the_snapshot_deltas(db):
    ledger = db.cost.ledger
    lanes, counters = ledger.snapshot_ps()
    with db.cost.region() as region:
        assert region.lane_deltas == {}
        assert region.counter_deltas == {}
        assert region.elapsed_ns() == 0.0
        assert region.lane_ns() == 0.0
        db.query("t", "v", LO, HI)
        db.cost.queue_op(3, MAPPER_LANE)
    lanes_end, counters_end = ledger.snapshot_ps()

    want_lanes = {
        lane: (lanes_end.get(lane, 0) - lanes.get(lane, 0)) / PS_PER_NS
        for lane in set(lanes) | set(lanes_end)
    }
    want_counters = {
        name: counters_end.get(name, 0) - counters.get(name, 0)
        for name in set(counters) | set(counters_end)
    }
    assert region.lane_deltas == want_lanes
    assert region.counter_deltas == want_counters
    assert region.elapsed_ns() == max(want_lanes.values())
    assert region.elapsed_ns(overlap=False) == sum(want_lanes.values())
    assert region.lane_ns() == region.lane_ns(MAIN_LANE) == want_lanes[MAIN_LANE]
    assert region.lane_ns(MAPPER_LANE) == 3 * db.cost.params.queue_op_ns
    assert region.lane_ns("no-such-lane") == 0.0
