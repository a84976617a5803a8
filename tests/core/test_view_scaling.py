"""A read on a partial view costs what the view costs, not the column.

Two columns, 4 096 and 32 768 pages, hold the same 64 "hot" pages at the
same page numbers; every other page is filler outside any query range.
One partial view over the hot pages is warmed on each, then one read is
measured that the view answers and whose candidate view is built and
discarded (the common read of a warmed-up workload), and one whose
candidate is kept.  No clock: the measure is ``tracemalloc``'s peak of
traced bytes during the read — numpy reports its buffers to it — which
at a column-sized allocation anywhere on the path grows eightfold with
the column.  The ledger charges of the read must not differ at all.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.facade import AdaptiveDatabase
from repro.core.stats import ViewEvent
from repro.vm.constants import VALUES_PER_PAGE
from repro.vm.cost import MAIN_LANE

SMALL_PAGES = 4_096
LARGE_PAGES = 32_768
#: Hot pages: two groups, so a query on one group's values qualifies
#: half of the view's pages and its candidate is worth keeping.
LOW_PAGES = np.arange(1_000, 1_064, 2)
HIGH_PAGES = LOW_PAGES + 1
FILLER = 5_000_000


def _column(num_pages: int) -> np.ndarray:
    """Filler everywhere but eight slots of each hot page: small results,
    so that the read's own arrays do not drown what is measured."""
    values = np.full((num_pages, VALUES_PER_PAGE), FILLER, dtype=np.int64)
    values[LOW_PAGES, :8] = np.arange(8)
    values[HIGH_PAGES, :8] = 1_000 + np.arange(8)
    return values.reshape(-1)


def _measured_read(db: AdaptiveDatabase, lo: int, hi: int):
    """One ``db.query``: its result, peak traced bytes, ledger charges.

    The charges are the read's own ``(ns, lane)`` stream in order, not a
    difference of lane totals (floats, which would carry the rounding of
    whatever the column's size had charged before).
    """
    ledger = db.cost.ledger
    charges: list[tuple[float, str]] = []
    charge = ledger.charge

    def recording_charge(ns: float, lane: str = MAIN_LANE) -> None:
        charges.append((ns, lane))
        charge(ns, lane)

    counters = ledger.counters()
    ledger.charge = recording_charge
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        floor = tracemalloc.get_traced_memory()[0]
        result = db.query("t", "v", lo, hi)
        peak = tracemalloc.get_traced_memory()[1] - floor
    finally:
        tracemalloc.stop()
        del ledger.charge
    counted = {
        name: n - counters.get(name, 0) for name, n in ledger.counters().items()
    }
    return result, peak, {"charges": charges, "counters": counted}


@pytest.fixture(scope="module")
def reads():
    """Per column size: the discarding and the inserting view-hit read."""
    measured = {}
    for num_pages in (SMALL_PAGES, LARGE_PAGES):
        with AdaptiveDatabase() as db:
            db.create_table("t", {"v": _column(num_pages)})
            # the cold read: a full scan that leaves the 64-page view
            warm = db.query("t", "v", 0, 2_000)
            assert warm.stats.view_event is ViewEvent.INSERTED
            assert warm.stats.pages_scanned == num_pages
            measured[num_pages] = {
                # both groups hold such values: the view's own 64 pages
                "discard": _measured_read(db, 2, 1_005),
                # only the low group does: 32 of the 64 pages, worth keeping
                "insert": _measured_read(db, 2, 5),
                "views": db.layer("t", "v").view_index.num_partials,
            }
    return measured


@pytest.mark.parametrize("kind", ["discard", "insert"])
def test_a_view_hit_read_allocates_for_the_view_not_the_column(reads, kind):
    (small, small_peak, small_charged) = reads[SMALL_PAGES][kind]
    (large, large_peak, large_charged) = reads[LARGE_PAGES][kind]
    event = ViewEvent.DISCARDED_SUBSET if kind == "discard" else ViewEvent.INSERTED
    for result in (small, large):
        assert result.stats.view_event is event
        assert result.stats.pages_scanned == 64
        assert result.stats.views_used == 1
    assert np.array_equal(small.rowids, large.rowids)
    # eight times the column, the same read
    assert large_peak <= 1.5 * small_peak, (small_peak, large_peak)
    assert large_charged == small_charged
    assert small_charged["counters"]["pages_scanned"] == 64
    assert small.stats.sim_ns == pytest.approx(
        sum(ns for ns, _ in small_charged["charges"])
    )


def test_the_slot_arrays_alone_would_have_failed_it(reads):
    """What the bound is worth: one int64 per column page, the smallest
    of the arrays a candidate used to allocate, is several times the
    whole read's peak on the small column."""
    _, small_peak, _ = reads[SMALL_PAGES]["discard"]
    assert 8 * (LARGE_PAGES - SMALL_PAGES) > 1.5 * small_peak
    assert reads[SMALL_PAGES]["views"] == reads[LARGE_PAGES]["views"] == 2
