"""The tier's initial placement as a plain per-page loop: the parity
reference.

``TieredPageStore.initial_placement`` demotes the hot pages above the
budget, tail first, in one move (``TieredPageStore._demote``): the
fault plane is consulted per page in descending order until enough
pages spilled, and the spills are booked in one charge.  This file
states the rule as the loop it replaced — one page at a time through
the store's own one-page ``demote`` — so
``tests/tier/test_initial_placement.py`` can require equal placement,
counters, fault journals and ledgers from both.
"""

from __future__ import annotations

from repro.vm.cost import MAIN_LANE


def oracle_initial_placement(store, cost, lane: str = MAIN_LANE) -> None:
    """Demote down to budget, one page at a time, tail first."""
    budget = store.governor.budget
    if budget is None:
        return
    for fpage in range(store.num_pages - 1, -1, -1):
        if store.hot_count() <= budget:
            break
        store.demote(fpage, cost, lane=lane)
    store.governor._sync_debt()
    store._churn_mark = store.promotions + store.demotions
