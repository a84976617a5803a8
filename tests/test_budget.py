"""The budget contract, once over both of its instances.

A :class:`~repro.budget.Budget` caps maps lines per column (the
resilience layer's ``governor``, victims are partial views) and hot
pages per tiered store (the store's ``governor``, victims are hot
pages).  Every case here runs against both, each on a live database:
admission releases victims in order until the request fits, a request
that could never fit is refused with nothing released, enforcement
orders victims only when over capacity, what cannot be released is
debt, and an unlimited budget has no utilization.
"""

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.resilience import ResilienceConfig
from repro.tier import TierConfig
from repro.vm.constants import VALUES_PER_PAGE

NUM_PAGES = 16
NUM_ROWS = NUM_PAGES * VALUES_PER_PAGE


def _page_range(fpage):
    """A value range that qualifies exactly page ``fpage`` of an arange."""
    lo = fpage * VALUES_PER_PAGE
    return lo, lo + VALUES_PER_PAGE - 1


class MapsLines:
    """Four one-page views over pages 0, 4, 8, 12: five maps lines.

    Pages 0 and 8 are asked for three more times, page 12 once, page 4
    never, so the victim order (lowest utility, then least recently
    used) is 4, 12, 0, 8.  The full view's one line is the floor.
    """

    floor = 1
    order = [4, 12, 0, 8]
    #: Room to build the views without evicting any.
    capacity = 64

    def __init__(self, capacity):
        self.db = AdaptiveDatabase(
            config=AdaptiveConfig(background_mapping=False),
            resilience=ResilienceConfig(mapping_budget=capacity, seed=0),
        )
        self.db.create_table("t", {"x": np.arange(NUM_ROWS, dtype=np.int64)})
        self.layer = self.db.layer("t", "x")
        for page in (0, 4, 8, 12):
            self.db.query("t", "x", *_page_range(page))
        for _ in range(3):
            for page in (0, 8):
                self.db.query("t", "x", *_page_range(page))
        self.db.query("t", "x", *_page_range(12))
        self.governor = self.layer.resilience.governor
        assert self.layer.view_index.num_partials == 4

    def key(self, view):
        (page,) = view.mapped_fpages().tolist()
        return page

    def held(self):
        return {self.key(v) for v in self.layer.view_index.partial_views}


class HotPages:
    """Pages 0-3 hot under a budget of four, planted hits 3, 1, 2, 1.

    Pages 1 and 3 tie on hits; page 3 was accessed earlier, so the
    victim order (fewest hits, then least recent, then lowest page) is
    3, 1, 2, 0.  No hot page is exempt: the floor is 0.
    """

    floor = 0
    order = [3, 1, 2, 0]
    #: Set-up demotes the tail: pages 0-3 stay hot.
    capacity = 4

    def __init__(self, capacity):
        values = np.random.default_rng(7).integers(
            0, 1_000_000, size=NUM_ROWS, dtype=np.int64
        )
        self.db = AdaptiveDatabase(
            config=AdaptiveConfig(background_mapping=False),
            tiering=TierConfig(hot_budget=capacity),
        )
        self.db.create_table("t", {"x": values})
        self.store = self.db.table("t").column("x").tier
        self.store.hits[:4] = [3.0, 1.0, 2.0, 1.0]
        self.store.last_access[:4] = [4, 2, 3, 1]
        self.governor = self.store.governor

    def key(self, page):
        return int(page)

    def held(self):
        return set(np.nonzero(self.store.hot)[0].tolist())


INSTANCES = {"maps_lines": MapsLines, "hot_pages": HotPages}


@pytest.fixture(params=list(INSTANCES))
def kind(request):
    return request.param


def _make(kind, limited=True):
    """An instance whose budget is exactly full, or unlimited."""
    cls = INSTANCES[kind]
    instance = cls(cls.capacity if limited else None)
    if limited:
        # The budget read its capacity once, at construction; the
        # attribute it keeps is what the cases tighten.
        instance.governor.budget = instance.governor.usage()
    return instance


@pytest.fixture
def full(kind):
    instance = _make(kind)
    yield instance
    instance.db.close()


class TestBudgetContract:
    def test_victim_order(self, full):
        """Maps lines: lowest utility (hits × pages) first, ties least
        recently used, never the full view.  Hot pages: fewest hits,
        then least recently accessed, then lowest page."""
        governor = full.governor
        assert [full.key(v) for v in governor.victims()] == full.order
        governor.budget -= 2
        assert governor.enforce() == 2
        assert full.held() == set(full.order[2:])
        assert full.db.audit().ok

    def test_admit_releases_in_victim_order_until_the_request_fits(self, full):
        governor = full.governor
        assert governor.admit(2) is True
        assert full.held() == set(full.order[2:])
        assert governor.usage() + 2 <= governor.budget
        assert (governor.released, governor.denials, governor.debt) == (2, 0, 0)

    def test_oversized_request_is_denied_with_nothing_released(self, full):
        """``floor + amount > capacity`` can never fit: refused before a
        single victim goes.  One unit less fits once every victim is
        gone."""
        governor = full.governor
        usage = governor.usage()
        oversized = governor.budget - full.floor + 1
        assert governor.admit(oversized) is False
        assert full.held() == set(full.order)
        assert governor.usage() == usage
        assert (governor.released, governor.denials) == (0, 1)
        assert governor.journal[-1] == {
            "action": "deny",
            "requested": oversized,
            governor.resource: usage,
        }
        assert governor.admit(oversized - 1) is True
        assert full.held() == set()
        assert governor.released == len(full.order)

    def test_enforce_orders_victims_only_when_over_capacity(self, full):
        governor = full.governor
        calls = []
        victims = governor._victims
        governor._victims = lambda: calls.append(1) or victims()
        assert governor.enforce() == 0
        assert calls == []
        governor.budget -= 2
        assert governor.enforce() == 2
        assert calls == [1]
        assert governor.usage() == governor.budget
        assert full.held() == set(full.order[2:])

    @pytest.mark.parametrize("failure", ["release_fails", "no_victim_left"])
    def test_what_cannot_be_released_is_debt(self, full, failure):
        governor = full.governor
        saved = governor._release, governor._victims
        if failure == "release_fails":
            governor._release = lambda victim, cost, lane: False
        else:
            governor._victims = lambda: []
        governor.budget -= 1
        assert governor.enforce() == 0
        assert governor.debt == 1
        assert full.held() == set(full.order)
        governor._release, governor._victims = saved
        assert governor.enforce() == 1
        assert governor.debt == 0

    def test_utilization_is_none_when_unlimited(self, kind):
        unlimited = _make(kind, limited=False)
        try:
            governor = unlimited.governor
            assert governor.budget is None
            assert governor.utilization() is None
            assert governor.admit(10**6) is True
            assert governor.enforce() == 0
            assert governor.released == governor.denials == governor.debt == 0
        finally:
            unlimited.db.close()

    def test_utilization_is_usage_over_capacity(self, full):
        governor = full.governor
        assert governor.utilization() == 1.0
        governor.budget *= 2
        assert governor.utilization() == 0.5
