"""The maps-line budget as a plain eviction loop: the parity oracle.

``Budget`` (``repro/budget.py``) orders the victims once with a stable
sort and releases them in that order, re-reading usage after each
release.  This file states the same rule the slow way: one ``min``
over the current partial views per eviction, the line count re-read
from the substrate each time round the loop, and the floor check — a
request that could not fit with every partial view gone (the full
view's projected runs plus the request over the budget) is refused
before anything is evicted.  Denials and eviction counts land on the
layer's own budget object, so counters, journals and the status surface
compare directly.  ``tests/faults/test_fault_schedules.py`` runs
seeded sessions twice — once as shipped, once with :func:`install`
applied — and requires equal view histories, ledgers, counters and
fault journals.
"""

from __future__ import annotations

from functools import partial

from repro.core.stats import ViewEvent, view_utility
from repro.resilience import mapping_runs
from repro.vm.cost import MAIN_LANE


def _line_count(controller) -> int:
    substrate = controller.column.substrate
    return substrate.maps_line_count(substrate.file_map_path(controller.column.file))


def _evict_one(controller, lane: str) -> bool:
    """Evict the least useful partial view (lowest utility, then LRU)."""
    vi = controller.view_index
    partials = vi.partial_views
    if not partials:
        return False
    victim = min(
        partials,
        key=lambda v: (view_utility(vi.use_count(v), v.num_pages), vi.last_used(v)),
    )
    vi.record_decision(victim, ViewEvent.EVICTED_BUDGET)
    vi.drop(victim, lane)
    controller.governor.released += 1
    controller.observer.on_governor_eviction()
    return True


def oracle_admit(controller, amount: int, cost=None, lane: str = MAIN_LANE) -> bool:
    """Evict one view at a time until ``amount`` more lines fit."""
    governor = controller.governor
    budget = governor.budget
    if budget is None:
        return True
    floor = mapping_runs(controller.view_index.full_view.mapped_fpages())
    if _line_count(controller) + amount > budget and floor + amount > budget:
        governor.deny(amount)
        return False
    while _line_count(controller) + amount > budget:
        if not _evict_one(controller, lane):
            governor.deny(amount)
            return False
    governor.debt = 0
    return True


def oracle_enforce(controller, cost=None, lane: str = MAIN_LANE) -> int:
    """Evict one view at a time until the line count is within budget."""
    governor = controller.governor
    budget = governor.budget
    if budget is None:
        return 0
    evicted = 0
    while _line_count(controller) > budget:
        if not _evict_one(controller, lane):
            break
        evicted += 1
    governor.debt = max(0, _line_count(controller) - budget)
    return evicted


def install(layer) -> None:
    """Route ``layer``'s maps-line budget through the oracle."""
    controller = layer.resilience
    controller.governor.admit = partial(oracle_admit, controller)
    controller.governor.enforce = partial(oracle_enforce, controller)
