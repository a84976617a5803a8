"""Build-then-decide: the candidate life cycle decide-first replaced.

Listing 1's retention decision once followed the build: every candidate
was reserved, planned, mapped run by run and only then judged, and a
discarded one was destroyed in the same call.  The production
``ViewIndex.consider_candidate`` decides first and books a discarded
candidate without mapping it (``repro.core.creation.book_discarded``).
:func:`oracle_consider_candidate` is the code it replaced: it builds an
unbuilt candidate first, then applies the retention policy as it stood.
:func:`build_first` patches it in for the production method, so a whole
stack runs build-first inside the ``with`` body.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator
from unittest import mock

from repro.core.config import EvictionPolicy
from repro.core.stats import ViewEvent
from repro.core.view import VirtualView
from repro.core.view_index import ViewIndex
from repro.vm.cost import MAIN_LANE


def oracle_consider_candidate(index: ViewIndex, candidate, lane: str = MAIN_LANE):
    """Build the candidate, then decide its fate and act in one pass."""
    if not isinstance(candidate, VirtualView):
        candidate = candidate.build(lane)
    if index.generation_stopped:
        event = index._journal(candidate, ViewEvent.LIMIT_REACHED)
        candidate.destroy(lane)
        return event

    if candidate.num_pages >= index.full_view.num_pages:
        event = index._journal(candidate, ViewEvent.DISCARDED_FULL)
        candidate.destroy(lane)
        return event

    d = index.config.discard_tolerance
    r = index.config.replacement_tolerance
    for partial in index._partials:
        if (
            partial.lo <= candidate.lo
            and candidate.hi <= partial.hi
            and candidate.num_pages >= partial.num_pages - d
        ):
            event = index._journal(
                candidate, ViewEvent.DISCARDED_SUBSET, other=partial
            )
            candidate.destroy(lane)
            return event
        if (
            candidate.lo <= partial.lo
            and partial.hi <= candidate.hi
            and candidate.num_pages <= partial.num_pages + r
        ):
            event = index._journal(candidate, ViewEvent.REPLACED, other=partial)
            index.replace(partial, candidate, lane)
            return event

    if index.num_partials >= index.config.max_views:
        if index.config.eviction is EvictionPolicy.LRU and index._partials:
            victim = min(
                index._partials,
                key=lambda v: index._last_used.get(id(v), 0),
            )
            event = index._journal(candidate, ViewEvent.EVICTED_LRU, other=victim)
            index.drop(victim, lane)
            index.insert(candidate)
            return event
        index.generation_stopped = True
        event = index._journal(candidate, ViewEvent.LIMIT_REACHED)
        candidate.destroy(lane)
        return event

    index.insert(candidate)
    if (
        index.num_partials >= index.config.max_views
        and index.config.eviction is EvictionPolicy.STOP
    ):
        index.generation_stopped = True
    return index._journal(candidate, ViewEvent.INSERTED)


@contextmanager
def build_first() -> Iterator[None]:
    """Run the ``with`` body with every candidate built before it is judged."""
    with mock.patch.object(
        ViewIndex, "consider_candidate", oracle_consider_candidate
    ):
        yield
