"""Configuration of the adaptive storage layer.

Collects every knob the paper exposes: the discard tolerance ``d`` and
replacement tolerance ``r`` (Section 2.2, both 0 in all of the paper's
experiments), the maximum number of partial views per column, the query
routing mode (Section 2.1), and the two view-creation optimizations
(Section 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class EvictionPolicy(Enum):
    """What happens when a candidate arrives at the view limit."""

    #: The paper's policy: stop generating new partial views altogether
    #: once the limit is reached (Section 2.2).
    STOP = "stop"

    #: Extension: evict the least-recently-used partial view to admit
    #: the candidate; generation never stops.  Keeps the layer adaptive
    #: under workload drift (see the drift ablation).
    LRU = "lru"


class RoutingMode(Enum):
    """How incoming queries are routed to views (Section 2.1)."""

    #: Exactly one view answers the query; the smallest covering view wins.
    SINGLE = "single"

    #: Multiple partial views may jointly cover the query range; shared
    #: physical pages are scanned once (processed-pages bitvector).
    MULTI = "multi"

    #: Like MULTI, but the cover is chosen by cost: the selection
    #: minimizes the number of indexed pages and falls back to a single
    #: view when that is cheaper.  This implements the paper's stated
    #: future work ("we plan to base this decision on the covered value
    #: ranges and the number of indexed pages").
    MULTI_COST = "multi_cost"


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tuning knobs of one adaptive storage layer instance."""

    #: Discard tolerance ``d``: a candidate covering a *subset* of an
    #: existing view is discarded even if it indexes up to ``d`` pages
    #: fewer than that view.
    discard_tolerance: int = 0

    #: Replacement tolerance ``r``: a candidate covering a *superset* of
    #: an existing view replaces it if it indexes at most ``r`` pages
    #: more.
    replacement_tolerance: int = 0

    #: Maximum number of partial views kept per column.  Once reached,
    #: the generation of new partial views stops altogether and queries
    #: are answered from the static set (Section 2.2).
    max_views: int = 100

    #: Query routing mode (Section 2.1).
    mode: RoutingMode = RoutingMode.SINGLE

    #: Optimization 1 (Section 2.3): map consecutive qualifying physical
    #: pages in a single mmap() call.
    coalesce_mmap: bool = True

    #: Optimization 2 (Section 2.3): perform the mmap() calls in a
    #: separate mapping thread fed by a concurrent queue.
    background_mapping: bool = False

    #: Behaviour at the view limit (the paper stops generation; LRU
    #: eviction keeps adapting under drift).
    eviction: EvictionPolicy = EvictionPolicy.STOP

    def __post_init__(self) -> None:
        if self.discard_tolerance < 0:
            raise ValueError("discard tolerance must be non-negative")
        if self.replacement_tolerance < 0:
            raise ValueError("replacement tolerance must be non-negative")
        if self.max_views < 0:
            raise ValueError("max_views must be non-negative")
