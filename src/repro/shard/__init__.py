"""Sharded parallel execution: partitioned scatter-gather storage.

:class:`ShardedDatabase` exposes the familiar ``AdaptiveDatabase``
surface over N shards, and each shard *is* an ``AdaptiveDatabase`` on
its own substrate holding a page-aligned row slice of every table
(:mod:`repro.shard.partition`).  A :class:`ShardRouter` maps range
predicates to the shards they can touch, and a :class:`ShardedColumn`
scatters one column's queries over the routed shard databases and
gathers the slices back into global row order.

See ``docs/performance.md`` ("Sharded execution") for the measured
scaling and ``docs/architecture.md`` for where the layer sits.
"""

from .column import Shard, ShardedColumn
from .database import ShardedDatabase
from .partition import (
    ShardSpec,
    check_partition,
    plan_partition,
    shard_of_row,
)
from .router import ShardRouter

__all__ = [
    "Shard",
    "ShardRouter",
    "ShardSpec",
    "ShardedColumn",
    "ShardedDatabase",
    "check_partition",
    "plan_partition",
    "shard_of_row",
]
