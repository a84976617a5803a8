"""Tiered page storage: a hot/cold split beside a column's page store.

The paper assumes every physical page is resident; this package relaxes
that.  A :class:`TieredPageStore` is a tiered column's sidecar
(``PhysicalColumn.tier``): it splits the pages of the column's store
into a resident *hot* tier and a *cold* tier.  The tier is placement,
not a second copy: a cold page stays in the column's store, and its
reads, writes and moves are charged as far-tier I/O with their own
:class:`~repro.vm.cost.CostParameters` constants, the same on both
backends.  Placement is access-frequency driven (per-page hit counters,
decayed at maintenance); a :class:`~repro.budget.Budget` keeps the hot
pages under ``hot_budget`` the way another keeps maps lines under the
resilience plane's ``mapping_budget``.

A :class:`WriteBuffer` pairs with it on the ingest side: appends are
staged in a batched buffer and merged into the columns during
maintenance, so append-heavy workloads avoid per-row view realignment.

See ``docs/tiering.md``.
"""

from .buffer import WriteBuffer
from .config import TierConfig
from .store import TieredPageStore

__all__ = [
    "TierConfig",
    "TieredPageStore",
    "WriteBuffer",
]
