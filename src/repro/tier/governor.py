"""The tier governor: hot-page budget enforcement.

Mirrors :class:`~repro.resilience.governor.MappingGovernor`, one level
down the stack: where the mapping governor keeps the *maps-line* count
under budget by evicting low-utility views, the tier governor keeps the
*hot-page* count under budget by demoting low-utility pages to the cold
tier.  Scan-driven promotion is the store's per-batch placement
decision, which reads this governor's victim order and journals its
denials here; :meth:`TierGovernor.admit` (demote-until-fits, else deny)
remains for the one promotion that may not be refused, a cold page
whose write-through refresh failed.  Enforcement runs at maintenance
after the hit counters decayed.

Demotions can fail — spilling a page is real I/O on the native backend
and a fault-injectable operation everywhere — so the governor carries a
*debt* counter: hot pages in excess of the budget that enforcement
could not yet place.  Debt is only ever non-zero after spill failures
(the audit plane checks exactly that) and clears as soon as a later
enforcement succeeds.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

import numpy as np

from ..vm.cost import MAIN_LANE, CostModel

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from .store import TieredPageStore


class TierGovernor:
    """Keeps one tiered store's hot-page count under its budget."""

    def __init__(self, store: "TieredPageStore") -> None:
        # Weak backref: the governor is only reachable through the
        # store, and a strong cycle would keep the store (and on the
        # native backend its whole-file mapping) alive past close until
        # a gc pass.
        self._store = weakref.proxy(store)
        #: Promotions refused because no victim could be demoted.
        self.denials = 0
        #: Hot pages in excess of the budget after a failed enforcement
        #: (non-zero only after spill failures).
        self.debt = 0
        #: Journal of admission denials (diagnostics / introspection).
        self.journal: list[dict[str, object]] = []

    @property
    def budget(self) -> int | None:
        """The hot-page budget (None = unlimited, never demote)."""
        return self._store.config.hot_budget

    def hot_count(self) -> int:
        """Hot pages currently resident."""
        return self._store.hot_count()

    def utilization(self) -> float:
        """Hot pages as a fraction of the budget (0.0 when unlimited)."""
        if self.budget is None:
            return 0.0
        return self.hot_count() / self.budget

    # -- victim selection -------------------------------------------------

    def victims(self) -> np.ndarray:
        """Hot pages ordered coldest-first.

        Utility order: fewest (decayed) hits, then least recently
        accessed, then lowest page number — the mirror of the mapping
        governor's ``(view_utility, last_used)`` key.
        """
        store = self._store
        hot_idx = np.nonzero(store.hot)[0]
        order = np.lexsort(
            (hot_idx, store.last_access[hot_idx], store.hits[hot_idx])
        )
        return hot_idx[order]

    # -- admission and enforcement ---------------------------------------

    def _demote_until(
        self, target: int, cost: CostModel | None, lane: str
    ) -> int:
        """Demote coldest-first until at most ``target`` pages are hot.

        Victims are ordered only when something must go.  A victim
        whose spill fails is skipped; returns the demotions done.
        """
        excess = self.hot_count() - target
        demoted = 0
        if excess > 0:
            for victim in self.victims().tolist():
                if demoted == excess:
                    break
                if self._store.demote(victim, cost, lane=lane):
                    demoted += 1
        return demoted

    def deny(self, npages: int) -> None:
        """Count and journal one refused promotion of ``npages`` pages."""
        self.denials += 1
        self.journal.append(
            {"action": "deny", "requested": npages, "hot": self.hot_count()}
        )

    def admit(
        self, npages: int, cost: CostModel | None, lane: str = MAIN_LANE
    ) -> bool:
        """May ``npages`` more pages enter the hot tier?

        Demotes coldest-first victims until the newcomers fit.  Returns
        False (and journals a denial) when no demotable victim remains,
        so the caller knows the budget will not hold.
        """
        if self.budget is None:
            return True
        self._demote_until(self.budget - npages, cost, lane)
        if self.hot_count() + npages <= self.budget:
            self._sync_debt()
            return True
        self.deny(npages)
        return False

    def enforce(
        self, cost: CostModel | None, lane: str = MAIN_LANE
    ) -> int:
        """Demote until the hot tier fits the budget; returns demotions.

        Victims whose spill fails are skipped; whatever excess remains
        afterwards is recorded as :attr:`debt` and retried at the next
        enforcement.
        """
        if self.budget is None:
            return 0
        demoted = self._demote_until(self.budget, cost, lane)
        self._sync_debt()
        return demoted

    def _sync_debt(self) -> None:
        """Recompute the over-budget debt from the current placement."""
        if self.budget is None:
            self.debt = 0
        else:
            self.debt = max(0, self.hot_count() - self.budget)
