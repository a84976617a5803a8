"""The tier: hot/cold placement of one column's pages, beside its store.

A :class:`TieredPageStore` is a tiered column's sidecar
(``PhysicalColumn.tier``), not a page store: the column's ``file``
stays the one copy of every page, read and written with no
tier in between.  The charge sites ask the column for its tier and call
:meth:`~TieredPageStore.record_batch_access` /
:meth:`~TieredPageStore.record_access` /
:meth:`~TieredPageStore.record_write`, which charge far-tier latency
for cold pages, maintain the per-page hit counters, make one placement
decision per batch (:meth:`TieredPageStore._place`) and run the
maintenance tick once per column's worth of accesses.

The cold tier is placement, not a second copy: a cold page stays in
the column's store, and what makes it cold is the far-tier I/O its
reads, writes and moves are charged (``cold_read_ns`` /
``cold_write_ns``), the same on both backends.  Pages move in bulk: one
placement decision's demotions are one move
(:meth:`TieredPageStore._demote`) and its promotions another
(:meth:`TieredPageStore._promote`), each booked once; a per-page
``demote`` / ``_install_hot`` is a move of one.  Under an armed fault plane
(:func:`~repro.faults.plane.faults_armed`) spill reads and writes
consult it (``cold_read`` / ``cold_write`` operations) per page, with
bounded retries, else a batch's cold reads and spills are one charge
each; a cold read that stays failed is served near (queries never
fail), a demotion that stays failed is abandoned (the
page stays hot and the hot-page budget records the excess as debt).
"""

from __future__ import annotations

import weakref

import numpy as np

from ..budget import Budget
from ..faults.errors import SubstrateFault
from ..faults.plane import check_fault, faults_armed
from ..obs.observer import NULL_OBSERVER, NullObserver
from ..substrate.interface import PageStore, Substrate
from ..vm.cost import MAIN_LANE, CostModel
from .config import TierConfig


class TieredPageStore:
    """The hot/cold placement of one column's page store ``file``."""

    def __init__(
        self,
        file: PageStore,
        substrate: Substrate,
        config: TierConfig,
        observer: NullObserver | None = None,
    ) -> None:
        #: The column's page store, whose pages this tier places.
        self.file = file
        self._substrate = substrate
        self.config = config
        self.observer = observer or NULL_OBSERVER
        n = file.num_pages
        #: Tier membership: True = hot (resident), False = cold.
        self.hot = np.ones(n, dtype=bool)
        #: Decayed per-page hit counters (placement utility).
        self.hits = np.zeros(n, dtype=np.float64)
        #: Logical access clock per page (LRU tie-break).
        self.last_access = np.zeros(n, dtype=np.int64)
        self._clock = 0
        #: ``hot.sum()``, kept by :meth:`_demote` / :meth:`_promote` /
        #: :meth:`resize` (the ``tier-placement`` audit cross-checks it).
        self._hot_count = n
        #: Charged page accesses since the last :meth:`maintenance`.
        self._since_maintenance = 0
        # The hot-page budget reaches the store through a weak proxy: a
        # strong cycle would keep the store (and on the native backend
        # its whole-file mapping) alive past close until a gc pass.
        store = weakref.proxy(self)
        self.governor = Budget(
            "hot",
            config.hot_budget,
            usage=lambda: store._hot_count,
            victims=lambda: store._coldest_first(),
            release=lambda page, cost, lane: store.demote(
                int(page), cost, lane=lane
            ),
        )
        self.promotions = 0
        self.demotions = 0
        self.hot_hits = 0
        self.cold_hits = 0
        #: Demotions / cold-page writes whose far write failed.
        self.spill_failures = 0
        #: Cold reads served near after their far read failed (queries
        #: never fail on a broken far tier).
        self.read_fallbacks = 0
        #: Latched by maintenance when the last window moved at least
        #: ``thrash_threshold`` pages and more pages than it served hot.
        self.thrashing = False
        self._churn_mark = 0
        self._hot_hits_mark = 0

    @property
    def num_pages(self) -> int:
        """Pages the placement covers: the store's, kept by :meth:`resize`."""
        return self.hot.size

    def resize(self, num_pages: int) -> None:
        """Follow the store, already resized, to ``num_pages`` pages.

        New pages enter the hot tier (they are about to be written);
        the caller runs :meth:`maintenance` afterwards so the governor
        can demote down to budget again.
        """
        old = self.hot.size
        if num_pages > old:
            grow = num_pages - old
            self.hot = np.concatenate([self.hot, np.ones(grow, dtype=bool)])
            self.hits = np.concatenate([self.hits, np.zeros(grow)])
            self.last_access = np.concatenate(
                [self.last_access, np.zeros(grow, dtype=np.int64)]
            )
            self._hot_count += grow
        elif num_pages < old:
            self.hot = self.hot[:num_pages].copy()
            self.hits = self.hits[:num_pages].copy()
            self.last_access = self.last_access[:num_pages].copy()
            self._hot_count = int(self.hot.sum())

    # -- tier introspection -----------------------------------------------

    def hot_count(self) -> int:
        """Pages currently in the hot tier."""
        return self._hot_count

    def _coldest_first(self) -> np.ndarray:
        """Hot pages in demotion order: the hot-page budget's victims.

        Fewest (decayed) hits, then least recently accessed, then lowest
        page number — the mirror of the maps-line budget's
        ``(view_utility, last_used)`` key.
        """
        hot_idx = np.nonzero(self.hot)[0]
        order = np.lexsort(
            (hot_idx, self.last_access[hot_idx], self.hits[hot_idx])
        )
        return hot_idx[order]

    def hit_ratio(self) -> float:
        """Fraction of tier-accounted accesses served hot (1.0 if none)."""
        total = self.hot_hits + self.cold_hits
        if total == 0:
            return 1.0
        return self.hot_hits / total

    def tier_state(self) -> str:
        """Health contribution: ``"degraded"`` when thrashing or in debt."""
        if self.thrashing or self.governor.debt > 0:
            return "degraded"
        return "healthy"

    def tier_status(self) -> dict[str, object]:
        """Snapshot of placement and counters (status surfaces)."""
        hot = self.hot_count()
        return {
            "hot_pages": hot,
            "cold_pages": self.hot.size - hot,
            "hot_budget": self.governor.budget,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "hot_hits": self.hot_hits,
            "cold_hits": self.cold_hits,
            "hit_ratio": self.hit_ratio(),
            "denials": self.governor.denials,
            "debt": self.governor.debt,
            "spill_failures": self.spill_failures,
            "read_fallbacks": self.read_fallbacks,
            "thrashing": self.thrashing,
        }

    # -- tier accounting (the charge sites call these) --------------------

    def record_access(
        self,
        fpage: int,
        cost: CostModel | None,
        lane: str = MAIN_LANE,
        kind: str = "seq",
    ) -> None:
        """Account one read access to ``fpage``: a batch of one."""
        self.record_batch_access(
            np.array([fpage], dtype=np.int64), cost, lane=lane, kind=kind
        )

    def record_batch_access(
        self,
        fpages: np.ndarray,
        cost: CostModel | None,
        lane: str = MAIN_LANE,
        kind: str = "seq",
    ) -> None:
        """Account one scan's read accesses to the distinct ``fpages``.

        Hot pages cost nothing extra.  Cold pages pay the far-tier read
        latency — per page through the fault plane when one is armed
        (each cold read is one fault-plane op, with fallback), in one
        charge otherwise — and then the batch gets one placement
        decision (:meth:`_place`).  Every ``num_pages`` accounted
        accesses the batch also runs :meth:`maintenance`, so a
        read-only stream decays and enforces too.
        """
        fpages = np.asarray(fpages, dtype=np.int64)
        if fpages.size == 0:
            return
        self._clock += 1
        self.last_access[fpages] = self._clock
        self.hits[fpages] += 1.0
        cold_pages = fpages[~self.hot[fpages]]
        self.hot_hits += fpages.size - cold_pages.size
        if cold_pages.size:
            self.cold_hits += cold_pages.size
            if faults_armed(self._substrate):
                for fpage in cold_pages.tolist():
                    self._spill_read(fpage, cost, lane)
            elif cost is not None:
                cost.cold_read(cold_pages.size, lane)
            self._place(cold_pages, cost, lane)
        self._since_maintenance += fpages.size
        if self._since_maintenance >= self.hot.size:
            self.maintenance(cost, lane)

    def record_write(
        self, fpage: int, cost: CostModel | None, lane: str = MAIN_LANE
    ) -> None:
        """Account one in-place write to ``fpage``.

        The backend store was already mutated by the caller; a cold
        page's write is a far-tier write (:meth:`_spill`).  If it keeps
        failing, the page is pulled back hot (budget permitting via
        admission, over budget as governor debt otherwise): a far write
        that fails lands near.
        """
        self._clock += 1
        self.last_access[fpage] = self._clock
        self.hits[fpage] += 1.0
        if self.hot[fpage]:
            self.hot_hits += 1
            return
        self.cold_hits += 1
        if self._spill(np.array([fpage], dtype=np.int64), cost, lane)[0]:
            return
        # The far write failed: the page lands near.
        self.governor.admit(1, cost, lane)
        self._install_hot(fpage, cost, lane)
        self.governor._sync_debt()

    # -- spill I/O ---------------------------------------------------------

    def _spill_read(
        self, fpage: int, cost: CostModel | None, lane: str
    ) -> bool:
        """One far-tier page read; False = it failed and was served near."""
        for attempt in range(self.config.spill_retries + 1):
            try:
                check_fault(self._substrate, "cold_read")
            except SubstrateFault as fault:
                if fault.transient and attempt < self.config.spill_retries:
                    continue
                self.read_fallbacks += 1
                return False
            if cost is not None:
                cost.cold_read(1, lane)
            return True
        return False  # pragma: no cover - loop always returns

    def _spill(
        self,
        fpages: np.ndarray,
        cost: CostModel | None,
        lane: str,
        want: int | None = None,
    ) -> np.ndarray:
        """Write ``fpages`` to the far tier: consult and charge.

        With a fault plane armed each page's ``cold_write`` is consulted
        in order, with retries; a page whose spill stays failed is a
        spill failure and is not written.  With ``want`` set, pages are
        tried in order only until ``want`` of them passed.  The pages
        written are booked in one charge.  Returns the mask of pages
        written.
        """
        written = np.zeros(fpages.size, dtype=bool)
        if not faults_armed(self._substrate):
            written[:want] = True
        else:
            passed = 0
            for i in range(fpages.size):
                if passed == want:
                    break
                if self._cold_write_passes():
                    written[i] = True
                    passed += 1
                else:
                    self.spill_failures += 1
        count = int(np.count_nonzero(written))
        if count and cost is not None:
            cost.cold_write(count, lane)
        return written

    def _cold_write_passes(self) -> bool:
        """Consult the fault plane for one page's spill write."""
        for attempt in range(self.config.spill_retries + 1):
            try:
                check_fault(self._substrate, "cold_write")
            except SubstrateFault as fault:
                if fault.transient and attempt < self.config.spill_retries:
                    continue
                return False
            return True
        return False  # pragma: no cover - loop always returns

    # -- placement changes -------------------------------------------------

    def demote(
        self, fpage: int, cost: CostModel | None, lane: str = MAIN_LANE
    ) -> bool:
        """Move ``fpage`` to the cold tier: a :meth:`_demote` of one.

        The hot-page budget's release callback.  Returns False when the
        page's spill failed (it stays hot).
        """
        if not self.hot[fpage]:
            return True
        return bool(self._demote(np.array([fpage], dtype=np.int64), cost, lane)[0])

    def _demote(
        self,
        fpages: np.ndarray,
        cost: CostModel | None,
        lane: str,
        want: int | None = None,
    ) -> np.ndarray:
        """Move the hot ``fpages`` to the cold tier in one move.

        Spill-first ordering: a page's hot bit only flips after its far
        write passed, so a page whose spill failed stays hot and the
        placement consistent.  ``want`` as in :meth:`_spill`.
        Returns the mask of pages moved.
        """
        with self.observer.span("tier.demote", pages=int(fpages.size)):
            moved = self._spill(fpages, cost, lane, want)
            pages = fpages[moved]
            self.hot[pages] = False
            self._hot_count -= pages.size
            self.demotions += pages.size
            self.observer.on_tier_demotions(pages)
        return moved

    def _place(
        self, cold_pages: np.ndarray, cost: CostModel | None, lane: str
    ) -> None:
        """One placement decision for the cold pages of one batch.

        Candidates are the pages that earned ``promote_after`` hits,
        hottest first.  They fill free room first; the rest are paired
        against the governor's victims (coldest first, ordered once,
        before any page of this batch turned hot) and a pair swaps only
        while the candidate has *strictly* more hits — equal counters
        mean one scan touched both, which is no evidence.  Both sides
        are sorted, so the winning pairs are a prefix.  The winning
        victims leave in one move, then the free-room candidates and
        the candidates whose victim left enter in one move.  A victim
        whose spill stays failed stays hot and its candidate is denied.
        """
        hits = self.hits[cold_pages]
        earned = hits >= self.config.promote_after
        if not earned.any():
            return
        cold_pages, hits = cold_pages[earned], hits[earned]
        order = np.lexsort((cold_pages, -hits))
        candidates, hits = cold_pages[order], hits[order]
        budget = self.governor.budget
        room = (
            candidates.size
            if budget is None
            else max(budget - self._hot_count, 0)
        )
        entering = candidates[:room]
        paired = candidates[room:]
        denied = 0
        if paired.size:
            victims = self.governor.victims()[: paired.size]
            wins = hits[room : room + victims.size] > self.hits[victims]
            victims = victims[: int(np.argmin(np.append(wins, False)))]
            if victims.size:
                moved = self._demote(victims, cost, lane)
                entering = np.concatenate(
                    [entering, paired[: victims.size][moved]]
                )
                denied = victims.size - int(np.count_nonzero(moved))
        self._promote(entering, cost, lane)
        for _ in range(denied):
            self.governor.deny(1)
        self.governor._sync_debt()

    def _install_hot(
        self, fpage: int, cost: CostModel | None, lane: str
    ) -> None:
        """Move ``fpage`` into the hot tier: a :meth:`_promote` of one."""
        self._promote(np.array([fpage], dtype=np.int64), cost, lane)

    def _promote(
        self, fpages: np.ndarray, cost: CostModel | None, lane: str
    ) -> None:
        """Move the cold ``fpages`` into the hot tier in one move
        (admission already decided)."""
        if not fpages.size:
            return
        with self.observer.span("tier.promote", pages=int(fpages.size)):
            if cost is not None:
                cost.promote(fpages.size, lane)
            self.hot[fpages] = True
            self._hot_count += fpages.size
            self.promotions += fpages.size
            self.observer.on_tier_promotions(fpages)

    # -- lifecycle ---------------------------------------------------------

    def initial_placement(
        self, cost: CostModel | None, lane: str = MAIN_LANE
    ) -> None:
        """Demote down to budget at wrap time.

        With no access history yet, tail pages demote first: scans
        start at page 0, so keeping the prefix resident is the neutral
        deterministic default; a page whose spill fails stays hot and
        the next lower page goes instead.  The demotions are one move,
        and they are set-up, not churn: the thrash window starts after
        them.
        """
        budget = self.governor.budget
        if budget is None:
            return
        excess = self._hot_count - budget
        if excess > 0:
            descending = np.flatnonzero(self.hot)[::-1]
            self._demote(descending, cost, lane, want=excess)
        self.governor._sync_debt()
        self._churn_mark = self.promotions + self.demotions

    def maintenance(
        self, cost: CostModel | None, lane: str = MAIN_LANE
    ) -> dict[str, object]:
        """Decay hit counters, enforce the budget, update thrash state.

        Called by update alignment, write-buffer merges and — once per
        ``num_pages`` accounted accesses — by the access path itself.
        The window it closes is thrashing iff the tier moved at least
        ``thrash_threshold`` pages *and* at least as many pages as it
        served hot: judged by work, not by count.
        """
        self._since_maintenance = 0
        self.hits *= self.config.decay
        demoted = self.governor.enforce(cost, lane=lane)
        churn = (self.promotions + self.demotions) - self._churn_mark
        served = self.hot_hits - self._hot_hits_mark
        self._churn_mark += churn
        self._hot_hits_mark = self.hot_hits
        threshold = self.config.thrash_threshold
        self.thrashing = (
            threshold is not None and churn >= threshold and churn >= served
        )
        hot = self._hot_count
        self.observer.on_tier_maintenance(
            hot, self.hot.size - hot, self.hit_ratio()
        )
        return {"demoted": demoted, "churn": churn, "thrashing": self.thrashing}
