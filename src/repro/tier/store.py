"""The tiered page store: a hot/cold proxy over any backend store.

:class:`TieredPageStore` wraps a backend page store (simulated or
native, possibly already wrapped by the fault plane) and satisfies the
same :class:`~repro.substrate.interface.PageStore` protocol, so views,
snapshots, the auditor and both substrates use it unchanged.  The
*passive* surface (``data``, ``headers``, ``page_values``, ...) is pure
delegation — the wrapped store stays the authoritative copy of every
page, which keeps audits, ``peek_virtual`` and copy-on-write snapshots
free and exact.  Tier accounting happens only at the explicit charge
sites: the scan/read/write paths call :meth:`record_batch_access` /
:meth:`record_access` / :meth:`record_write`, which charge far-tier
latency for cold pages, maintain the per-page hit counters, make one
placement decision per batch (:meth:`TieredPageStore._place`) and run
the maintenance tick once per column's worth of accesses.

The cold tier is a :class:`ColdStore`: a shadow copy of every demoted
page, charged as far-tier I/O (``cold_read_ns`` / ``cold_write_ns``) on
the simulator and written through to a real on-disk spill file on the
native backend.  Spill reads and writes consult the fault plane
(``cold_read`` / ``cold_write`` operations) with bounded retries; a
cold read that stays failed falls back to the resident copy (queries
never fail), a demotion that stays failed is abandoned (the page stays
hot and the hot-page budget records the excess as debt).
"""

from __future__ import annotations

import os
import weakref

import numpy as np

from ..budget import Budget
from ..faults.errors import SubstrateFault
from ..faults.plane import check_fault
from ..obs.observer import NULL_OBSERVER, NullObserver
from ..substrate.interface import PageStore, Substrate
from ..vm.cost import MAIN_LANE, CostModel
from .config import TierConfig


class ColdStore:
    """The far tier: shadow copies of every demoted page.

    Always keeps an in-memory copy per cold page (the simulated far
    tier and the audit plane's ground truth); with ``spill_dir`` set
    (native backend) every write additionally lands in a real on-disk
    spill file, and reads come back from that file — so the native cold
    tier genuinely round-trips through the filesystem.
    """

    def __init__(
        self, name: str, slots_per_page: int, spill_dir: str | None = None
    ) -> None:
        self.slots_per_page = slots_per_page
        self._page_bytes = slots_per_page * 8
        self._pages: dict[int, np.ndarray] = {}
        self.path: str | None = None
        self._fh = None
        if spill_dir is not None:
            self.path = os.path.join(
                spill_dir, f"{name.replace(os.sep, '_')}.cold"
            )
            self._fh = open(self.path, "w+b")

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, fpage: int) -> bool:
        return fpage in self._pages

    def pages(self) -> list[int]:
        """Cold page numbers, ascending."""
        return sorted(self._pages)

    def write_page(self, fpage: int, values: np.ndarray) -> None:
        """Store (or refresh) the cold copy of ``fpage``."""
        copy = np.array(values, dtype=np.int64, copy=True)
        if copy.size != self.slots_per_page:
            raise ValueError(
                f"page {fpage}: expected {self.slots_per_page} values, "
                f"got {copy.size}"
            )
        self._pages[fpage] = copy
        if self._fh is not None:
            self._fh.seek(fpage * self._page_bytes)
            self._fh.write(copy.tobytes())
            self._fh.flush()

    def read_page(self, fpage: int) -> np.ndarray:
        """The cold copy of ``fpage`` (from the spill file when real)."""
        if fpage not in self._pages:
            raise KeyError(f"page {fpage} is not in the cold tier")
        if self._fh is not None:
            self._fh.seek(fpage * self._page_bytes)
            raw = self._fh.read(self._page_bytes)
            return np.frombuffer(raw, dtype=np.int64).copy()
        return self._pages[fpage].copy()

    def drop_page(self, fpage: int) -> None:
        """Forget the cold copy (the page was promoted)."""
        self._pages.pop(fpage, None)

    def close(self) -> None:
        """Release the spill file, if any."""
        self._pages.clear()
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            if self.path is not None and os.path.exists(self.path):
                os.unlink(self.path)


class TieredPageStore:
    """A page store whose pages live in a hot or a cold tier.

    Conforms to the :class:`~repro.substrate.interface.PageStore`
    protocol by delegation; see the module docstring for the split
    between the passive surface and the tier-accounted charge sites.
    """

    def __init__(
        self,
        inner: PageStore,
        substrate: Substrate,
        config: TierConfig,
        observer: NullObserver | None = None,
        spill_dir: str | None = None,
    ) -> None:
        self._inner = inner
        self._substrate = substrate
        self.config = config
        self.observer = observer or NULL_OBSERVER
        n = inner.num_pages
        #: Tier membership: True = hot (resident), False = cold.
        self.hot = np.ones(n, dtype=bool)
        #: Decayed per-page hit counters (placement utility).
        self.hits = np.zeros(n, dtype=np.float64)
        #: Logical access clock per page (LRU tie-break).
        self.last_access = np.zeros(n, dtype=np.int64)
        self._clock = 0
        #: ``hot.sum()``, kept by :meth:`demote` / :meth:`_install_hot` /
        #: :meth:`resize` (the ``tier-placement`` audit cross-checks it).
        self._hot_count = n
        #: Charged page accesses since the last :meth:`maintenance`.
        self._since_maintenance = 0
        self.cold = ColdStore(
            inner.name, inner.slots_per_page, spill_dir=spill_dir
        )
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
        #: Demotions / cold-copy refreshes abandoned on spill failure.
        self.spill_failures = 0
        #: Cold reads served from the resident copy after spill-read
        #: failure (queries never fail on a broken far tier).
        self.read_fallbacks = 0
        #: Latched by maintenance when the last window moved at least
        #: ``thrash_threshold`` pages and more pages than it served hot.
        self.thrashing = False
        self._churn_mark = 0
        self._hot_hits_mark = 0

    # -- the page-store surface (pure delegation) -------------------------

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    # What every read asks for, given directly: ``__getattr__`` runs
    # only after a failed lookup, which costs more than the read itself.
    data = property(lambda self: self._inner.data)
    headers = property(lambda self: self._inner.headers)
    num_pages = property(lambda self: self._inner.num_pages)
    slots_per_page = property(lambda self: self._inner.slots_per_page)

    def resize(self, num_pages: int) -> None:
        """Resize the backend store and grow the placement arrays.

        New pages enter the hot tier (they are about to be written);
        the caller runs :meth:`maintenance` afterwards so the governor
        can demote down to budget again.
        """
        old = self._inner.num_pages
        self._inner.resize(num_pages)
        if num_pages > old:
            grow = num_pages - old
            self.hot = np.concatenate([self.hot, np.ones(grow, dtype=bool)])
            self.hits = np.concatenate([self.hits, np.zeros(grow)])
            self.last_access = np.concatenate(
                [self.last_access, np.zeros(grow, dtype=np.int64)]
            )
            self._hot_count += grow
        elif num_pages < old:
            for fpage in range(num_pages, old):
                self.cold.drop_page(fpage)
            self.hot = self.hot[:num_pages].copy()
            self.hits = self.hits[:num_pages].copy()
            self.last_access = self.last_access[:num_pages].copy()
            self._hot_count = int(self.hot.sum())

    def set_page_id(self, page: int, page_id: int) -> None:
        self._inner.set_page_id(page, page_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TieredPageStore({self._inner!r})"

    # -- tier introspection -----------------------------------------------

    def tier_of(self, fpage: int) -> str:
        """Which tier ``fpage`` lives in (``"hot"`` or ``"cold"``).

        Also the duck-typing marker the audit and resilience planes use
        to detect a tiered store.
        """
        return "hot" if self.hot[fpage] else "cold"

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
            "cold_pages": int(self._inner.num_pages) - hot,
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
            "spill_path": self.cold.path,
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
            if getattr(self._substrate, "_check", None) is None:
                if cost is not None:
                    cost.cold_read(cold_pages.size, lane)
            else:
                for fpage in cold_pages.tolist():
                    self._spill_read(fpage, cost, lane)
            self._place(cold_pages, cost, lane)
        self._since_maintenance += fpages.size
        if self._since_maintenance >= self.hot.size:
            self.maintenance(cost, lane)

    def record_write(
        self, fpage: int, cost: CostModel | None, lane: str = MAIN_LANE
    ) -> None:
        """Account one in-place write to ``fpage``.

        The backend store was already mutated by the caller; a cold
        page's shadow copy is refreshed write-through so the cold tier
        never holds stale contents.  If the refresh keeps failing, the
        page is pulled back hot (budget permitting via admission, over
        budget as governor debt otherwise) — a stale cold copy is the
        one state the tier invariant forbids.
        """
        self._clock += 1
        self.last_access[fpage] = self._clock
        self.hits[fpage] += 1.0
        if self.hot[fpage]:
            self.hot_hits += 1
            return
        self.cold_hits += 1
        if self._spill_write(fpage, cost, lane):
            return
        # Write-through refresh failed: promote rather than go stale.
        self.spill_failures += 1
        self.governor.admit(1, cost, lane)
        self._install_hot(fpage, cost, lane)
        self.governor._sync_debt()

    # -- spill I/O ---------------------------------------------------------

    def _spill_read(
        self, fpage: int, cost: CostModel | None, lane: str
    ) -> bool:
        """One far-tier page read; False = fell back to the resident copy."""
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

    def _spill_write(
        self, fpage: int, cost: CostModel | None, lane: str
    ) -> bool:
        """Write ``fpage``'s current contents to the cold tier."""
        for attempt in range(self.config.spill_retries + 1):
            try:
                check_fault(self._substrate, "cold_write")
            except SubstrateFault as fault:
                if fault.transient and attempt < self.config.spill_retries:
                    continue
                return False
            if cost is not None:
                cost.cold_write(1, lane)
            self.cold.write_page(
                fpage, np.asarray(self._inner.page_values(fpage))
            )
            return True
        return False  # pragma: no cover - loop always returns

    # -- placement changes -------------------------------------------------

    def demote(
        self, fpage: int, cost: CostModel | None, lane: str = MAIN_LANE
    ) -> bool:
        """Spill ``fpage`` and move it to the cold tier.

        Spill-first ordering: the hot bit only flips after the cold
        copy materialized, so a failed spill leaves the page hot and
        the placement consistent.  Returns False on spill failure.
        """
        if not self.hot[fpage]:
            return True
        with self.observer.span("tier.demote", fpage=int(fpage)):
            if not self._spill_write(fpage, cost, lane):
                self.spill_failures += 1
                return False
            self.hot[fpage] = False
            self._hot_count -= 1
            self.demotions += 1
            self.observer.on_tier_demotion(int(fpage))
        return True

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
        are sorted, so the winning pairs are a prefix.  A victim whose
        spill stays failed stays hot and its candidate is denied.
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
        paired = candidates[room:]
        victims = paired[:0]
        if paired.size:
            victims = self.governor.victims()[: paired.size]
            wins = hits[room : room + victims.size] > self.hits[victims]
            victims = victims[: int(np.argmin(np.append(wins, False)))]
        for fpage in candidates[:room].tolist():
            self._install_hot(fpage, cost, lane)
        for fpage, victim in zip(paired.tolist(), victims.tolist()):
            if self.demote(victim, cost, lane=lane):
                self._install_hot(fpage, cost, lane)
            else:
                self.governor.deny(1)
        self.governor._sync_debt()

    def _install_hot(
        self, fpage: int, cost: CostModel | None, lane: str
    ) -> None:
        """Move ``fpage`` into the hot tier (admission already decided)."""
        with self.observer.span("tier.promote", fpage=int(fpage)):
            if cost is not None:
                cost.promote(1, lane)
            self.cold.drop_page(fpage)
            self.hot[fpage] = True
            self._hot_count += 1
            self.promotions += 1
            self.observer.on_tier_promotion(int(fpage))

    # -- lifecycle ---------------------------------------------------------

    def initial_placement(
        self, cost: CostModel | None, lane: str = MAIN_LANE
    ) -> None:
        """Demote down to budget at wrap time.

        With no access history yet, tail pages demote first: scans
        start at page 0, so keeping the prefix resident is the neutral
        deterministic default.  These demotions are set-up, not churn:
        the thrash window starts after them.
        """
        budget = self.governor.budget
        if budget is None:
            return
        for fpage in range(self._inner.num_pages - 1, -1, -1):
            if self._hot_count <= budget:
                break
            self.demote(fpage, cost, lane=lane)
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
            hot, int(self._inner.num_pages) - hot, self.hit_ratio()
        )
        return {"demoted": demoted, "churn": churn, "thrashing": self.thrashing}

    def close(self) -> None:
        """Release the cold tier (spill file included)."""
        self.cold.close()
