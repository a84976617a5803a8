"""The tier: hot/cold placement of one column's pages, beside its store.

A :class:`TieredPageStore` is a tiered column's sidecar
(``PhysicalColumn.tier``), not a page store: the column's ``file``
stays the authoritative copy of every page, read and written with no
tier in between.  The charge sites ask the column for its tier and call
:meth:`~TieredPageStore.record_batch_access` /
:meth:`~TieredPageStore.record_access` /
:meth:`~TieredPageStore.record_write`, which charge far-tier latency
for cold pages, maintain the per-page hit counters, make one placement
decision per batch (:meth:`TieredPageStore._place`) and run the
maintenance tick once per column's worth of accesses.

The cold tier is a :class:`ColdStore`: one page-indexed far copy of
every demoted page, charged as far-tier I/O (``cold_read_ns`` /
``cold_write_ns``) on the simulator and written through to a real
on-disk spill file on the native backend.  Pages move in bulk: one
placement decision's demotions are one move
(:meth:`TieredPageStore._demote`) and its promotions another
(:meth:`TieredPageStore._promote`), each booked once, and a demote
copies each run of consecutive pages once; a per-page ``demote`` /
``_install_hot`` is a move of one.  Under an armed fault plane
(:func:`~repro.faults.plane.faults_armed`) spill reads and writes
consult it (``cold_read`` / ``cold_write`` operations) per page, with
bounded retries, else a batch's cold reads and spills are one charge
each; a cold read that stays failed falls back to the resident copy
(queries never fail), a demotion that stays failed is abandoned (the
page stays hot and the hot-page budget records the excess as debt).
"""

from __future__ import annotations

import os
import weakref

import numpy as np

from ..budget import Budget
from ..faults.errors import SubstrateFault
from ..faults.plane import check_fault, faults_armed
from ..obs.observer import NULL_OBSERVER, NullObserver
from ..substrate.interface import PageStore, Substrate
from ..vm.cost import MAIN_LANE, CostModel
from .config import TierConfig


#: Pages per chunk of the simulated far store (64 KiB of values).  A
#: chunk is small enough that the allocator serves it from, and takes it
#: back into, its heap.  One array the size of the column was a fresh
#: mapping at every set-up, and faulting its pages in cost more than
#: the copies.
_CHUNK_PAGES = 16


class ColdStore:
    """The far tier: one page-indexed copy of every demoted page.

    Page ``p``'s copy lives at row ``p % 16`` of chunk ``p // 16`` on
    the simulated backend, a chunk being allocated when a page of it is
    first written; with ``spill_dir`` set (native backend) it lives at
    byte ``p * page_bytes`` of a real on-disk spill file, and reads come
    back from that file — so the native cold tier genuinely round-trips
    through the filesystem.  A write copies each run of consecutive
    pages once: one slice assignment per chunk the run covers, or one
    vectored ``pwritev`` on an unbuffered descriptor (nothing to flush).
    The far store keeps its own record of which pages hold a copy, which
    the ``tier-placement`` audit checks against the store's hot bits.
    """

    def __init__(
        self,
        name: str,
        slots_per_page: int,
        num_pages: int,
        spill_dir: str | None = None,
    ) -> None:
        self.slots_per_page = slots_per_page
        self._page_bytes = slots_per_page * 8
        #: Which pages hold a far copy.
        self._held = np.zeros(num_pages, dtype=bool)
        self._chunks: list[np.ndarray | None] | None = None
        self.path: str | None = None
        self._fd = -1
        if spill_dir is None:
            self._chunks = [None] * -(-num_pages // _CHUNK_PAGES)
        else:
            self.path = os.path.join(
                spill_dir, f"{name.replace(os.sep, '_')}.cold"
            )
            self._fd = os.open(
                self.path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o600
            )
            self._iov_max = os.sysconf("SC_IOV_MAX")

    def __len__(self) -> int:
        return int(np.count_nonzero(self._held))

    def __contains__(self, fpage: int) -> bool:
        return 0 <= fpage < self._held.size and bool(self._held[fpage])

    def pages(self) -> list[int]:
        """Cold page numbers, ascending."""
        return np.flatnonzero(self._held).tolist()

    def write(self, fpages: np.ndarray, data: np.ndarray) -> None:
        """Store (or refresh) the copies of ``fpages`` from ``data``, a
        ``(pages, slots)`` page array: one copy per run of pages."""
        fpages = np.sort(fpages)
        breaks = np.flatnonzero(np.diff(fpages) != 1) + 1
        firsts = fpages[np.concatenate(([0], breaks))].tolist()
        ends = (fpages[np.concatenate((breaks - 1, [-1]))] + 1).tolist()
        copy = self._pwrite if self._chunks is None else self._copy
        for first, end in zip(firsts, ends):
            copy(data, first, end)
        self._held[fpages] = True

    def _copy(self, data: np.ndarray, first: int, end: int) -> None:
        """Copy pages ``first .. end - 1`` into their chunks."""
        while first < end:
            index, row = divmod(first, _CHUNK_PAGES)
            stop = min(end, first - row + _CHUNK_PAGES)
            chunk = self._chunks[index]
            if chunk is None:
                chunk = self._chunks[index] = np.empty(
                    (_CHUNK_PAGES, self.slots_per_page), dtype=np.int64
                )
            chunk[row : row + stop - first] = data[first:stop]
            first = stop

    def _pwrite(self, data: np.ndarray, first: int, end: int) -> None:
        """Write pages ``first .. end - 1`` at their spill-file offsets."""
        for lo in range(first, end, self._iov_max):
            rows = list(data[lo : min(end, lo + self._iov_max)])
            size = len(rows) * self._page_bytes
            if os.pwritev(self._fd, rows, lo * self._page_bytes) != size:
                raise OSError(f"short write to spill file {self.path}")

    def read_page(self, fpage: int) -> np.ndarray:
        """The cold copy of ``fpage`` (from the spill file when real)."""
        if fpage not in self:
            raise KeyError(f"page {fpage} is not in the cold tier")
        if self._chunks is not None:
            index, row = divmod(fpage, _CHUNK_PAGES)
            return self._chunks[index][row].copy()
        raw = os.pread(self._fd, self._page_bytes, fpage * self._page_bytes)
        return np.frombuffer(raw, dtype=np.int64).copy()

    def drop(self, fpages: np.ndarray) -> None:
        """Forget the copies of ``fpages`` (they were promoted)."""
        self._held[fpages] = False

    def resize(self, num_pages: int) -> None:
        """Follow the store to ``num_pages`` pages: a shrink forgets the
        cut pages' copies, a growth makes room for the new pages."""
        held = self._held[:num_pages]
        self._held = np.zeros(num_pages, dtype=bool)
        self._held[: held.size] = held
        if self._chunks is not None:
            count = -(-num_pages // _CHUNK_PAGES)
            self._chunks = self._chunks[:count] + [None] * (count - len(self._chunks))

    def close(self) -> None:
        """Release the far copies (the spill file included, if any)."""
        self._held = self._held[:0]
        self._chunks = None if self._chunks is None else []
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1
            if self.path is not None and os.path.exists(self.path):
                os.unlink(self.path)


class TieredPageStore:
    """The hot/cold placement of one column's page store ``file``."""

    def __init__(
        self,
        file: PageStore,
        substrate: Substrate,
        config: TierConfig,
        observer: NullObserver | None = None,
        spill_dir: str | None = None,
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
        self.cold = ColdStore(
            file.name, file.slots_per_page, n, spill_dir=spill_dir
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

    @property
    def num_pages(self) -> int:
        """Pages the placement covers: the store's, kept by :meth:`resize`."""
        return self.hot.size

    def resize(self, num_pages: int) -> None:
        """Follow the store, already resized, to ``num_pages`` pages.

        New pages enter the hot tier (they are about to be written);
        the caller runs :meth:`maintenance` afterwards so the governor
        can demote down to budget again.  A shrink forgets the cut
        pages' cold copies in one :meth:`ColdStore.resize`.
        """
        old = self.hot.size
        self.cold.resize(num_pages)
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
        if self._spill(np.array([fpage], dtype=np.int64), cost, lane)[0]:
            return
        # Write-through refresh failed: promote rather than go stale.
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

    def _spill(
        self,
        fpages: np.ndarray,
        cost: CostModel | None,
        lane: str,
        want: int | None = None,
    ) -> np.ndarray:
        """Write the current contents of ``fpages`` to the cold tier.

        With a fault plane armed each page's ``cold_write`` is consulted
        in order, with retries; a page whose spill stays failed is a
        spill failure and is not written.  With ``want`` set, pages are
        tried in order only until ``want`` of them passed.  The pages
        written are booked in one charge and copied in one
        :meth:`ColdStore.write`.  Returns the mask of pages written.
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
        pages = fpages[written]
        if pages.size:
            if cost is not None:
                cost.cold_write(pages.size, lane)
            self.cold.write(pages, self.file.data)
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

        Spill-first ordering: a page's hot bit only flips after its cold
        copy materialized, so a page whose spill failed stays hot and
        the placement consistent.  ``want`` as in :meth:`_spill`.
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
            self.cold.drop(fpages)
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

    def close(self) -> None:
        """Release the cold tier (spill file included)."""
        self.cold.close()
