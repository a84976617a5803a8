"""Virtual views: the fused storage/indexing primitive (Sections 1.1, 2).

A :class:`VirtualView` is a virtual memory area that maps a subset of a
column's physical pages.  The *full* view ``v[-inf, inf]`` maps every
page; a *partial* view ``v[l, u]`` maps exactly the pages that hold at
least one value in ``[l, u]``.  Views over-allocate their virtual area to
the size of the whole column at creation (a cheap anonymous reservation),
so pages can later be mapped into "unused" virtual slots — both during
creation and when updates add pages (Section 2.4, case 1).

Per view the layer materializes only the covered value range and the
number of indexed pages, exactly the meta-data footprint the paper
states.

The bookkeeping is sized by the pages a view maps, not by its
reservation.  A view built by one plan on fresh slots *is* that plan's
page list, in slot order; the column-sized tables (slot → page,
page → slot, touched bits) are built on the first lookup that needs
them, so a view kept for maintenance pays for them once and a candidate
that is planned, mapped and discarded never does.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np

from ..faults.errors import SubstrateFault
from ..faults.plane import suppress_faults
from ..storage.column import PhysicalColumn
from ..vm.constants import MAX_VALUE, MIN_VALUE
from ..vm.cost import MAIN_LANE


class MapPlan(NamedTuple):
    """A view's planned mmap(MAP_FIXED) calls, one row per call.

    Run ``i`` maps ``npages[i]`` physical pages starting at
    ``file_pages[i]`` onto the view's virtual pages starting at
    ``vpns[i]``.  Produced by :meth:`VirtualView.plan_runs` over
    consecutive fresh slots, so the runs are in address order and touch;
    executed by :meth:`VirtualView.execute_plan`, inline or on the
    background mapping thread.
    """

    vpns: np.ndarray
    file_pages: np.ndarray
    npages: np.ndarray

    @property
    def num_runs(self) -> int:
        """Number of mmap calls the plan stands for."""
        return int(self.vpns.size)

    def runs(self, start: int, stop: int | None = None) -> "MapPlan":
        """The sub-plan of runs ``[start, stop)``."""
        return MapPlan(*(column[start:stop] for column in self))


_NO_PAGES = np.empty(0, dtype=np.int64)


class VirtualView:
    """One virtual view over a physical column."""

    def __init__(
        self,
        column: PhysicalColumn,
        lo: int = MIN_VALUE,
        hi: int = MAX_VALUE,
        lane: str = MAIN_LANE,
    ) -> None:
        """Create an empty view covering ``[lo, hi]``.

        Reserves a virtual area as large as the whole column (anonymous
        over-allocation; almost free).  Pages are mapped in afterwards
        via :meth:`add_page` or a planned run set (:meth:`plan_runs`).
        """
        if lo > hi:
            raise ValueError(f"inverted value range [{lo}, {hi}]")
        self.column = column
        self.substrate = column.substrate
        self.lo = lo
        self.hi = hi
        self.capacity = column.num_pages
        self.is_full_view = False
        self.base_vpn = self.substrate.reserve(self.capacity, lane=lane)
        self._init_slots(_NO_PAGES)

    def _init_slots(self, pages: np.ndarray) -> None:
        """Start as a view whose slots ``[0, len(pages))`` hold ``pages``,
        every one of them touched."""
        #: While no slot table exists: the pages of the first slots, in
        #: slot order, and how many of those slots have been touched.
        self._fresh_pages = pages
        self._touched_upto = int(pages.size)
        #: ``(fpage_at, slot_by_fpage, touched)`` once a lookup built it.
        self._table: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # The mapping thread marks slots touched while the scanning
        # thread may be building the table those marks move into.
        self._table_lock = threading.Lock()
        self._num_mapped = int(pages.size)
        self._next_fresh = int(pages.size)
        self._free_slots: list[int] = []
        self._mapped_cache: np.ndarray | None = None
        self._alive = True

    @classmethod
    def full_view(cls, column: PhysicalColumn, lane: str = MAIN_LANE) -> "VirtualView":
        """The default full view ``v[-inf, inf]`` mapping the whole column.

        Created with a single file-backed mmap; its pages are considered
        already faulted in (the column was just materialized through it).
        """
        view = cls.__new__(cls)
        view.column = column
        view.substrate = column.substrate
        view.lo = MIN_VALUE
        view.hi = MAX_VALUE
        view.capacity = column.num_pages
        view.is_full_view = True
        view.base_vpn = view.substrate.map_file(
            column.num_pages, column.file, file_page=0, lane=lane
        )
        view._init_slots(np.arange(column.num_pages, dtype=np.int64))
        return view

    # -- the slot table ----------------------------------------------------

    def _slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The column-sized slot arrays, built on first use.

        ``fpage_at[slot]`` is the page a slot maps, ``slot_by_fpage[page]``
        the slot mapping a page (both -1 for none), ``touched[slot]``
        whether the slot's soft fault has been paid.  From here on the
        arrays are the view's bookkeeping; the page list it was planned
        from is let go.
        """
        if self._table is not None:
            return self._table
        with self._table_lock:
            if self._table is None:
                pages = self._fresh_pages
                fpage_at = np.full(self.capacity, -1, dtype=np.int64)
                slot_by_fpage = np.full(self.capacity, -1, dtype=np.int64)
                touched = np.zeros(self.capacity, dtype=bool)
                fpage_at[: pages.size] = pages
                slot_by_fpage[pages] = np.arange(pages.size)
                touched[: self._touched_upto] = True
                self._table = (fpage_at, slot_by_fpage, touched)
                self._fresh_pages = _NO_PAGES
            return self._table

    _fpage_at = property(lambda self: self._slots()[0])
    _slot_by_fpage = property(lambda self: self._slots()[1])
    _touched = property(lambda self: self._slots()[2])

    # -- introspection ---------------------------------------------------

    @property
    def num_pages(self) -> int:
        """Number of physical pages the view currently indexes."""
        return self._num_mapped

    def contains_page(self, fpage: int) -> bool:
        """Whether physical page ``fpage`` is indexed by this view."""
        if not 0 <= fpage < self.capacity:
            return False
        return bool(self._slots()[1][fpage] >= 0)

    def mapped_fpages(self) -> np.ndarray:
        """Indexed physical pages in scan (virtual-address) order."""
        if self._mapped_cache is None:
            if self._table is None:
                self._mapped_cache = self._fresh_pages
            else:
                used = self._table[0][: self._next_fresh]
                self._mapped_cache = used[used >= 0]
        return self._mapped_cache

    def vpn_of(self, fpage: int) -> int:
        """Virtual page of this view currently mapping ``fpage``."""
        if not 0 <= fpage < self.capacity:
            raise ValueError(f"page {fpage} outside the column")
        slot = int(self._slots()[1][fpage])
        if slot < 0:
            raise ValueError(f"page {fpage} is not indexed by this view")
        return self.base_vpn + slot

    def covers_subset_of(self, other: "VirtualView") -> bool:
        """Whether this view's range lies inside ``other``'s range."""
        return other.lo <= self.lo and self.hi <= other.hi

    def covers_superset_of(self, other: "VirtualView") -> bool:
        """Whether this view's range contains ``other``'s range."""
        return self.lo <= other.lo and other.hi <= self.hi

    def update_range(self, lo: int, hi: int) -> None:
        """Adjust the covered range (the Listing 1 range extension)."""
        if lo > hi:
            raise ValueError(f"inverted value range [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- mapping mutations -------------------------------------------------

    def _take_slot(self) -> int:
        """Pick an unused virtual slot (hole first, then fresh space)."""
        if self._free_slots:
            return self._free_slots.pop()
        if self._next_fresh >= self.capacity:
            raise RuntimeError("view over-allocation exhausted")
        slot = self._next_fresh
        self._next_fresh += 1
        return slot

    def plan_runs(
        self, fpages: np.ndarray | list[int], coalesce: bool = True
    ) -> MapPlan:
        """Plan mapping an ordered page set into fresh slots, in bulk.

        One pass validates the whole set, reserves consecutive fresh
        slots for it and records the bookkeeping with whole-array
        operations, without issuing any mmap call yet.  The plan holds
        one run per maximal stretch of consecutive physical pages with
        ``coalesce``, one per page without.
        """
        if self.is_full_view:
            raise RuntimeError("cannot map pages into the full view")
        # own copy: on an empty view it becomes the view's page list
        fpages = np.array(fpages, dtype=np.int64)
        n = int(fpages.size)
        if n == 0:
            return MapPlan(fpages, fpages, fpages)
        if self._next_fresh + n > self.capacity:
            raise RuntimeError("view over-allocation exhausted")
        diffs = np.diff(fpages)
        if diffs.size == 0 or np.all(diffs >= 1):
            # Strictly increasing input (the scan output) is duplicate
            # free and has its extremes at the ends.
            first, last = fpages[0], fpages[-1]
        else:
            # Anything else needs the full uniqueness check.
            if np.all(diffs >= 0) or np.unique(fpages).size != n:
                raise ValueError(
                    "run contains pages already indexed by this view"
                )
            first, last = fpages.min(), fpages.max()
        if first < 0 or last >= self.capacity:
            raise IndexError(
                f"pages [{first}, {last}] outside the column's "
                f"{self.capacity} pages"
            )
        slot_start = self._next_fresh
        if slot_start == 0 and self._table is None:
            # An empty view indexes nothing yet: the plan's pages are
            # its bookkeeping, and no column-sized array is touched.
            self._fresh_pages = fpages
            self._touched_upto = 0
        else:
            fpage_at, slot_by_fpage, touched = self._slots()
            if np.any(slot_by_fpage[fpages] >= 0):
                raise ValueError(
                    "run contains pages already indexed by this view"
                )
            fpage_at[slot_start : slot_start + n] = fpages
            slot_by_fpage[fpages] = np.arange(slot_start, slot_start + n)
            touched[slot_start : slot_start + n] = False
        self._next_fresh += n
        self._num_mapped += n
        self._mapped_cache = None

        if coalesce:
            bounds = np.concatenate(([0], np.flatnonzero(diffs != 1) + 1, [n]))
        else:
            bounds = np.arange(n + 1)
        starts = bounds[:-1]
        return MapPlan(
            vpns=self.base_vpn + slot_start + starts,
            file_pages=fpages[starts],
            npages=np.diff(bounds),
        )

    def execute_plan(self, plan: MapPlan, lane: str = MAIN_LANE) -> None:
        """Issue a plan's mmap(MAP_FIXED) calls with one substrate call.

        The freshly mapped pages are populated immediately (their soft
        faults are paid here, as part of creation), so subsequent view
        scans run fault-free — the paper's "negligible overhead for the
        very first page access after (re-)mapping" is amortized into the
        mapping step.  A substrate fault names the run it hit; the runs
        before it are mapped and marked so before it propagates.
        """
        try:
            self.substrate.map_runs(
                plan.vpns,
                plan.npages,
                self.column.file,
                plan.file_pages,
                populate=True,
                lane=lane,
            )
        except SubstrateFault as fault:
            self._mark_touched(plan.runs(0, fault.run_index))
            raise
        self._mark_touched(plan)

    def _mark_touched(self, plan: MapPlan) -> None:
        if not plan.num_runs:
            return
        start = int(plan.vpns[0]) - self.base_vpn
        end = int(plan.vpns[-1] + plan.npages[-1]) - self.base_vpn
        with self._table_lock:
            if self._table is None and start <= self._touched_upto:
                # in plan order the touched slots stay a prefix
                self._touched_upto = max(self._touched_upto, end)
                return
        self._slots()[2][start:end] = True

    def add_page(self, fpage: int, lane: str = MAIN_LANE) -> None:
        """Map one physical page into an unused virtual slot.

        This is the update path (Section 2.4, case 1): holes left by
        removed pages are reused before fresh over-allocated space.
        """
        if self.is_full_view:
            raise RuntimeError("cannot map pages into the full view")
        self.column.file.check_page(fpage)
        if self.contains_page(fpage):
            raise ValueError(f"page {fpage} already indexed by this view")
        from_free = bool(self._free_slots)
        slot = self._take_slot()
        # Atomic-rewire semantics: issue the mmap before touching the
        # bookkeeping, so a failed call leaves the catalog consistent
        # (the reserved slot is handed back on the way out).
        try:
            self.substrate.map_fixed(
                self.base_vpn + slot,
                1,
                self.column.file,
                fpage,
                populate=True,
                lane=lane,
            )
        except BaseException:
            if from_free:
                self._free_slots.append(slot)
            else:
                self._next_fresh -= 1
            raise
        fpage_at, slot_by_fpage, touched = self._slots()
        fpage_at[slot] = fpage
        slot_by_fpage[fpage] = slot
        touched[slot] = True
        self._num_mapped += 1
        self._mapped_cache = None

    def remove_page(self, fpage: int, lane: str = MAIN_LANE) -> None:
        """Unmap one physical page (Section 2.4, case 2).

        The virtual slot is remapped back to anonymous memory, keeping
        the over-allocated reservation intact, and becomes reusable.
        """
        if self.is_full_view:
            raise RuntimeError("cannot remove pages from the full view")
        if not self.contains_page(fpage):
            raise ValueError(f"page {fpage} is not indexed by this view")
        fpage_at, slot_by_fpage, touched = self._slots()
        slot = int(slot_by_fpage[fpage])
        # Unmap first: if the call fails, the page simply stays indexed
        # (a removal that did not happen, not a torn catalog).
        self.substrate.unmap_slot(self.base_vpn + slot, 1, lane=lane)
        slot_by_fpage[fpage] = -1
        fpage_at[slot] = -1
        touched[slot] = False
        self._num_mapped -= 1
        self._free_slots.append(slot)
        self._mapped_cache = None

    def destroy(self, lane: str = MAIN_LANE) -> None:
        """Tear the view down (discarded candidate / dropped view)."""
        if not self._alive:
            return
        removed_pages = self.num_pages
        # Tear-down must always succeed: it is the rollback path the
        # hardened creation/maintenance code relies on, so injected
        # faults are suppressed for the release call.
        with suppress_faults(self.substrate):
            self.substrate.release_region(
                self.base_vpn, self.capacity, removed_pages, lane=lane
            )
        # the bookkeeping is dropped, not cleared: nothing column-sized
        self._table = None
        self._fresh_pages = _NO_PAGES
        self._touched_upto = 0
        self._num_mapped = 0
        self._mapped_cache = None
        self._alive = False

    # -- fault accounting ----------------------------------------------------

    def charge_first_touch(
        self, fpages: np.ndarray | None = None, lane: str = MAIN_LANE
    ) -> int:
        """Charge soft faults for first accesses after (re-)mapping.

        ``fpages`` limits the charge to the pages actually scanned; by
        default all mapped pages are considered.  Returns the number of
        faults charged.
        """
        if self.is_full_view:
            return 0
        if self._table is None and self._touched_upto >= self._next_fresh:
            return 0  # planned and populated whole: nothing left to fault
        fpage_at, slot_by_fpage, touched = self._slots()
        if fpages is None:
            slots = np.flatnonzero(fpage_at[: self._next_fresh] >= 0)
        else:
            fpages = np.asarray(fpages, dtype=np.int64)
            slots = slot_by_fpage[fpages]
            slots = slots[slots >= 0]
        untouched = slots[~touched[slots]]
        n = int(untouched.size)
        if n:
            self.substrate.cost.soft_fault(n, lane)
            touched[untouched] = True
        return n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "full" if self.is_full_view else "partial"
        return (
            f"VirtualView({kind}, range=[{self.lo}, {self.hi}], "
            f"pages={self.num_pages})"
        )
