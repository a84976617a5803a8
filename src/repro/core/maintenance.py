"""Batch alignment of partial views after updates (Sections 2.4 / 2.5).

When the physical column changes through the full view, every partial
view whose value range is affected must be realigned.  Per batch:

1. the update sequence is compacted so only the first old and last new
   value per row remain (:meth:`repro.storage.updates.UpdateBatch.compact`);
2. ``/proc/PID/maps`` is parsed *once* into a page-wise bimap snapshot
   (Section 2.5) — the user-space source of truth for "is this physical
   page currently indexed by this view?";
3. per view ``v[a, b]`` and per modified physical page ``p``:

   * **case 1 — p not indexed**: map it iff some update wrote a new
     value inside ``[a, b]``;
   * **case 2 — p indexed**: if some new value lies in ``[a, b]`` it
     stays; else if no old value was in ``[a, b]`` the updates cannot
     have affected this view and it stays; otherwise a full page scan
     decides — only if no remaining value lies in ``[a, b]`` may the
     page be removed.  A view created while the batch was pending
     indexed its pages by values the compaction may have dropped (an
     intermediate write), so for it every case-2 page is scanned.

The facts the case analysis needs are computed for all (view, page)
pairs of a block of views at once (:func:`_align_views`), and the pairs
that then *do* something are acted on at once too (:class:`_BlockWalk`):
every case-2 page scan is one gather-and-compare, every case-1 add one
mapping plan, and the charges go to the ledger as one total per kind.
The snapshot is maintained from user space while pages are (un)mapped
and discarded after the batch.
"""

from __future__ import annotations

import bisect
from typing import Iterable

import numpy as np

from ..faults.errors import SubstrateFault, TornSnapshotError
from ..obs.observer import NULL_OBSERVER, NullObserver
from ..storage import layout
from ..storage.column import PhysicalColumn
from ..storage.updates import UpdateBatch, UpdateRecord
from ..vm.cost import MAIN_LANE
from ..vm.errors import VmError
from ..vm.procmaps import MappingSnapshot
from .creation import all_or_none, build_view, retryable
from .routing import scan_views
from .stats import MaintenanceStats
from .view import VirtualView

#: (view, update) comparisons one classification block may hold at once:
#: bounds the kernel's temporaries whatever the batch and view counts.
_BLOCK_CELLS = 1 << 18

#: Pages one gathered case-2 check holds at once: bounds its copy of the
#: pages (4 KiB each) whatever the number of pages to check.
_CHECK_PAGES = 1024


def _drop_view(view: VirtualView, stats: MaintenanceStats):
    """Destroy a view whose page set can no longer be verified."""
    view.destroy()
    stats.views_dropped += 1
    stats.dropped_views.append(view)


def _any_in_range(
    values: np.ndarray, lows: np.ndarray, highs: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Per (view, group): whether any of the group's values lies inside
    the view's range.  ``lows``/``highs`` are column vectors (one row per
    view), ``starts`` the first position of each group in ``values``."""
    return np.logical_or.reduceat(
        (values >= lows) & (values <= highs), starts, axis=1
    )


def _block_matrix(
    hit_view: np.ndarray, hit_group: np.ndarray, rows: slice, num_groups: int
) -> np.ndarray:
    """Boolean (views of the block) x (groups) matrix that is True at
    the ``(view, group)`` hits whose view lies in ``rows``."""
    mine = (hit_view >= rows.start) & (hit_view < rows.stop)
    matrix = np.zeros((rows.stop - rows.start, num_groups), dtype=bool)
    matrix[hit_view[mine] - rows.start, hit_group[mine]] = True
    return matrix


#: What a walked (view, page) pair does, in the case analysis' terms.
_TORN, _ADD, _SCAN = 0, 1, 2


def _still_in_range(
    column: PhysicalColumn,
    fpages: np.ndarray,
    valid: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
) -> np.ndarray:
    """Per page: whether its first ``valid[i]`` rows still hold a value
    in ``[lows[i], highs[i]]``.

    The answer :meth:`PhysicalColumn.scan_page` gives page by page, for
    ``_CHECK_PAGES`` pages at a time with one gather and compare; the
    padding past the last row of a partial page is masked.
    """
    found = np.empty(fpages.size, dtype=bool)
    for a in range(0, fpages.size, _CHECK_PAGES):
        z = a + _CHECK_PAGES
        values = column.file.data[fpages[a:z]]
        live = np.arange(values.shape[1]) < valid[a:z, None]
        hits = (values >= lows[a:z, None]) & (values <= highs[a:z, None]) & live
        found[a:z] = hits.any(axis=1)
    return found


class _ViewFault(Exception):
    """A fault at walk event ``event``: its view is dropped."""

    def __init__(self, event: int) -> None:
        super().__init__(event)
        self.event = event


class _BlockWalk:
    """The acting (view, page) pairs of one block of views, carried out.

    The pairs come in walk order, views outer and pages inner, and each
    is one *event*: a torn pair, a case-1 add, or a case-2 scan whose
    answer is known before anything is carried out (the pages do not
    change while views are aligned).  A *segment* of events is carried
    out at once: its adds become one booked ``map_runs`` plan and its
    other charges one total per kind (:meth:`_book`).  A segment ends at
    the first event that needs more — a torn pair, a page to unmap, a
    scan a tiered store accounts for, an add beyond its view's capacity
    — and that event's follow-up runs on its own before the next segment
    starts.  A fault drops the view; the walk resumes at the next view,
    through the same segments.

    The events are plain lists: a flush after a one-row update acts on a
    handful of pairs, and a numpy call per event attribute would cost
    more than the pairs themselves.  Only what grows with the batch —
    the gathered check and the plan — is an array.
    """

    def __init__(
        self,
        column: PhysicalColumn,
        block: list[VirtualView],
        snapshot: MappingSnapshot,
        path: str,
        page_of: list[int],
        checked_before: list[int],
        events: tuple[np.ndarray, np.ndarray, np.ndarray],
        stats: MaintenanceStats,
        lane: str,
        retry,
    ) -> None:
        self.column = column
        self.cost = column.cost
        self.block = block
        self.snapshot = snapshot
        self.path = path
        self.stats = stats
        self.lane = lane
        self.retry = retry
        self.groups = groups = len(page_of)
        #: ``checked_before[g]``: update records in page groups ``[0, g)``.
        self.checked_before = checked_before
        #: Per event: its view (index into ``block``), page and kind.
        self.view, group, self.kind = (array.tolist() for array in events)
        self.fpage = [page_of[g] for g in group]
        #: Per event: the flat index ``view * groups + group`` of its pair.
        self.flat = [v * groups + g for v, g in zip(self.view, group)]
        #: Flat index of the first pair not charged yet.
        self.cursor = 0
        #: Per event: the values a scan streams (0 for the others).
        self.scanned = [0] * len(self.kind)
        #: Events whose page leaves its view (case 2, nothing left in range).
        self.removes: set[int] = set()
        scans = [i for i, kind in enumerate(self.kind) if kind == _SCAN]
        if scans:
            # Check: every case-2 page's scan answered in one gather.
            fpages = np.array([self.fpage[i] for i in scans], dtype=np.int64)
            owners = [block[self.view[i]] for i in scans]
            valid = layout.rows_in_pages(
                fpages, column.num_rows, column.values_per_page
            )
            keep = _still_in_range(
                column,
                fpages,
                valid,
                np.array([view.lo for view in owners], dtype=np.int64),
                np.array([view.hi for view in owners], dtype=np.int64),
            )
            values = (valid * column.value_cost_factor).tolist()
            for i, n, kept in zip(scans, values, keep.tolist()):
                self.scanned[i] = n
                if not kept:
                    self.removes.add(i)
        self.tier = column.tier
        # What ends a segment: torn pairs, pages to unmap, a tiered
        # column's scans, adds beyond their view's capacity.
        self.barriers = [
            i
            for i, kind in enumerate(self.kind)
            if kind == _TORN
            or i in self.removes
            or (kind == _SCAN and self.tier is not None)
            or (kind == _ADD and self.fpage[i] >= block[self.view[i]].capacity)
        ]

    def run(self) -> None:
        """Carry out every event, then charge the pairs after the last."""
        i, n, b = 0, len(self.kind), 0
        barriers = self.barriers
        while i < n:
            while b < len(barriers) and barriers[b] < i:
                b += 1
            barrier = barriers[b] if b < len(barriers) else None
            try:
                self._segment(i, n if barrier is None else barrier + 1, barrier)
            except _ViewFault as fault:
                # A fault mid-alignment leaves this view's page set
                # unverifiable; drop it rather than serve stale pages.
                # Queries fall back to the full view (or the next-best
                # partial) and stay correct.
                j = self.view[fault.event]
                self.stats.faults += 1
                _drop_view(self.block[j], self.stats)
                self.cursor = (j + 1) * self.groups
                i = bisect.bisect_right(self.view, j)
                continue
            i = n if barrier is None else barrier + 1
        end = len(self.block) * self.groups
        if end > self.cursor:
            self._inspect(end)

    def _records_before(self, flat: int) -> int:
        """Update records in the pairs before flat pair index ``flat``."""
        before = self.checked_before
        return (flat // self.groups) * before[-1] + before[flat % self.groups]

    def _inspect(self, end: int, snapshot_inserts: int = 0) -> None:
        """Book inspecting the pairs from the cursor to flat index
        ``end`` — their update records and three bimap ops per pair —
        plus ``snapshot_inserts`` bimap ops, and move the cursor there."""
        self.cost.update_check(
            self._records_before(end) - self._records_before(self.cursor), self.lane
        )
        self.cost.bimap_op(3 * (end - self.cursor) + snapshot_inserts, self.lane)
        self.cursor = end

    def _segment(self, start: int, end: int, barrier: int | None) -> None:
        """Carry out events ``[start, end)``; ``barrier``, the last one
        when set, books its inspection (and scan) here and runs its
        follow-up after."""
        if barrier is not None and self.kind[barrier] == _ADD:
            end_adds = barrier  # beyond the view's capacity: added on its own
        else:
            end_adds = end
        adds = [i for i in range(start, end_adds) if self.kind[i] == _ADD]
        fault = self._plan(adds)
        if fault is not None:
            event, error = fault
            self._book(start, event, inspected=event)
            self._retry_add(event, error)
            # healed: the rest is carried out as a segment of its own
            self._segment(event + 1, end, barrier)
            return
        self._book(start, end, inspected=barrier)
        if barrier is not None:
            try:
                self._follow_up(barrier)
            except (SubstrateFault, VmError) as exc:
                raise _ViewFault(barrier) from exc

    def _plan(self, adds: list[int]) -> tuple[int, SubstrateFault] | None:
        """Map the pages of the ``adds`` events with one plan.

        Each view hands out its slots as one :meth:`VirtualView.add_page`
        per event would, holes first, and the plan is cut wherever its
        virtual pages stop ascending (a reused hole, a view whose area
        lies below the previous one's).  The pages mapped are recorded
        in their views and the snapshot.  Returns the event whose run
        faulted and its fault, if one did: the runs before it are mapped
        and recorded, it and the ones after it are not.
        """
        if not adds:
            return None
        fpages = [self.fpage[i] for i in adds]
        # (view, first add, end add) per view, in walk order
        owners = []
        for k, i in enumerate(adds):
            j = self.view[i]
            if not owners or owners[-1][0] != j:
                owners.append([j, k, k])
            owners[-1][2] = k + 1
        slots = []
        vpns = []
        for j, a, z in owners:
            view = self.block[j]
            view_slots = view.plan_slots(z - a)
            slots.append(view_slots)
            vpns.extend((view.base_vpn + view_slots).tolist())
        cuts = [0, *(k for k in range(1, len(vpns)) if vpns[k] <= vpns[k - 1]), len(vpns)]
        vpn_array = np.array(vpns, dtype=np.int64)
        fpage_array = np.array(fpages, dtype=np.int64)
        npages = np.ones(len(vpns), dtype=np.int64)
        applied, fault = len(vpns), None
        for a, z in zip(cuts, cuts[1:]):
            try:
                self.column.substrate.map_runs(
                    vpn_array[a:z],
                    npages[a:z],
                    self.column.file,
                    fpage_array[a:z],
                    populate=True,
                    lane=self.lane,
                )
            except SubstrateFault as error:
                applied = a + error.run_index
                fault = adds[applied], error
                break
        for (j, a, z), view_slots in zip(owners, slots):
            done = min(z, applied) - a
            if done > 0:
                self.block[j].fill_slots(view_slots[:done], fpage_array[a : a + done])
        # The snapshot was parsed against the column's cost model, so its
        # insert charges are booked with the rest (:meth:`_book`).
        snapshot, path = self.snapshot, self.path
        for vpn, fpage in zip(vpns[:applied], fpages[:applied]):
            snapshot.map(vpn, (path, fpage), charge=False)
        self.stats.pages_added += applied
        return fault

    def _retry_add(self, event: int, fault: SubstrateFault) -> None:
        """Re-attempt an add whose run faulted in a plan, as the retry
        policy re-attempts a single :meth:`VirtualView.add_page`."""
        view, fpage = self.block[self.view[event]], self.fpage[event]
        try:
            if self.retry is None:
                raise fault
            self.retry.resume(
                "map_fixed",
                fault,
                lambda: view.add_page(fpage, lane=self.lane),
                self.lane,
            )
        except (SubstrateFault, VmError) as exc:
            raise _ViewFault(event) from exc
        self.snapshot.map(view.vpn_of(fpage), (self.path, fpage), self.lane)
        self.stats.pages_added += 1

    def _follow_up(self, event: int) -> None:
        """What a segment's last event does beyond its booked charges."""
        view = self.block[self.view[event]]
        fpage = self.fpage[event]
        lane, retry = self.lane, self.retry
        if self.kind[event] == _TORN:
            # The snapshot contradicts the catalog: a stale or torn
            # snapshot would make the case analysis unsound for this
            # view, so it is dropped instead of misaligned.
            raise TornSnapshotError("maps_snapshot", fpage)
        if self.kind[event] == _ADD:
            # A page beyond the view's capacity (the column grew under
            # it): mapped as the per-pair loop maps it, whatever follows.
            retryable(retry, "map_fixed", lambda: view.add_page(fpage, lane=lane), lane)
            self.snapshot.map(view.vpn_of(fpage), (self.path, fpage), lane)
            self.stats.pages_added += 1
            return
        if self.tier is not None:
            self.tier.record_access(fpage, self.cost, lane=lane, kind="random")
        if event in self.removes:
            # Case 2 and no value left in range: the page leaves.
            vpn = view.vpn_of(fpage)
            retryable(
                retry, "unmap_slot", lambda: view.remove_page(fpage, lane=lane), lane
            )
            self.snapshot.unmap(vpn, lane)
            self.stats.pages_removed += 1

    def _book(self, start: int, end: int, inspected: int | None) -> None:
        """Book events ``[start, end)``: the inspection of every pair up
        to the last of them and each event's action — an add its
        snapshot insert (its plan booked its mmap call and soft fault),
        a scan its random page access, header read and value stream.
        ``inspected`` (``end - 1`` or ``end``), when set, is booked
        without an add.  Ledger lanes are integers, so each charge kind
        goes in as one total."""
        stop = end if inspected is None else max(end, inspected + 1)
        if stop <= start:
            return
        kinds = self.kind[start:stop]
        adds = kinds.count(_ADD)
        if inspected is not None and self.kind[inspected] == _ADD:
            adds -= 1  # its inspection only
        scans = kinds.count(_SCAN)
        self._inspect(self.flat[stop - 1] + 1, adds)
        cost, lane = self.cost, self.lane
        if scans:
            cost.page_access("random", scans, lane)
            cost.page_header(scans, lane)
            cost.stream_values(sum(self.scanned[start:stop]), "random", lane)
            cost.ledger.count("pages_scanned", scans)


def _align_views(
    column: PhysicalColumn,
    views: list[VirtualView],
    snapshot: MappingSnapshot,
    path: str,
    groups: dict[int, list[UpdateRecord]],
    stats: MaintenanceStats,
    lane: str,
    retry=None,
    born_in_batch: Iterable[VirtualView] = (),
) -> None:
    """Apply the case analysis of Section 2.4 to all partial views.

    Per block of views the three facts of the analysis — page indexed,
    any new value in range, any old value in range — and the catalog
    cross-check are computed for every (view, page) pair at once; then
    the pairs that do something (map a page, scan and maybe unmap one,
    drop the view over a torn snapshot) are carried out by
    :class:`_BlockWalk`: every case-2 check in one gather, every case-1
    add in one mapping plan, every charge kind in one total.  While
    the snapshot agrees with the catalog, acting on one pair changes no
    other pair's facts: it touches one view's mapping of one page, which
    no later pair asks about.  Where it does not (a stale snapshot still
    holding another page at the slot an add takes), the facts stand as
    the snapshot was handed over, so the mismatch drops the view even
    though the add overwrote the stale record.  A view that faults is
    dropped and charged through the faulting pair only.
    """
    views = [view for view in views if not view.is_full_view]
    if not views or not groups:
        return
    num_groups = len(groups)
    pages = np.fromiter(groups, np.int64, num_groups)
    group_ends = np.cumsum(
        np.fromiter(map(len, groups.values()), np.int64, num_groups)
    )
    group_starts = np.concatenate(([0], group_ends[:-1]))
    checked_before = [0, *group_ends.tolist()]
    num_updates = checked_before[-1]
    updates = [update for group in groups.values() for update in group]
    news = np.fromiter((u.new for u in updates), np.int64, num_updates)
    olds = np.fromiter((u.old for u in updates), np.int64, num_updates)
    by_page = np.argsort(pages)
    sorted_pages = pages[by_page]
    page_of = pages.tolist()

    lows = np.array([view.lo for view in views], dtype=np.int64)[:, None]
    highs = np.array([view.hi for view in views], dtype=np.int64)[:, None]
    bases = np.array([view.base_vpn for view in views], dtype=np.int64)
    limits = bases + np.array([view.capacity for view in views], dtype=np.int64)
    born = {id(view) for view in born_in_batch}
    # Views born mid-batch: "an old value was in range" for every page.
    scan_all = np.array([id(view) in born for view in views])[:, None]

    # Snapshot side of "indexed": one bulk question, then each virtual
    # page is handed to the view whose area holds it.
    which, vpns = snapshot.virtuals_of_pages(path, pages)
    by_base = np.argsort(bases)
    owner = by_base[np.searchsorted(bases[by_base], vpns, side="right") - 1]
    inside = (vpns >= bases[owner]) & (vpns < limits[owner])
    snapshot_hits = owner[inside], which[inside]
    # Catalog side: the views' own page lists, matched to the groups.
    mapped = [view.mapped_fpages() for view in views]
    holder = np.repeat(np.arange(len(views)), [m.size for m in mapped])
    mapped = np.concatenate(mapped)
    at = np.minimum(np.searchsorted(sorted_pages, mapped), num_groups - 1)
    found = sorted_pages[at] == mapped
    catalog_hits = holder[found], by_page[at[found]]

    step = max(1, _BLOCK_CELLS // num_updates)
    for first in range(0, len(views), step):
        block = views[first : first + step]
        rows = slice(first, first + len(block))
        any_new = _any_in_range(news, lows[rows], highs[rows], group_starts)
        any_old = _any_in_range(olds, lows[rows], highs[rows], group_starts)
        any_old |= scan_all[rows]
        indexed = _block_matrix(*snapshot_hits, rows, num_groups)
        catalogued = _block_matrix(*catalog_hits, rows, num_groups)

        torn = indexed != catalogued
        add = any_new & ~indexed
        scan = indexed & ~any_new & any_old
        act_view, act_group = np.nonzero(torn | add | scan)
        kind = np.where(
            torn[act_view, act_group],
            _TORN,
            np.where(add[act_view, act_group], _ADD, _SCAN),
        )
        _BlockWalk(
            column,
            block,
            snapshot,
            path,
            page_of,
            checked_before,
            (act_view, act_group, kind),
            stats,
            lane,
            retry,
        ).run()


def align_partial_views(
    column: PhysicalColumn,
    views: list[VirtualView],
    batch: UpdateBatch,
    lane: str = MAIN_LANE,
    observer: NullObserver | None = None,
    retry=None,
    born_in_batch: Iterable[VirtualView] = (),
) -> MaintenanceStats:
    """Align all ``views`` of ``column`` against an applied update batch.

    Returns the timing split (maps parsing vs. view updating) and the
    page add/remove counts that Figure 7 plots.  With a ``retry``
    policy, transient faults (a failed maps read, a lost remap) are
    retried with backoff before the drop-the-view fallback engages;
    permanent faults and torn snapshots still drop views as before.
    ``born_in_batch`` names the views created after the batch's first
    write; each of their indexed update pages is checked by a scan.
    """
    obs = observer or NULL_OBSERVER
    cost = column.cost
    stats = MaintenanceStats(batch_size=len(batch))

    with obs.span("maintenance", batch=len(batch), views=len(views)) as span:
        compacted = batch.compact()
        stats.compacted_size = len(compacted)
        groups = compacted.group_by_page(column.values_per_page)
        # Compaction and grouping hash every raw and compacted update once.
        cost.update_check(len(batch) + len(compacted), lane)

        # Step 2: parse the memory mappings once for the whole batch —
        # from whichever maps source the backend provides (the simulated
        # renderer or the kernel's real /proc/self/maps).  Without a
        # snapshot no view can be aligned safely, so a parse failure
        # degrades by dropping every partial view: the full view keeps
        # all queries correct, just slower, until views regrow.
        path = column.substrate.file_map_path(column.file)
        try:
            with cost.region() as parse_region, obs.span("maps-parse"):
                snapshot = retryable(
                    retry,
                    "maps_snapshot",
                    lambda: column.substrate.maps_snapshot(
                        cost=cost,
                        lane=lane,
                        file_filter=path,
                    ),
                    lane,
                )
        except (SubstrateFault, VmError):
            stats.faults += 1
            for view in views:
                if not view.is_full_view:
                    _drop_view(view, stats)
            span.set(faults=stats.faults, views_dropped=stats.views_dropped)
            obs.on_maintenance(stats)
            return stats
        stats.parse_ns = parse_region.lane_ns(lane)
        stats.maps_lines = parse_region.counter_deltas.get("maps_lines_parsed", 0)
        obs.on_maps_parse(stats.maps_lines)

        with cost.region() as update_region, obs.span("align-views"):
            _align_views(
                column,
                views,
                snapshot,
                path,
                groups,
                stats,
                lane,
                retry=retry,
                born_in_batch=born_in_batch,
            )
        stats.update_ns = update_region.lane_ns(lane)
        span.set(
            maps_lines=stats.maps_lines,
            pages_added=stats.pages_added,
            pages_removed=stats.pages_removed,
        )
        if stats.faults:
            span.set(faults=stats.faults, views_dropped=stats.views_dropped)
    obs.on_maintenance(stats)
    return stats


def rebuild_partial_views(
    column: PhysicalColumn,
    full_view: VirtualView,
    ranges: list[tuple[int, int]],
    coalesce: bool = True,
    lane: str = MAIN_LANE,
) -> tuple[list[VirtualView], float]:
    """Rebuild views from scratch instead of aligning them (Figure 7's
    comparison baseline).

    Each view is recreated by a fresh scan-and-filter of the full view
    followed by mapping all qualifying pages.  Returns the new views and
    the simulated rebuild time.  A fault destroys the views built before
    it, too, before it surfaces.
    """
    cost = column.cost
    with cost.region() as region, all_or_none(lane) as rebuilt:
        for lo, hi in ranges:
            routed = scan_views(column, [full_view], lo, hi, lane=lane)
            view, _ = build_view(
                column, lo, hi, routed.qualifying_fpages, coalesce=coalesce, lane=lane
            )
            rebuilt.append(view)
    return rebuilt, region.lane_ns(lane)
