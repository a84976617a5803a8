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
     page be removed.

The facts the case analysis needs are computed for all (view, page)
pairs of a block of views at once; only the pairs that then *do*
something are walked one by one (:func:`_align_views`).  The snapshot is
maintained from user space while pages are (un)mapped and discarded
after the batch.
"""

from __future__ import annotations

import numpy as np

from ..faults.errors import SubstrateFault, TornSnapshotError
from ..faults.plane import suppress_faults
from ..obs.observer import NULL_OBSERVER, NullObserver
from ..storage.column import PhysicalColumn
from ..storage.updates import UpdateBatch, UpdateRecord
from ..vm.cost import MAIN_LANE
from ..vm.errors import VmError
from ..vm.procmaps import MappingSnapshot
from .creation import materialize_pages
from .routing import scan_views
from .stats import MaintenanceStats
from .view import VirtualView

#: (view, update) comparisons one classification block may hold at once:
#: bounds the kernel's temporaries whatever the batch and view counts.
_BLOCK_CELLS = 1 << 18


def _retryable(retry, op: str, fn, lane: str):
    """Run ``fn`` directly, or under the retry policy when one is armed."""
    if retry is None:
        return fn()
    return retry.run(op, fn, lane)


def _drop_view(column: PhysicalColumn, view: VirtualView, stats: MaintenanceStats):
    """Destroy a view whose page set can no longer be verified."""
    with suppress_faults(column.substrate):
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


class _PairCharges:
    """Per-pair ledger charges of one block of views, booked in walk order.

    Every (view, page) pair costs the inspection of the page's update
    records plus three bimap ops (the "is this page indexed by this
    view?" lookup and round trip), acted on or not.  The charges are
    whole-nanosecond constants, so the pairs between two acting ones are
    summed into one ledger call each — but always booked *before* the
    acting pair's side effects, whose own charges need not be whole:
    every lane then holds exactly what visiting pair by pair leaves.
    """

    def __init__(self, cost, lane: str, checked_before: list[int]) -> None:
        self._cost = cost
        self._lane = lane
        #: ``checked_before[g]``: update records in page groups ``[0, g)``.
        self._checked_before = checked_before
        self._view = self._group = 0  # first pair not charged yet

    def charge_until(self, view: int, group: int) -> None:
        """Charge every pair before ``(view, group)`` not charged yet."""
        before = self._checked_before
        views = view - self._view
        pairs = views * (len(before) - 1) + group - self._group
        if pairs:
            self._cost.update_check(
                views * before[-1] + before[group] - before[self._group],
                self._lane,
            )
            self._cost.bimap_op(3 * pairs, self._lane)
        self._view, self._group = view, group

    def skip_to(self, view: int) -> None:
        """Leave the pairs before ``view`` uncharged (their view faulted)."""
        self._view, self._group = view, 0


def _act_on_pair(
    column: PhysicalColumn,
    view: VirtualView,
    snapshot: MappingSnapshot,
    path: str,
    fpage: int,
    torn: bool,
    add: bool,
    stats: MaintenanceStats,
    lane: str,
    retry,
) -> None:
    """Carry out the one (view, page) pair the classification singled out."""
    if torn:
        # The snapshot contradicts the catalog: a stale or torn snapshot
        # would make the case analysis unsound for this view, so it is
        # dropped instead of misaligned.
        raise TornSnapshotError("maps_snapshot", fpage)
    if add:
        # Case 1.  add_page rolls its slot back on failure, so a
        # wholesale re-attempt under the retry policy is safe.
        _retryable(
            retry, "map_fixed", lambda: view.add_page(fpage, lane=lane), lane
        )
        snapshot.map(view.vpn_of(fpage), (path, fpage), lane)
        stats.pages_added += 1
        return
    # Case 2 with an in-range value possibly overwritten: only a full
    # page scan can prove the page no longer qualifies.
    result = column.scan_page(
        fpage, view.lo, view.hi, access_kind="random", lane=lane
    )
    if result.empty:
        vpn = view.vpn_of(fpage)
        _retryable(
            retry, "unmap_slot", lambda: view.remove_page(fpage, lane=lane), lane
        )
        snapshot.unmap(vpn, lane)
        stats.pages_removed += 1


def _align_views(
    column: PhysicalColumn,
    views: list[VirtualView],
    snapshot: MappingSnapshot,
    path: str,
    groups: dict[int, list[UpdateRecord]],
    stats: MaintenanceStats,
    lane: str,
    retry=None,
) -> None:
    """Apply the case analysis of Section 2.4 to all partial views.

    Per block of views the three facts of the analysis — page indexed,
    any new value in range, any old value in range — and the catalog
    cross-check are computed for every (view, page) pair at once; then
    only the pairs that do something (map a page, scan and maybe unmap
    one, drop the view over a torn snapshot) are walked, views outer and
    pages inner.  While the snapshot agrees with the catalog, acting on
    one pair changes no other pair's facts: it touches one view's mapping
    of one page, which no later pair asks about.  Where it does not (a
    stale snapshot still holding another page at the slot an add takes),
    the facts stand as the snapshot was handed over, so the mismatch
    drops the view even though the add overwrote the stale record.  A
    view that faults is dropped and charged through the faulting pair
    only (see :class:`_PairCharges`).
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
        indexed = _block_matrix(*snapshot_hits, rows, num_groups)
        catalogued = _block_matrix(*catalog_hits, rows, num_groups)

        torn = indexed != catalogued
        add = any_new & ~indexed
        scan = indexed & ~any_new & any_old
        act_view, act_group = np.nonzero(torn | add | scan)

        charges = _PairCharges(column.cost, lane, checked_before)
        dropped = -1
        for j, g, is_torn, is_add in zip(
            act_view.tolist(),
            act_group.tolist(),
            torn[act_view, act_group].tolist(),
            add[act_view, act_group].tolist(),
        ):
            if j == dropped:
                continue
            charges.charge_until(j, g + 1)
            try:
                _act_on_pair(
                    column, block[j], snapshot, path, page_of[g],
                    is_torn, is_add, stats, lane, retry,
                )
            except (SubstrateFault, VmError):
                # A fault mid-alignment leaves this view's page set
                # unverifiable; drop it rather than serve stale pages.
                # Queries fall back to the full view (or the next-best
                # partial) and stay correct.
                stats.faults += 1
                _drop_view(column, block[j], stats)
                dropped = j
                charges.skip_to(j + 1)
        charges.charge_until(len(block), 0)


def align_partial_views(
    column: PhysicalColumn,
    views: list[VirtualView],
    batch: UpdateBatch,
    lane: str = MAIN_LANE,
    observer: NullObserver | None = None,
    retry=None,
) -> MaintenanceStats:
    """Align all ``views`` of ``column`` against an applied update batch.

    Returns the timing split (maps parsing vs. view updating) and the
    page add/remove counts that Figure 7 plots.  With a ``retry``
    policy, transient faults (a failed maps read, a lost remap) are
    retried with backoff before the drop-the-view fallback engages;
    permanent faults and torn snapshots still drop views as before.
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
                snapshot = _retryable(
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
                    _drop_view(column, view, stats)
            span.set(faults=stats.faults, views_dropped=stats.views_dropped)
            obs.on_maintenance(stats)
            return stats
        stats.parse_ns = parse_region.lane_ns(lane)
        stats.maps_lines = parse_region.counter_deltas.get("maps_lines_parsed", 0)
        obs.on_maps_parse(stats.maps_lines)

        with cost.region() as update_region, obs.span("align-views"):
            _align_views(
                column, views, snapshot, path, groups, stats, lane, retry=retry
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
    the simulated rebuild time.
    """
    cost = column.cost
    rebuilt: list[VirtualView] = []
    with cost.region() as region:
        for lo, hi in ranges:
            routed = scan_views(column, [full_view], lo, hi, lane=lane)
            view = VirtualView(column, lo, hi, lane=lane)
            materialize_pages(
                view, routed.qualifying_fpages, coalesce=coalesce, lane=lane
            )
            rebuilt.append(view)
    return rebuilt, region.lane_ns(lane)
