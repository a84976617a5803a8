"""The per-view, per-page alignment loop, kept as the parity oracle.

This is how ``repro.core.maintenance.align_partial_views`` walked a
batch before the classify-then-walk kernel replaced it: one Python
iteration per (view, modified page) pair, each charging its update
inspection and three bimap ops to the ledger the moment it is visited.
``tests/core/test_alignment_kernel.py`` drives it and the kernel over
identical stacks and requires equal page sets, statistics and ledgers.

The one difference from the loop that shipped: "is this page indexed by
this view?" is answered with :meth:`MappingSnapshot.virtuals_of`
filtered by the view's area — the same single main-lane bimap lookup
``any_virtual_in_range`` charged, through a method that still exists.
"""

from __future__ import annotations

import bisect

from repro.core.stats import MaintenanceStats
from repro.faults.errors import SubstrateFault, TornSnapshotError
from repro.faults.plane import suppress_faults
from repro.obs.observer import NULL_OBSERVER
from repro.vm.cost import MAIN_LANE
from repro.vm.errors import VmError


def _any_in_range(sorted_values: list[int], lo: int, hi: int) -> bool:
    idx = bisect.bisect_left(sorted_values, lo)
    return idx < len(sorted_values) and sorted_values[idx] <= hi


def _retryable(retry, op, fn, lane):
    if retry is None:
        return fn()
    return retry.run(op, fn, lane)


def _is_indexed(snapshot, view, path, fpage) -> bool:
    area = range(view.base_vpn, view.base_vpn + view.capacity)
    return any(vpn in area for vpn in snapshot.virtuals_of((path, fpage)))


def _align_one_view(
    column, view, snapshot, path, page_groups, stats, lane, retry, born=False
):
    cost = column.cost
    a, b = view.lo, view.hi
    for fpage, updates, sorted_news, sorted_olds in page_groups:
        cost.update_check(len(updates), lane)
        indexed = _is_indexed(snapshot, view, path, fpage)
        cost.bimap_op(2, lane)
        if indexed != view.contains_page(fpage):
            raise TornSnapshotError("maps_snapshot", fpage)
        any_new_in = _any_in_range(sorted_news, a, b)

        if not indexed:
            if any_new_in:
                _retryable(
                    retry,
                    "map_fixed",
                    lambda p=fpage: view.add_page(p, lane=lane),
                    lane,
                )
                snapshot.map(view.vpn_of(fpage), (path, fpage), lane)
                stats.pages_added += 1
            continue

        if any_new_in:
            continue
        if not born and not _any_in_range(sorted_olds, a, b):
            continue
        result = column.scan_page(fpage, a, b, access_kind="random", lane=lane)
        if result.empty:
            vpn = view.vpn_of(fpage)
            _retryable(
                retry,
                "unmap_slot",
                lambda p=fpage: view.remove_page(p, lane=lane),
                lane,
            )
            snapshot.unmap(vpn, lane)
            stats.pages_removed += 1


def oracle_align_partial_views(
    column, views, batch, lane=MAIN_LANE, retry=None, observer=None, born_in_batch=()
) -> MaintenanceStats:
    """``align_partial_views`` as the per-pair loop.

    A view in ``born_in_batch`` (created while the batch was pending)
    scans every indexed page no new value keeps.

    ``observer`` sees what the production function shows it: the
    ``maintenance`` span with its ``maps-parse`` and ``align-views``
    children and attributes, ``on_maps_parse`` after a successful parse
    and ``on_maintenance`` once per batch.  Spans never charge the
    ledger, so the loop's charges are the same with or without one.
    """
    obs = observer or NULL_OBSERVER
    cost = column.cost
    stats = MaintenanceStats(batch_size=len(batch))
    with obs.span("maintenance", batch=len(batch), views=len(views)) as span:
        compacted = batch.compact()
        stats.compacted_size = len(compacted)
        groups = compacted.group_by_page(column.values_per_page)
        cost.update_check(len(batch) + len(compacted), lane)

        path = column.substrate.file_map_path(column.file)
        try:
            with cost.region() as parse_region, obs.span("maps-parse"):
                snapshot = _retryable(
                    retry,
                    "maps_snapshot",
                    lambda: column.substrate.maps_snapshot(
                        cost=cost, lane=lane, file_filter=path
                    ),
                    lane,
                )
        except (SubstrateFault, VmError):
            stats.faults += 1
            with suppress_faults(column.substrate):
                for view in views:
                    if view.is_full_view:
                        continue
                    view.destroy()
                    stats.views_dropped += 1
                    stats.dropped_views.append(view)
            span.set(faults=stats.faults, views_dropped=stats.views_dropped)
            obs.on_maintenance(stats)
            return stats
        stats.parse_ns = parse_region.lane_ns(lane)
        stats.maps_lines = parse_region.counter_deltas.get("maps_lines_parsed", 0)
        obs.on_maps_parse(stats.maps_lines)

        page_groups = [
            (
                fpage,
                updates,
                sorted(u.new for u in updates),
                sorted(u.old for u in updates),
            )
            for fpage, updates in groups.items()
        ]
        with cost.region() as update_region, obs.span("align-views"):
            for view in views:
                if view.is_full_view:
                    continue
                try:
                    _align_one_view(
                        column,
                        view,
                        snapshot,
                        path,
                        page_groups,
                        stats,
                        lane,
                        retry,
                        born=any(view is other for other in born_in_batch),
                    )
                except (SubstrateFault, VmError):
                    stats.faults += 1
                    with suppress_faults(column.substrate):
                        view.destroy()
                    stats.views_dropped += 1
                    stats.dropped_views.append(view)
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
