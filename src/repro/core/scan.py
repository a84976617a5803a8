"""Vectorized multi-page scan-and-filter.

This is the batch counterpart of
:func:`repro.storage.page.scan_and_filter`: given the ordered list of
physical pages a view maps, it filters them against the query range in
a handful of numpy operations per block of pages and reports, per page,
the evidence Listing 1 needs — whether the page qualified and, for a
page that did not, the largest value below the range and the smallest
value above it.

Semantically it is identical to scanning page by page (the tests assert
exactly that); it exists because a Python-level loop over hundreds of
thousands of pages would drown the simulation in interpreter overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import fastpath
from ..storage.column import PhysicalColumn
from ..storage.page import clamp_range
from ..vm.cost import MAIN_LANE

#: Sentinel meaning "no value below the range on this page".
NO_BELOW = np.iinfo(np.int64).min

#: Sentinel meaning "no value above the range on this page".
NO_ABOVE = np.iinfo(np.int64).max


@dataclass
class BatchScanResult:
    """Outcome of scanning a sequence of physical pages against [lo, hi].

    The range evidence (:attr:`max_below` / :attr:`min_above`) is
    defined for **non-qualifying pages only** — the paper extends a
    candidate's range by "the largest value l' < l as well as the
    smallest value u' > u that we observe over all non-qualifying
    pages" (Section 2.2).  Qualifying pages carry the neutral sentinels
    :data:`NO_BELOW` / :data:`NO_ABOVE`, so reducing either array over
    all scanned pages yields exactly the paper's l' and u'.
    """

    #: The scanned physical pages, in scan order.
    fpages: np.ndarray
    #: Row ids of all qualifying values across the scanned pages.
    rowids: np.ndarray
    #: Qualifying values, aligned with :attr:`rowids`.
    values: np.ndarray
    #: Per scanned page: does it hold at least one qualifying value?
    page_qualifies: np.ndarray
    #: Per non-qualifying page: largest value < lo; :data:`NO_BELOW` if
    #: there is none or the page qualifies.
    max_below: np.ndarray
    #: Per non-qualifying page: smallest value > hi; :data:`NO_ABOVE` if
    #: there is none or the page qualifies.
    min_above: np.ndarray

    @property
    def qualifying_fpages(self) -> np.ndarray:
        """Physical pages with at least one hit, in scan order."""
        return self.fpages[self.page_qualifies]

    @property
    def pages_scanned(self) -> int:
        """Number of pages scanned."""
        return int(self.fpages.size)


#: Pages classified and filtered per step of the extent-first kernel.
#: Every temporary of a scan is O(this many pages) + O(hits), whatever
#: the length of the scanned page list; 256 pages are 1 MiB of values.
BLOCK_PAGES = 256


def joined(parts: list[np.ndarray]) -> np.ndarray:
    """The int64 parts as one array; a lone part is handed over as it
    is, not copied."""
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


def _valid_counts(column: PhysicalColumn, fpages: np.ndarray) -> np.ndarray | None:
    """Filled slots per given page, or None if all of them are full."""
    per_page = column.values_per_page
    if column.num_rows >= column.num_pages * per_page:
        return None
    last_page = column.num_pages - 1
    if not np.any(fpages == last_page):
        return None
    return np.minimum(
        per_page,
        np.maximum(column.num_rows - fpages * per_page, 0),
    )


def _slot_mask(counts: np.ndarray, per_page: int) -> np.ndarray:
    """Per-slot validity of pages holding ``counts`` filled slots."""
    return np.arange(per_page)[None, :] < counts[:, None]


def _block_values(file, block: np.ndarray) -> np.ndarray:
    """The values of the given pages, one row per page.

    Contiguous ascending runs (e.g. the full view) are sliced without a
    gather copy.
    """
    if block[-1] - block[0] == block.size - 1 and np.all(np.diff(block) == 1):
        return file.data[block[0] : block[0] + block.size]
    return file.data[block]


def _scan_by_extent(
    column: PhysicalColumn,
    fpages: np.ndarray,
    lo: int,
    hi: int,
    valid_counts: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Extent-first scan: ``(rowids, values, page_qualifies, max_below,
    min_above)`` of the given (non-empty) pages.

    Two plain reductions give every page's extent.  A page wholly below
    ``lo`` or wholly above ``hi`` is finished there: it cannot qualify
    and its evidence is the extent itself.  Only the remaining
    *straddling* pages are filtered against ``[lo, hi]``, and only those
    of them without a hit pay the masked reductions for their evidence.
    Nothing outlives the call — the extents are recomputed from the
    page contents by every scan, so, unlike a stored zone map, there is
    nothing for updates to invalidate.
    """
    file = column.file
    per_page = column.values_per_page
    n = fpages.size
    page_qualifies = np.zeros(n, dtype=bool)
    max_below = np.full(n, NO_BELOW, dtype=np.int64)
    min_above = np.full(n, NO_ABOVE, dtype=np.int64)
    rowid_parts: list[np.ndarray] = []
    value_parts: list[np.ndarray] = []

    for start in range(0, n, BLOCK_PAGES):
        stop = min(start + BLOCK_PAGES, n)
        block = fpages[start:stop]
        data = _block_values(file, block)
        page_min = data.min(axis=1)
        page_max = data.max(axis=1)
        counts = None if valid_counts is None else valid_counts[start:stop]
        if counts is not None and counts.min() < per_page:
            # The padding of a partial page must not enter its extent.
            partial = np.flatnonzero(counts < per_page)
            valid = _slot_mask(counts[partial], per_page)
            page_min[partial] = np.minimum.reduce(
                data[partial], axis=1, where=valid, initial=NO_ABOVE
            )
            page_max[partial] = np.maximum.reduce(
                data[partial], axis=1, where=valid, initial=NO_BELOW
            )

        below = page_max < lo
        above = page_min > hi
        np.copyto(max_below[start:stop], page_max, where=below)
        np.copyto(min_above[start:stop], page_min, where=above)
        straddling = np.flatnonzero(~(below | above))
        if straddling.size == 0:
            continue

        # One row per straddling page, contiguous, so that flat hit
        # positions index values and rowids alike.
        if straddling.size == block.size:
            sub = np.ascontiguousarray(data)
        else:
            sub = data[straddling]
        hit_mask = sub >= lo
        hit_mask &= sub <= hi
        valid = None
        if counts is not None and counts[straddling].min() < per_page:
            valid = _slot_mask(counts[straddling], per_page)
            hit_mask &= valid
        hits_per_page = np.count_nonzero(hit_mask, axis=1)
        has_hit = hits_per_page > 0
        page_qualifies[start + straddling] = has_hit

        hits = np.flatnonzero(hit_mask)
        if hits.size:
            # rowid = pageID * per_page + slot, and the flat position of
            # a hit is its row in ``sub`` * per_page + slot.
            rowid_shift = (
                file.headers[block[straddling]] - np.arange(straddling.size)
            ) * per_page
            rowid_parts.append(hits + np.repeat(rowid_shift, hits_per_page))
            value_parts.append(sub.reshape(-1)[hits])

        missed = np.flatnonzero(~has_hit)
        if missed.size:
            rows = sub[missed]
            below_mask = rows < lo
            above_mask = rows > hi
            if valid is not None:
                below_mask &= valid[missed]
                above_mask &= valid[missed]
            where = start + straddling[missed]
            max_below[where] = np.maximum.reduce(
                rows, axis=1, where=below_mask, initial=NO_BELOW
            )
            min_above[where] = np.minimum.reduce(
                rows, axis=1, where=above_mask, initial=NO_ABOVE
            )

    return (
        joined(rowid_parts),
        joined(value_parts),
        page_qualifies,
        max_below,
        min_above,
    )


def batch_scan(
    column: PhysicalColumn,
    fpages: np.ndarray,
    lo: int,
    hi: int,
    access_kind: str = "seq",
    lane: str = MAIN_LANE,
    charge: bool = True,
) -> BatchScanResult:
    """Scan-and-filter the given physical pages of ``column``.

    Charges one full page scan per page at the given ``access_kind``
    unless ``charge`` is false.
    """
    lo, hi = clamp_range(lo, hi)
    fpages = np.asarray(fpages, dtype=np.int64)
    if fpages.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return BatchScanResult(
            fpages=fpages,
            rowids=empty,
            values=empty.copy(),
            page_qualifies=np.empty(0, dtype=bool),
            max_below=empty.copy(),
            min_above=empty.copy(),
        )

    file = column.file
    valid_counts = _valid_counts(column, fpages)
    if fastpath.enabled():
        rowids, values, page_qualifies, max_below, min_above = _scan_by_extent(
            column, fpages, lo, hi, valid_counts
        )
    else:
        # The parity oracle: every page filtered whole, evidence from
        # full-size sentinel-filled copies, in one pass over all pages.
        data = file.data[fpages]
        qual_mask = (data >= lo) & (data <= hi)
        below_mask = data < lo
        above_mask = data > hi
        if valid_counts is not None:
            valid = _slot_mask(valid_counts, column.values_per_page)
            qual_mask &= valid
            below_mask &= valid
            above_mask &= valid
        page_qualifies = qual_mask.any(axis=1)
        max_below = np.where(below_mask, data, NO_BELOW).max(axis=1)
        min_above = np.where(above_mask, data, NO_ABOVE).min(axis=1)
        max_below[page_qualifies] = NO_BELOW
        min_above[page_qualifies] = NO_ABOVE
        page_idx, slots = np.nonzero(qual_mask)
        rowids = file.headers[fpages][page_idx] * column.values_per_page + slots
        values = data[page_idx, slots]

    if charge:
        cost = column.cost
        n = int(fpages.size)
        if valid_counts is None:
            total_values = n * column.values_per_page
        else:
            total_values = int(valid_counts.sum())
        cost.page_access(access_kind, n, lane)
        cost.page_header(n, lane)
        cost.stream_values(
            total_values * column.value_cost_factor, access_kind, lane
        )
        cost.ledger.count("pages_scanned", n)
        record = getattr(file, "record_batch_access", None)
        if record is not None:
            record(fpages, cost, lane=lane, kind=access_kind)

    return BatchScanResult(
        fpages=fpages,
        rowids=rowids,
        values=values,
        page_qualifies=page_qualifies,
        max_below=max_below,
        min_above=min_above,
    )
