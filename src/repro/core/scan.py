"""Vectorized multi-page scan-and-filter.

This is the batch counterpart of
:func:`repro.storage.page.scan_and_filter`: given the ordered list of
physical pages a view maps, it filters them against the query range in
a handful of numpy operations per scan and reports, per page, the
evidence Listing 1 needs — whether the page qualified and, for a
page that did not, the largest value below the range and the smallest
value above it.

Semantically it is identical to scanning page by page (the tests assert
exactly that); it exists because a Python-level loop over hundreds of
thousands of pages would drown the simulation in interpreter overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

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


#: Pages per step of the extent pass and of the straddler filter.  Every
#: temporary of a scan is O(this many pages) + O(hits) beside the
#: per-page result vectors; 256 pages are 1 MiB of values.
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


def _page_extents(rows: np.ndarray, page_min: np.ndarray, page_max: np.ndarray) -> None:
    """Write the min and max of every row of ``rows`` into the vectors.

    The rows are read where they lie, as segments of one flat view of
    their memory that ``reduceat`` reduces one by one.  Rows back to
    back (the simulated layout, a gathered copy) are told apart by their
    starts alone; rows with a gap between them (the native layout: a
    header slot before every page) by ``[start, end)`` pairs, and the
    one-slot results ``reduceat`` leaves for the gaps are dropped.  Both
    reductions visit a block of pages before either moves on, so that
    the second reads what the first left in the cache.
    """
    m, per_page = rows.shape
    stride = rows.strides[0] // rows.itemsize
    bounds = np.arange(m) * stride
    if stride == per_page:
        flat, step = rows.reshape(-1), 1
    else:
        span = (m - 1) * stride + per_page
        flat, step = as_strided(rows, (span,), (rows.itemsize,), writeable=False), 2
        bounds = np.repeat(bounds, 2)
        bounds[1::2] += per_page
    for start in range(0, m, BLOCK_PAGES):
        stop = min(start + BLOCK_PAGES, m)
        last = step * (stop - 1)
        segments = bounds[step * start : last + 1]
        block = flat[: bounds[last] + per_page]
        page_min[start:stop] = np.minimum.reduceat(block, segments)[::step]
        page_max[start:stop] = np.maximum.reduceat(block, segments)[::step]


def _scan_by_extent(
    column: PhysicalColumn,
    fpages: np.ndarray,
    lo: int,
    hi: int,
    valid_counts: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Extent-first scan: ``(rowids, values, page_qualifies, max_below,
    min_above)`` of the given (non-empty) pages, in three phases that
    each run once per scan.

    *Extents*: two reductions give every page's min and max.  *Classify*:
    a page wholly below ``lo`` or wholly above ``hi`` is finished — it
    cannot qualify and its evidence is the extent itself.  *Filter*:
    only the remaining *straddling* pages are compared against
    ``[lo, hi]``, a chunk at a time, and those of them without a hit
    get their evidence from two more reductions.  Nothing outlives the
    call — the extents are recomputed from the page contents by every
    scan, so, unlike a stored zone map, there is nothing for updates to
    invalidate.  Methods (``.nonzero()``, ``.repeat()``) stand where
    numpy's Python-level wrappers would: on a scan of a few dozen pages
    those cost more than the work.
    """
    file = column.file
    data = file.data
    per_page = column.values_per_page
    n = fpages.size
    first = int(fpages[0])
    if fpages[-1] - first == n - 1 and (fpages == np.arange(first, first + n)).all():
        pages = data[first : first + n]  # the full view, any run: read in place
    elif n <= BLOCK_PAGES:
        pages = data[fpages]  # a view hit: gathered once, for all phases
    else:
        pages = None  # gathered a block at a time

    page_min = np.empty(n, dtype=np.int64)
    page_max = np.empty(n, dtype=np.int64)
    if pages is not None:
        _page_extents(pages, page_min, page_max)
    else:
        for start in range(0, n, BLOCK_PAGES):
            block = slice(start, start + BLOCK_PAGES)
            _page_extents(data[fpages[block]], page_min[block], page_max[block])
    if valid_counts is not None:
        # The padding of a partial page must not enter its extent.
        partial = (valid_counts < per_page).nonzero()[0]
        rows = data[fpages[partial]]
        valid = _slot_mask(valid_counts[partial], per_page)
        page_min[partial] = np.minimum.reduce(
            rows, axis=1, where=valid, initial=NO_ABOVE
        )
        page_max[partial] = np.maximum.reduce(
            rows, axis=1, where=valid, initial=NO_BELOW
        )

    # The extent of a page wholly outside [lo, hi] is its evidence: the
    # two vectors become the evidence where they stand.
    reaches_lo = page_max >= lo
    reaches_hi = page_min <= hi
    straddling = (reaches_lo & reaches_hi).nonzero()[0]
    max_below, min_above = page_max, page_min
    max_below[reaches_lo] = NO_BELOW
    min_above[reaches_hi] = NO_ABOVE
    page_qualifies = np.zeros(n, dtype=bool)
    rowid_parts: list[np.ndarray] = []
    value_parts: list[np.ndarray] = []

    for start in range(0, straddling.size, BLOCK_PAGES):
        chunk = straddling[start : start + BLOCK_PAGES]
        # One row per straddling page, contiguous, so that flat hit
        # positions index values and rowids alike.
        if pages is None:
            sub = data[fpages[chunk]]
        elif chunk[-1] - chunk[0] == chunk.size - 1:
            sub = np.ascontiguousarray(pages[chunk[0] : chunk[-1] + 1])
        else:
            sub = pages[chunk]
        hit_mask = sub >= lo
        hit_mask &= sub <= hi
        valid = None
        if valid_counts is not None and valid_counts[chunk].min() < per_page:
            valid = _slot_mask(valid_counts[chunk], per_page)
            hit_mask &= valid
        # The flat hit positions ascend: a page's hits are those between
        # its two boundaries.
        hits = hit_mask.reshape(-1).nonzero()[0]
        ends = hits.searchsorted(np.arange(chunk.size + 1) * per_page)
        hits_per_page = ends[1:] - ends[:-1]
        has_hit = hits_per_page > 0
        page_qualifies[chunk] = has_hit
        if hits.size:
            # rowid = pageID * per_page + slot, and the flat position of
            # a hit is its row in ``sub`` * per_page + slot.
            rowid_shift = (
                file.headers[fpages[chunk]] - np.arange(chunk.size)
            ) * per_page
            rowid_parts.append(hits + rowid_shift.repeat(hits_per_page))
            value_parts.append(sub.reshape(-1)[hits])

        missed = (~has_hit).nonzero()[0]
        if missed.size == 0:
            continue
        where = chunk[missed]
        rows = sub[missed]
        if valid is None:
            # A straddling page without a hit has values on both sides.
            # Counted up from ``lo`` round the wrapping value order,
            # those above ``hi`` come first and those below ``lo`` last:
            # two plain reductions find the evidence.
            turned = np.subtract(rows, lo, out=rows).view(np.uint64)
            min_above[where] = np.minimum.reduce(turned, axis=1).view(np.int64) + lo
            max_below[where] = np.maximum.reduce(turned, axis=1).view(np.int64) + lo
        else:  # a chunk with a padded page: its padding is no evidence
            ok = valid[missed]
            min_above[where] = np.minimum.reduce(
                rows, axis=1, where=ok & (rows > hi), initial=NO_ABOVE
            )
            max_below[where] = np.maximum.reduce(
                rows, axis=1, where=ok & (rows < lo), initial=NO_BELOW
            )

    return joined(rowid_parts), joined(value_parts), page_qualifies, max_below, min_above


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
    rowids, values, page_qualifies, max_below, min_above = _scan_by_extent(
        column, fpages, lo, hi, valid_counts
    )

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
