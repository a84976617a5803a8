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

from ..storage import layout
from ..storage.column import PhysicalColumn
from ..storage.page import clamp_range
from ..vm.cost import MAIN_LANE

#: Sentinel meaning "no value below the range on this page".
NO_BELOW = np.iinfo(np.int64).min

#: Sentinel meaning "no value above the range on this page".
NO_ABOVE = np.iinfo(np.int64).max

#: The greatest turned value: the neutral start of a turned minimum.
NO_TURN = np.iinfo(np.uint64).max


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


def _filter(
    sub: np.ndarray,
    headers: np.ndarray,
    lo: int,
    hi: int,
    valid: np.ndarray | None,
    per_page: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(rowids, values, hits_per_page, max_below, min_above)`` of whole
    pages compared against ``[lo, hi]`` (``lo <= hi``).

    ``sub`` holds one page a row, contiguous, so that flat hit positions
    index values and rowids alike; ``headers`` are the rows' pageIDs and
    ``valid`` their filled slots (None: all).

    A page without a hit gets its evidence from a copy of its row.
    Counted up from ``lo`` round the wrapping value order, its values
    above ``hi`` come first and those below ``lo`` last: two plain
    reductions find the evidence — unless the page lies wholly on one
    side, where they find its own extreme instead, which is no evidence.
    """
    hit_mask = sub >= lo
    hit_mask &= sub <= hi
    if valid is not None:
        hit_mask &= valid
    # The flat hit positions ascend: a page's hits are those between
    # the flat positions of its first slot and the next page's.
    firsts = np.arange(0, (sub.shape[0] + 1) * per_page, per_page)
    hits = hit_mask.reshape(-1).nonzero()[0]
    ends = hits.searchsorted(firsts)
    hits_per_page = ends[1:] - ends[:-1]
    # rowid = pageID * per_page + slot, and the flat position of a hit
    # is its page's first slot + slot.
    rowids = hits + (headers * per_page - firsts[:-1]).repeat(hits_per_page)
    values = sub.reshape(-1)[hits]

    max_below = np.full(hits_per_page.size, NO_BELOW)
    min_above = np.full(hits_per_page.size, NO_ABOVE)
    missed = (hits_per_page == 0).nonzero()[0]
    if missed.size:
        rows = sub[missed]
        turned = np.subtract(rows, lo, out=rows).view(np.uint64)
        ok = True if valid is None else valid[missed]  # padding is no evidence
        above = np.minimum.reduce(turned, axis=1, where=ok, initial=NO_TURN)
        below = np.maximum.reduce(turned, axis=1, where=ok, initial=0)
        above = above.view(np.int64) + lo
        below = below.view(np.int64) + lo
        above[above <= hi] = NO_ABOVE
        below[below >= lo] = NO_BELOW
        min_above[missed] = above
        max_below[missed] = below
    return rowids, values, hits_per_page, max_below, min_above


def _valid_slots(
    valid_counts: np.ndarray | None, per_page: int
) -> np.ndarray | None:
    """Per-slot validity of pages with these fill counts, or None if all
    of them are full."""
    if valid_counts is None or valid_counts.min() == per_page:
        return None
    return _slot_mask(valid_counts, per_page)


def _emit(
    column: PhysicalColumn,
    fpages: np.ndarray,
    counts: np.ndarray,
    inside: np.ndarray,
    filtered: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """``(rowids, values)`` of a scan, written once into one allocation.

    ``counts`` are the hits of every scanned page; the pages at the
    positions ``inside`` lie wholly inside the range and are copied
    without a mask, a run of consecutive pages at a time.  ``filtered``
    holds the straddling chunks' ``(positions, hits_per_page, rowids,
    values)``, copied to their pages' places a stretch at a time.
    """
    starts = counts.cumsum()
    total = int(starts[-1])
    starts -= counts
    rowids = np.empty(total, dtype=np.int64)
    values = np.empty(total, dtype=np.int64)
    for chunk, hits_per_page, chunk_rowids, chunk_values in filtered:
        if not chunk_rowids.size:
            continue
        # A chunk's hits are in page order, as the result's are: the hits
        # of its pages between two inside pages are one stretch of both.
        ends = hits_per_page.cumsum()
        begins = ends - hits_per_page
        shift = starts[chunk] - begins
        cuts = ((shift[1:] != shift[:-1]).nonzero()[0] + 1).tolist()
        firsts, lasts = [0, *cuts], [cut - 1 for cut in cuts] + [chunk.size - 1]
        for begin, end, at in zip(
            begins[firsts].tolist(), ends[lasts].tolist(), starts[chunk[firsts]].tolist()
        ):
            rowids[at : at + end - begin] = chunk_rowids[begin:end]
            values[at : at + end - begin] = chunk_values[begin:end]

    data, headers = column.file.data, column.file.headers
    per_page = column.values_per_page
    slots = np.arange(per_page)
    full = inside[counts[inside] == per_page]
    if full.size:
        # A run: positions in a row whose pages follow one another in the
        # file, so that its rows are one slab of the store.
        pages = fpages[full]
        cuts = ((full[1:] - full[:-1] != 1) | (pages[1:] - pages[:-1] != 1)).nonzero()[0]
        cuts = (cuts + 1).tolist()
        for first, end in zip([0, *cuts], [*cuts, full.size]):
            page, k = int(pages[first]), end - first
            at = int(starts[full[first]])
            out = slice(at, at + k * per_page)
            values[out].reshape(k, per_page)[...] = data[page : page + k]
            np.add(
                (headers[page : page + k] * per_page)[:, None],
                slots,
                out=rowids[out].reshape(k, per_page),
            )
    for i in inside[counts[inside] < per_page].tolist():
        # The padded last page: its filled slots only.
        page, filled, at = int(fpages[i]), int(counts[i]), int(starts[i])
        values[at : at + filled] = data[page, :filled]
        rowids[at : at + filled] = slots[:filled] + int(headers[page]) * per_page
    return rowids, values


def _scan_by_extent(
    column: PhysicalColumn,
    fpages: np.ndarray,
    lo: int,
    hi: int,
    valid_counts: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(rowids, values, page_qualifies, max_below, min_above)`` of the
    given (non-empty) pages.

    A page list that is one run, or longer than a block, is scanned
    extent-first, in three phases that each run once per scan.
    *Extents*: two reductions give every page's min and max.
    *Classify*: a page wholly below ``lo`` or wholly above ``hi`` is
    finished — it cannot qualify and its evidence is the extent itself.
    A page wholly *inside* ``[lo, hi]`` is finished too — every filled
    slot is a hit, so it is emitted without a mask — when such pages are
    at least half of those that reach the range; fewer are filtered with
    the straddlers, which costs less than assembling around them.
    *Filter*: only the remaining *straddling* pages are compared against
    ``[lo, hi]``, a chunk at a time, and those of them without a hit get
    their evidence from two more reductions.

    Without pages emitted whole, the filtered hits are the result: a
    lone chunk's arrays are handed up as they are.  With them, the
    result is allocated once, sized from the per-page hit counts: an
    inside run's values are one copy of its rows, its rowids ``header *
    per_page + slot`` written in one pass, and the straddlers' hits are
    copied to their pages' places.

    A scattered list that fits one block — a view hit — is gathered once
    and filtered whole, mask first: a view's pages nearly all straddle
    its range, so an extent pass would classify next to nothing.  Only
    its pages without a hit are reduced, for their evidence.

    Nothing outlives the call — the extents are recomputed from the page
    contents by every scan, so, unlike a stored zone map, there is
    nothing for updates to invalidate.  Methods (``.nonzero()``,
    ``.repeat()``) stand where numpy's Python-level wrappers would: on a
    scan of a few dozen pages those cost more than the work.
    """
    file = column.file
    data = file.data
    per_page = column.values_per_page
    n = fpages.size
    first = int(fpages[0])
    if fpages[-1] - first == n - 1 and (fpages == np.arange(first, first + n)).all():
        pages = data[first : first + n]  # the full view, any run: read in place
    elif n <= BLOCK_PAGES and lo <= hi:
        valid = _valid_slots(valid_counts, per_page)
        rowids, values, hits_per_page, below, above = _filter(
            data[fpages], file.headers[fpages], lo, hi, valid, per_page
        )
        return rowids, values, hits_per_page > 0, below, above
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
    # two vectors become the evidence where they stand.  A page wholly
    # inside reaches both ends, so its evidence is the sentinels.
    reaches_lo = page_max >= lo
    reaches_hi = page_min <= hi
    straddles = reaches_lo & reaches_hi
    is_inside = page_min >= lo
    is_inside &= page_max <= hi
    inside = is_inside.nonzero()[0]
    straddling = straddles.nonzero()[0]
    if inside.size and 2 * inside.size >= straddling.size:
        # Pages wholly inside are copied, not filtered, when they are at
        # least half the pages that reach the range; with fewer, the
        # assembly costs more than the comparisons it saves.  Half is the
        # measured break-even (docs/performance.md, "The kernels"):
        # copying them costs 1.28x the filter at a 13 % share, 1.00x at
        # 51 % and 0.44x at 99 %.
        straddling = (straddles & ~is_inside).nonzero()[0]
    else:
        inside = inside[:0]
    max_below, min_above = page_max, page_min
    max_below[reaches_lo] = NO_BELOW
    min_above[reaches_hi] = NO_ABOVE
    counts = np.zeros(n, dtype=np.int64)
    if inside.size:
        counts[inside] = per_page if valid_counts is None else valid_counts[inside]
    filtered: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    for start in range(0, straddling.size, BLOCK_PAGES):
        chunk = straddling[start : start + BLOCK_PAGES]
        if pages is None:
            sub = data[fpages[chunk]]
        elif chunk[-1] - chunk[0] == chunk.size - 1:
            sub = np.ascontiguousarray(pages[chunk[0] : chunk[-1] + 1])
        else:
            sub = pages[chunk]
        valid = None if valid_counts is None else _valid_slots(valid_counts[chunk], per_page)
        rowids, values, hits_per_page, below, above = _filter(
            sub, file.headers[fpages[chunk]], lo, hi, valid, per_page
        )
        counts[chunk] = hits_per_page
        filtered.append((chunk, hits_per_page, rowids, values))
        max_below[chunk] = below
        min_above[chunk] = above

    if inside.size:
        rowids, values = _emit(column, fpages, counts, inside, filtered)
    else:
        rowids = joined([part[2] for part in filtered if part[2].size])
        values = joined([part[3] for part in filtered if part[3].size])
    return rowids, values, counts > 0, max_below, min_above


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

    per_page = column.values_per_page
    valid_counts = None  # every given page is full
    if column.num_rows < column.num_pages * per_page and np.any(
        fpages == column.num_pages - 1
    ):
        # only the last page of a column can be partial
        valid_counts = layout.rows_in_pages(fpages, column.num_rows, per_page)
    rowids, values, page_qualifies, max_below, min_above = _scan_by_extent(
        column, fpages, lo, hi, valid_counts
    )

    if charge:
        cost = column.cost
        factor = column.value_cost_factor
        cost.full_page_scan(
            per_page * factor,
            int(fpages.size),
            access_kind,
            lane,
            values=None if valid_counts is None else int(valid_counts.sum()) * factor,
        )
        if column.tier is not None:
            column.tier.record_batch_access(fpages, cost, lane=lane, kind=access_kind)

    return BatchScanResult(
        fpages=fpages,
        rowids=rowids,
        values=values,
        page_qualifies=page_qualifies,
        max_below=max_below,
        min_above=min_above,
    )
