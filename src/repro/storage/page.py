"""Page-level scan-and-filter, the innermost query-processing kernel.

``scan_and_filter`` is the operation Listing 1 of the paper performs per
page: read the embedded pageID, filter the page's values against the
query range, and report the page-local evidence needed for the candidate
view's range extension — the largest observed value *below* the range and
the smallest observed value *above* it.

Note on the paper's pseudo-code: Listing 1 names these two outputs
``minValue``/``maxValue``, but the accompanying text (Section 2.2) makes
the intended semantics explicit — "we maintain the largest value l' < l
as well as the smallest value u' > u that we observe over all
non-qualifying pages".  We implement the text's semantics, which stays
correct for pages holding values on both sides of the query range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..substrate.interface import PageStore
from ..vm.constants import MAX_VALUE, MIN_VALUE
from ..vm.cost import MAIN_LANE, CostModel


@dataclass(frozen=True)
class PageScanResult:
    """Outcome of scanning one page against a value range ``[lo, hi]``."""

    #: Row ids of qualifying values (derived from the embedded pageID).
    rowids: np.ndarray
    #: The qualifying values themselves, aligned with :attr:`rowids`.
    values: np.ndarray
    #: Largest page value strictly below ``lo`` (None if none exists).
    max_below: int | None
    #: Smallest page value strictly above ``hi`` (None if none exists).
    min_above: int | None

    @property
    def empty(self) -> bool:
        """True if no value on the page qualified."""
        return self.rowids.size == 0


def clamp_range(lo: int, hi: int) -> tuple[int, int]:
    """Clamp a query range to the storable int64 value domain."""
    return max(lo, MIN_VALUE), min(hi, MAX_VALUE)


def scan_and_filter(
    file: PageStore,
    fpage: int,
    lo: int,
    hi: int,
    valid_count: int | None = None,
    values_per_page: int | None = None,
    cost: CostModel | None = None,
    cost_factor: int = 1,
    access_kind: str = "seq",
    lane: str = MAIN_LANE,
) -> PageScanResult:
    """Scan physical page ``fpage`` of ``file`` for values in ``[lo, hi]``.

    ``file`` is any :class:`~repro.substrate.interface.PageStore` — a
    simulated memory file or a native memfd-backed store.

    ``valid_count`` limits the scan to the page's filled prefix (the last
    page of a column may be partial); ``values_per_page`` is the page's
    record capacity (defaults to the file's slot count) and determines
    the rowid arithmetic.  ``cost_factor`` scales the charged value reads
    for wide records (bytes streamed per record / 8).  ``access_kind``
    selects the page access cost ("seq", "random", "prefetched",
    "strided").
    """
    lo, hi = clamp_range(lo, hi)
    if values_per_page is None:
        values_per_page = file.slots_per_page
    if valid_count is None:
        valid_count = values_per_page
    page_id = file.page_id(fpage)
    values = file.page_values(fpage)[:valid_count]

    mask = (values >= lo) & (values <= hi)
    slots = np.nonzero(mask)[0]
    qualifying = values[slots]
    rowids = page_id * values_per_page + slots

    below = values[values < lo]
    above = values[values > hi]
    max_below = int(below.max()) if below.size else None
    min_above = int(above.min()) if above.size else None

    if cost is not None:
        cost.full_page_scan(
            valid_count * cost_factor, 1, kind=access_kind, lane=lane
        )

    return PageScanResult(
        rowids=rowids.astype(np.int64),
        values=qualifying,
        max_below=max_below,
        min_above=min_above,
    )
