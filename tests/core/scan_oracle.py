"""The whole-page scan, kept as the parity oracle of the scan kernel.

This is how ``repro.core.scan.batch_scan`` filtered pages before the
extent-first kernel replaced it: every page compared against the range
whole, the evidence reduced from full-size sentinel-filled copies, in
one pass over all pages.  It has ``_scan_by_extent``'s signature, so
``tests.oracle_paths.reference_paths`` can patch it in for the kernel;
``tests/core/test_scan.py``, ``test_scan_kernel.py`` and
``test_fastpath_parity.py`` then require both to give equal results and
ledgers.
"""

from __future__ import annotations

import numpy as np

from repro.core.scan import NO_ABOVE, NO_BELOW, _slot_mask


def oracle_scan_by_extent(
    read,
    headers: np.ndarray,
    lo: int,
    hi: int,
    valid_counts: np.ndarray | None,
    per_page: int,
    scattered: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(rowids, values, page_qualifies, max_below, min_above)`` of the
    given (non-empty) pages, every page filtered whole."""
    data = read(slice(0, headers.size))
    qual_mask = (data >= lo) & (data <= hi)
    below_mask = data < lo
    above_mask = data > hi
    if valid_counts is not None:
        valid = _slot_mask(valid_counts, per_page)
        qual_mask &= valid
        below_mask &= valid
        above_mask &= valid
    page_qualifies = qual_mask.any(axis=1)
    max_below = np.where(below_mask, data, NO_BELOW).max(axis=1)
    min_above = np.where(above_mask, data, NO_ABOVE).min(axis=1)
    max_below[page_qualifies] = NO_BELOW
    min_above[page_qualifies] = NO_ABOVE
    page_idx, slots = np.nonzero(qual_mask)
    rowids = headers[page_idx] * per_page + slots
    values = data[page_idx, slots]
    return rowids, values, page_qualifies, max_below, min_above
