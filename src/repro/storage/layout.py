"""Row ↔ (page, slot) arithmetic for the columnar page layout.

Every physical page embeds an 8 B ``pageID`` header followed by the
record slots (Section 2 of the paper).  The pageID lets a scan of an
arbitrarily-ordered partial view identify, for each record it reads,
which tuple the record belongs to:

    rowid = pageID * records_per_page + slot

By default records are single 8 B values (``VALUES_PER_PAGE`` = 511 per
page); all functions also take an explicit ``per_page`` for columns with
wider records (see :meth:`repro.storage.column.PhysicalColumn.create`'s
``record_bytes``).
"""

from __future__ import annotations

import numpy as np

from ..vm.constants import PAGE_HEADER_BYTES, PAGE_SIZE, VALUE_WIDTH, VALUES_PER_PAGE


def records_per_page(record_bytes: int = VALUE_WIDTH) -> int:
    """Records of ``record_bytes`` bytes that fit a page next to the
    pageID header."""
    if record_bytes < VALUE_WIDTH:
        raise ValueError(f"records must hold at least an 8 B key, got {record_bytes}")
    per_page = (PAGE_SIZE - PAGE_HEADER_BYTES) // record_bytes
    if per_page < 1:
        raise ValueError(f"record of {record_bytes} B does not fit one page")
    return per_page


def row_to_page(row: int, per_page: int = VALUES_PER_PAGE) -> int:
    """Page (pageID) holding ``row``."""
    if row < 0:
        raise ValueError(f"negative row id: {row}")
    return row // per_page


def row_to_slot(row: int, per_page: int = VALUES_PER_PAGE) -> int:
    """Slot of ``row`` within its page."""
    if row < 0:
        raise ValueError(f"negative row id: {row}")
    return row % per_page


def pages_for_rows(num_rows: int, per_page: int = VALUES_PER_PAGE) -> int:
    """Number of pages needed to store ``num_rows`` records."""
    if num_rows <= 0:
        raise ValueError(f"need a positive row count, got {num_rows}")
    return (num_rows + per_page - 1) // per_page


def rows_in_page(
    page_id: int, num_rows: int, per_page: int = VALUES_PER_PAGE
) -> int:
    """Number of valid records on page ``page_id`` of a column with
    ``num_rows`` rows (the last page may be partially filled)."""
    first_row = page_id * per_page
    if first_row >= num_rows:
        return 0
    return min(per_page, num_rows - first_row)


def rows_in_pages(
    page_ids: np.ndarray, num_rows: int, per_page: int = VALUES_PER_PAGE
) -> np.ndarray:
    """:func:`rows_in_page` of every page in ``page_ids`` at once."""
    return np.minimum(np.maximum(num_rows - page_ids * per_page, 0), per_page)
