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

:func:`write_rows` is the one code that lays rows into pages,
:func:`split_rows` reads them back in place, and :func:`int64_values` /
:func:`int64_value` are the one rule for what may be laid there:
integers that int64 holds exactly.
"""

from __future__ import annotations

import operator

import numpy as np

from ..vm.constants import (
    MAX_VALUE,
    MIN_VALUE,
    PAGE_HEADER_BYTES,
    PAGE_SIZE,
    VALUE_WIDTH,
    VALUES_PER_PAGE,
)


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


def int64_value(value, column: str) -> int:
    """``value`` as a Python int, or :class:`ValueError` naming
    ``column`` unless it is an integer (anything :func:`operator.index`
    takes: ints, bools, numpy integers) that int64 holds exactly."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(
            f"column {column!r} takes integers, got {value!r}"
        ) from None
    if not MIN_VALUE <= value <= MAX_VALUE:
        raise ValueError(f"column {column!r}: {value} is outside the int64 range")
    return value


def int64_values(values, column: str) -> np.ndarray:
    """``values`` as an int64 array under :func:`int64_value`'s rule.

    An int64 array passes as it is, in O(1); other integer dtypes are
    range-checked and converted, an object array (or a list numpy would
    widen to float) is checked value by value, and any other dtype
    (float, string, ...) is refused unless the array is empty.
    """
    array = np.asarray(values)
    if array.dtype.kind == "f" and not isinstance(values, np.ndarray):
        # numpy widens a list mixing ints beyond int64 to float: judge
        # the values themselves, not the dtype it picked
        array = np.asarray(values, dtype=object)
    dtype = array.dtype
    if dtype == np.int64:
        return array
    if dtype.kind in "biu":
        if array.size and not np.can_cast(dtype, np.int64):
            int64_value(int(array.max()), column)  # uint64: only the top can overflow
        return array.astype(np.int64)
    if dtype.kind == "O":
        checked = [int64_value(value, column) for value in array.ravel().tolist()]
        return np.array(checked, dtype=np.int64).reshape(array.shape)
    if array.size:
        raise ValueError(f"column {column!r} takes integers, got {dtype} values")
    return array.astype(np.int64)


def write_rows(data: np.ndarray, first_row: int, values: np.ndarray) -> None:
    """Write the int64 ``values`` into rows ``first_row`` onwards of a
    ``(pages, slots)`` page array, with slice writes only: the partial
    head page, the whole pages as one block, the partial tail page.

    ``data`` is either backend's store array — the simulated contiguous
    one or the native strided view over the file mapping — so only
    ``values`` is reshaped.  Slots past the last row keep what they
    held (a fresh store's padding reads zero on both backends).
    """
    per_page = data.shape[1]
    page, slot = divmod(first_row, per_page)
    head = min(-first_row % per_page, values.size)
    if head:
        data[page, slot : slot + head] = values[:head]
        page += 1
    whole, tail = divmod(values.size - head, per_page)
    end = head + whole * per_page
    data[page : page + whole] = values[head:end].reshape(whole, per_page)
    if tail:
        data[page + whole, :tail] = values[end:]


def split_rows(data: np.ndarray, num_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``0 .. num_rows - 1`` of a ``(pages, slots)`` page array as
    two views, copying nothing: the whole pages as one block and the
    partial last page's rows (empty when there are none).

    On the native backend's strided view a reshape of the whole array
    would copy it; these views let a reduction read the rows in place
    and a copy make exactly one pass.
    """
    whole, tail = divmod(num_rows, data.shape[1])
    return data[:whole], data[whole, :tail] if tail else data[:0, 0]
