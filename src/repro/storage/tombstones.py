"""Tombstones: which rows of a table are deleted, and how many.

Deleted rows stay physically in place — the views keep mapping their
pages — and are filtered out at selection time.  Every selection first
asks whether anything is deleted at all; the count kept beside the
bitmap answers that with one integer, however long the table is.
"""

from __future__ import annotations

import numpy as np


class Tombstones:
    """Tombstone bitmap of one table plus the count of its set bits."""

    def __init__(self, num_rows: int) -> None:
        self._deleted = np.zeros(num_rows, dtype=bool)
        #: Rows currently tombstoned (``== self._deleted.sum()``).
        self.count = 0

    def is_deleted(self, row: int) -> bool:
        """Whether ``row`` carries a tombstone."""
        if not 0 <= row < self._deleted.size:
            raise IndexError(f"row {row} out of range")
        return bool(self._deleted[row])

    def delete_rows(self, rows: np.ndarray) -> int:
        """Tombstone ``rows``; returns how many were newly deleted.

        Duplicates and rows deleted before count once or not at all; the
        count comes from the rows named, not from the whole bitmap.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return 0
        if rows.min() < 0 or rows.max() >= self._deleted.size:
            raise IndexError("row id out of range in delete")
        fresh = int(np.unique(rows[~self._deleted[rows]]).size)
        self._deleted[rows] = True
        self.count += fresh
        return fresh

    def live_row_mask(self, rows: np.ndarray) -> np.ndarray | None:
        """Boolean keep-mask for a selection, or None when nothing is
        deleted (the fast path)."""
        if not self.count:
            return None
        return ~self._deleted[np.asarray(rows, dtype=np.int64)]

    def filter_live(self, rows: np.ndarray) -> np.ndarray:
        """Drop tombstoned rows from a selection result."""
        rows = np.asarray(rows, dtype=np.int64)
        keep = self.live_row_mask(rows)
        return rows if keep is None else rows[keep]

    def mask(self) -> np.ndarray | None:
        """Copy of the bitmap, or None when nothing is deleted.

        Snapshot readers capture this at pin time, so that they filter
        exactly the rows that were deleted *then*.
        """
        return self._deleted.copy() if self.count else None

    def restore(self, mask: np.ndarray) -> None:
        """Install a checkpointed bitmap (recovery path)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self._deleted.shape:
            raise ValueError(
                f"tombstone mask of shape {mask.shape} does not fit a "
                f"table of {self._deleted.size} rows"
            )
        self._deleted = mask.copy()
        self.count = int(mask.sum())

    def grow(self, added: int) -> None:
        """Extend the bitmap by ``added`` live rows."""
        self._deleted = np.concatenate(
            [self._deleted, np.zeros(added, dtype=bool)]
        )
