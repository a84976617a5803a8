"""Update records and batches (Section 2.4, step 1).

The paper aligns partial views against *batches* of updates.  Before any
view is touched, the batch is compacted so that only the very last update
to each row remains reflected — three updates ``(r, old_i, new_i)``,
``(r, old_j, new_j)``, ``(r, old_k, new_k)`` collapse into a single
``(r, old_i, new_k)``.  Afterwards the compacted updates are grouped by
the physical page they modify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from . import layout


@dataclass(frozen=True)
class UpdateRecord:
    """One update: row ``row`` changed from ``old`` to ``new``."""

    row: int
    old: int
    new: int

    @property
    def page(self) -> int:
        """Physical page (pageID) the update modifies, assuming the
        default 8 B-record layout; wide-record columns should use
        :meth:`page_for`."""
        return layout.row_to_page(self.row)

    def page_for(self, per_page: int) -> int:
        """Physical page of the update for a column storing ``per_page``
        records per page."""
        return layout.row_to_page(self.row, per_page)


class UpdateBatch:
    """An ordered sequence of updates applied to one column."""

    def __init__(self, updates: Iterable[UpdateRecord] = ()) -> None:
        self._updates: list[UpdateRecord] = list(updates)

    def __len__(self) -> int:
        return len(self._updates)

    def __iter__(self) -> Iterator[UpdateRecord]:
        return iter(self._updates)

    def __getitem__(self, idx: int) -> UpdateRecord:
        return self._updates[idx]

    def append(self, update: UpdateRecord) -> None:
        """Record one more update at the end of the batch."""
        self._updates.append(update)

    def record(self, row: int, old: int, new: int) -> None:
        """Convenience: append an :class:`UpdateRecord`."""
        self.append(UpdateRecord(row, old, new))

    def compact(self) -> "UpdateBatch":
        """Collapse repeated updates of a row into one record.

        Keeps the *first* old value and the *last* new value per row, so
        the compacted record reflects "the original value as well as the
        last written value".  Row order follows first appearance.
        """
        per_row: dict[int, tuple[int, int]] = {}
        for update in self._updates:
            if update.row in per_row:
                first_old, _ = per_row[update.row]
                per_row[update.row] = (first_old, update.new)
            else:
                per_row[update.row] = (update.old, update.new)
        return UpdateBatch(
            UpdateRecord(row, old, new) for row, (old, new) in per_row.items()
        )

    def group_by_page(
        self, per_page: int = layout.VALUES_PER_PAGE
    ) -> dict[int, list[UpdateRecord]]:
        """Group updates by the physical page they modify."""
        groups: dict[int, list[UpdateRecord]] = {}
        for update in self._updates:
            groups.setdefault(update.page_for(per_page), []).append(update)
        return groups

    def clear(self) -> None:
        """Drop all recorded updates."""
        self._updates.clear()
