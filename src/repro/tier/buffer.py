"""The write buffer: batched ingest ahead of the columns.

Appends are staged as whole rows in an in-memory buffer and merged into
the physical columns in one batch during maintenance (or when the
buffer reaches its configured size) — the LSM-flavoured ingest path
that keeps append-heavy workloads from paying a view realignment per
row.  Staged rows are immediately visible to queries: the facade scans
the buffer (charged as a sequential value scan) and merges the matches
behind the column results, with rowids continuing past the last
materialized row.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..vm.constants import MAX_VALUE, MIN_VALUE


class WriteBuffer:
    """Staged full-row appends for one table."""

    def __init__(self, column_names: tuple[str, ...] | list[str]) -> None:
        self.column_names = tuple(column_names)
        self._rows: list[tuple[int, ...]] = []

    def __len__(self) -> int:
        return len(self._rows)

    def validated(self, values: Mapping[str, int]) -> tuple[int, ...]:
        """The row ``values`` names, as int64s in definition order.

        The one validation a row gets on its way in: raises
        :class:`ValueError` unless ``values`` provides exactly the
        table's columns, each within int64 (a wider value could be
        neither journaled nor merged into a column).
        """
        names = self.column_names
        row = None
        if len(values) == len(names):
            try:
                row = tuple([int(values[name]) for name in names])
            except KeyError:
                pass  # as many columns, but not these
        if row is None:
            raise ValueError(
                f"row must provide exactly the columns {names}, "
                f"got {tuple(sorted(values))}"
            )
        for value in row:
            if not MIN_VALUE <= value <= MAX_VALUE:
                raise ValueError(f"row value outside the int64 range: {row}")
        return row

    def stage(self, row: tuple[int, ...]) -> int:
        """Stage one :meth:`validated` row; returns its buffer position."""
        self._rows.append(row)
        return len(self._rows) - 1

    def append(self, values: Mapping[str, int]) -> int:
        """Validate and stage one row; returns its buffer position."""
        return self.stage(self.validated(values))

    def column_values(self, name: str) -> np.ndarray:
        """All staged values of one column, in append order."""
        idx = self.column_names.index(name)
        return np.array(
            [row[idx] for row in self._rows], dtype=np.int64
        )

    def matching(
        self, name: str, lo: int, hi: int, base_row: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Staged rows of ``name`` in ``[lo, hi]``; rowids from ``base_row``."""
        values = self.column_values(name)
        mask = (values >= lo) & (values <= hi)
        slots = np.nonzero(mask)[0]
        return (base_row + slots).astype(np.int64), values[slots]

    def clear(self) -> None:
        """Drop all staged rows (they were merged)."""
        self._rows.clear()
