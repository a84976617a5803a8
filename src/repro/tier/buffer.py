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

from operator import index
from typing import Mapping, Sequence

import numpy as np

from ..storage.layout import int64_value
from ..vm.constants import MAX_VALUE, MIN_VALUE


class WriteBuffer:
    """Staged full-row appends for one table."""

    def __init__(self, column_names: tuple[str, ...] | list[str]) -> None:
        self.column_names = tuple(column_names)
        self._rows: list[tuple[int, ...]] = []

    def __len__(self) -> int:
        return len(self._rows)

    def validated(
        self, values: Mapping[str, int] | Sequence[int]
    ) -> tuple[int, ...]:
        """The row ``values`` names (or lists in definition order), as
        int64s in definition order.

        The one validation a row gets on its way in: raises
        :class:`ValueError` unless ``values`` provides exactly the
        table's columns, each an integer int64 holds exactly
        (:func:`~repro.storage.layout.int64_value`: a wider value could
        be neither journaled nor merged into a column, and a float is
        refused, not truncated).
        """
        names = self.column_names
        if not isinstance(values, (dict, Mapping)):
            if len(values) != len(names):
                raise ValueError(
                    f"row has {len(values)} values for the {len(names)} "
                    f"columns {names}"
                )
            values = dict(zip(names, values))
        row = None
        if len(values) == len(names):
            try:
                row = tuple([index(values[name]) for name in names])
            except KeyError:
                pass  # as many columns, but not these
            except TypeError:  # not an integer: refused below
                row = ()
        if row is None:
            raise ValueError(
                f"row must provide exactly the columns {names}, "
                f"got {tuple(sorted(values))}"
            )
        for value in row:
            if not MIN_VALUE <= value <= MAX_VALUE:
                break
        else:
            if row:
                return row
        # refused: the per-value rule raises, naming the first culprit
        return tuple([int64_value(values[name], name) for name in names])

    def stage(self, rows: Sequence[tuple[int, ...]]) -> int:
        """Stage positional rows of the table's width — :meth:`validated`
        ones, or replayed frames whose width recovery checked; returns
        the first one's buffer position."""
        position = len(self._rows)
        self._rows.extend(rows)
        return position

    def append(self, values: Mapping[str, int]) -> int:
        """Validate and stage one row; returns its buffer position."""
        return self.stage((self.validated(values),))

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
