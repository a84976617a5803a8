"""Tables and the catalog: multi-column storage over one address space.

A :class:`Table` groups one :class:`~repro.storage.column.PhysicalColumn`
per attribute and offers the classical storage-layer interface the
paper's introduction describes — ``get_record(record_id)`` and
``record_iterator()`` — plus an update path that writes through the
physical pages and logs each change per column for later view alignment.

The :class:`Catalog` owns the simulated process (one
:class:`~repro.vm.mmap_api.MemoryMapper` / address space) and all tables
within it, mirroring the single-process in-memory system of the paper.
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from ..substrate.interface import Substrate
from ..substrate.simulated import SimulatedSubstrate
from ..vm.cost import CostModel
from ..vm.physical import PhysicalMemory
from .column import PhysicalColumn
from .tombstones import Tombstones
from .updates import UpdateBatch


class Table:
    """One table: named columns of equal row count."""

    def __init__(self, name: str, columns: Mapping[str, PhysicalColumn]) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        row_counts = {col.num_rows for col in columns.values()}
        if len(row_counts) != 1:
            raise ValueError(f"columns disagree on row count: {row_counts}")
        self.name = name
        self.columns: dict[str, PhysicalColumn] = dict(columns)
        self.num_rows = row_counts.pop()
        self._pending_updates: dict[str, UpdateBatch] = {
            name: UpdateBatch() for name in self.columns
        }
        #: Deleted rows stay physically in place (the views keep mapping
        #: their pages); every selection filters through this.
        self.tombstones = Tombstones(self.num_rows)

    @property
    def column_names(self) -> list[str]:
        """Attribute names in definition order."""
        return list(self.columns)

    def column(self, name: str) -> PhysicalColumn:
        """Look up a column by attribute name."""
        if name not in self.columns:
            raise KeyError(f"table {self.name!r} has no column {name!r}")
        return self.columns[name]

    # -- the classical storage-layer interface -------------------------------

    def get_record(self, record_id: int) -> tuple[int, ...]:
        """getRecord(recordID): the full tuple stored at ``record_id``.

        Raises :class:`KeyError` for tombstoned (deleted) rows.
        """
        if self.is_deleted(record_id):
            raise KeyError(f"row {record_id} has been deleted")
        return tuple(col.read(record_id) for col in self.columns.values())

    def record_iterator(self) -> Iterator[tuple[int, ...]]:
        """getRecordIterator(): iterate all live tuples in row order."""
        for row in range(self.num_rows):
            if not self.tombstones.is_deleted(row):
                yield self.get_record(row)

    # -- deletion (tombstones) -------------------------------------------

    @property
    def num_live_rows(self) -> int:
        """Rows not tombstoned."""
        return self.num_rows - self.tombstones.count

    def is_deleted(self, row: int) -> bool:
        """Whether ``row`` carries a tombstone."""
        return self.tombstones.is_deleted(row)

    def delete_rows(self, rows: np.ndarray) -> int:
        """Tombstone the given rows; returns how many were newly deleted."""
        return self.tombstones.delete_rows(rows)

    # -- updates -------------------------------------------------------------

    def update(self, column_name: str, row: int, new_value: int) -> int:
        """Write ``new_value`` to ``row`` of ``column_name``.

        The write goes through the full view (directly to the physical
        page) and is logged so partial views can be realigned in a batch
        later.  Returns the overwritten value.
        """
        if self.is_deleted(row):
            raise KeyError(f"cannot update deleted row {row}")
        column = self.column(column_name)
        old = column.write(row, new_value)
        self._pending_updates[column_name].record(row, old, new_value)
        return old

    def update_many(
        self, column_name: str, rows: np.ndarray, new_values: np.ndarray
    ) -> None:
        """Apply many updates to one column (logged like :meth:`update`)."""
        rows = np.asarray(rows)
        new_values = np.asarray(new_values, dtype=np.int64)
        if rows.shape != new_values.shape:
            raise ValueError("rows and new_values must align")
        for row, value in zip(rows.tolist(), new_values.tolist()):
            self.update(column_name, row, value)

    # -- appends (write-buffer merge) --------------------------------------

    def grow_rows(self, added: int) -> None:
        """Extend the table by ``added`` freshly appended rows.

        Called by the write-buffer merge after every column materialized
        the new values; new rows carry no tombstones.
        """
        if added < 0:
            raise ValueError(f"cannot grow by {added} rows")
        if added == 0:
            return
        self.num_rows += added
        self.tombstones.grow(added)

    def pending_updates(self, column_name: str) -> UpdateBatch:
        """Updates logged against ``column_name`` since the last drain."""
        self.column(column_name)  # validate the name
        return self._pending_updates[column_name]

    def drain_updates(self, column_name: str) -> UpdateBatch:
        """Hand over and reset the pending update log of a column."""
        batch = self.pending_updates(column_name)
        self._pending_updates[column_name] = UpdateBatch()
        return batch


class Catalog:
    """All tables of one process, sharing one memory substrate.

    The substrate is the backend the process runs on — simulated by
    default; pass ``substrate=`` (e.g. a
    :class:`~repro.substrate.native.NativeSubstrate`) to run on another
    backend.  Legacy callers passing ``memory=`` keep working: the
    :class:`~repro.vm.physical.PhysicalMemory` is wrapped in a simulated
    substrate.
    """

    def __init__(
        self,
        memory: PhysicalMemory | None = None,
        cost: CostModel | None = None,
        substrate: Substrate | None = None,
    ) -> None:
        if substrate is not None:
            if memory is not None:
                raise ValueError("pass either substrate= or memory=, not both")
            self.substrate = substrate
        else:
            self.substrate = SimulatedSubstrate(memory=memory, cost=cost)
        self._tables: dict[str, Table] = {}

    @property
    def cost(self) -> CostModel:
        """The shared cost model of the process."""
        return self.substrate.cost

    @property
    def memory(self) -> PhysicalMemory:
        """The simulated physical memory (simulated backend only)."""
        return self.substrate.memory

    @property
    def mapper(self):
        """The simulated memory mapper (simulated backend only)."""
        return self.substrate.mapper

    def create_table(self, name: str, data: Mapping[str, np.ndarray]) -> Table:
        """Create a table named ``name`` from per-column value arrays."""
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        columns = {
            col_name: PhysicalColumn.create(
                self.substrate, f"{name}.{col_name}", values
            )
            for col_name, values in data.items()
        }
        table = Table(name, columns)
        self._tables[name] = table
        return table

    def get_table(self, name: str) -> Table:
        """Look up an existing table."""
        if name not in self._tables:
            raise KeyError(f"no such table: {name!r}")
        return self._tables[name]

    def drop_table(self, name: str) -> None:
        """Drop a table and free its physical memory."""
        table = self.get_table(name)
        for column in table.columns.values():
            self.substrate.delete_file(column.file.name)
        del self._tables[name]

    def tables(self) -> list[Table]:
        """All tables in creation order."""
        return list(self._tables.values())
