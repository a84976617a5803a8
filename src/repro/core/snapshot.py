"""Virtual-memory snapshots of a column (extension).

The rewiring substrate the paper builds on was originally introduced for
*snapshotting* (RUMA [15], AnyOLAP [16], and process-based HyPer [9] in
the paper's related work).  This module adds that capability on top of
the same substrate:

* a :class:`ColumnSnapshot` starts as **one** shared mapping of the whole
  column — zero copying, the snapshot initially shares every physical
  page with the live column;
* before the live column overwrites a page for the first time after the
  snapshot, the page is preserved copy-on-write: its content moves into
  a snapshot-private main-memory file and the snapshot's virtual page is
  rewired onto the copy;
* the snapshot therefore always reads the column exactly as it was at
  creation time, at a cost proportional to the pages actually modified.

The :class:`SnapshotManager` hooks the column's write path and fans the
preserve signal out to all live snapshots.
"""

from __future__ import annotations

import numpy as np

from ..storage import layout
from ..storage.column import PhysicalColumn
from ..storage.page import clamp_range
from ..substrate.interface import PageStore
from ..vm.cost import MAIN_LANE


class ColumnSnapshot:
    """A consistent point-in-time view of one column.

    Create via :meth:`SnapshotManager.create_snapshot`.
    """

    _counter = 0

    def __init__(self, column: PhysicalColumn, lane: str = MAIN_LANE) -> None:
        ColumnSnapshot._counter += 1
        self.snapshot_id = ColumnSnapshot._counter
        self.column = column
        self.substrate = column.substrate
        self.num_rows = column.num_rows
        self.num_pages = column.num_pages
        # One shared mapping of the whole column: the cheap part.
        self.base_vpn = self.substrate.map_file(
            self.num_pages, column.file, file_page=0, lane=lane
        )
        self._copy_file: PageStore | None = None
        self._copy_of: dict[int, int] = {}  # column page -> copy-file page
        self.alive = True

    @property
    def copied_pages(self) -> int:
        """Pages preserved copy-on-write so far."""
        return len(self._copy_of)

    def _copy_file_handle(self) -> PageStore:
        if self._copy_file is None:
            name = f"{self.column.file.name}.snap{self.snapshot_id}"
            self._copy_file = self.substrate.create_file(
                name, 1, slots_per_page=self.column.values_per_page
            )
            self._copy_file.headers[0] = -1  # slot 0 unused until claimed
        return self._copy_file

    def preserve_page(self, fpage: int, lane: str = MAIN_LANE) -> bool:
        """Copy ``fpage`` before the live column overwrites it.

        Returns True if a copy was made (False when the page is already
        preserved or the snapshot is released).  Charges the page copy
        (read + write) and the single-page rewiring of the snapshot's
        virtual page onto the copy.
        """
        if not self.alive or fpage in self._copy_of:
            return False
        self.column.file.check_page(fpage)
        copy_file = self._copy_file_handle()
        if self._copy_of:
            copy_file.resize(copy_file.num_pages + 1)
        copy_page = copy_file.num_pages - 1
        copy_file.data[copy_page] = self.column.file.data[fpage]
        copy_file.headers[copy_page] = self.column.file.headers[fpage]
        self._copy_of[fpage] = copy_page

        cost = self.substrate.cost
        per_page = self.column.values_per_page * self.column.value_cost_factor
        cost.full_page_scan(per_page, 1, kind="random", lane=lane)
        cost.value_write(per_page, lane)
        self.substrate.map_fixed(
            self.base_vpn + fpage, 1, copy_file, copy_page, lane=lane
        )
        cost.ledger.count("snapshot_pages_copied")
        return True

    # -- reads -----------------------------------------------------------

    def _page_values(self, fpage: int) -> np.ndarray:
        copy_page = self._copy_of.get(fpage)
        if copy_page is None:
            return self.column.file.data[fpage]
        assert self._copy_file is not None
        return self._copy_file.data[copy_page]

    def read(self, row: int, lane: str = MAIN_LANE) -> int:
        """Read one row as of snapshot time."""
        self._check_alive()
        if not 0 <= row < self.num_rows:
            raise IndexError(f"row {row} out of range")
        per_page = self.column.values_per_page
        page = layout.row_to_page(row, per_page)
        slot = layout.row_to_slot(row, per_page)
        self.substrate.cost.page_access("random", 1, lane)
        return int(self._page_values(page)[slot])

    def values(self) -> np.ndarray:
        """All rows as of snapshot time (verification helper, uncharged)."""
        self._check_alive()
        out = np.empty(
            (self.num_pages, self.column.values_per_page), dtype=np.int64
        )
        for fpage in range(self.num_pages):
            out[fpage] = self._page_values(fpage)
        return out.reshape(-1)[: self.num_rows]

    def scan(
        self, lo: int, hi: int, lane: str = MAIN_LANE
    ) -> tuple[np.ndarray, np.ndarray]:
        """Range-filter the snapshot; returns (rowids, values), charged
        as a sequential scan of the snapshot's virtual area."""
        self._check_alive()
        lo, hi = clamp_range(lo, hi)
        all_rowids = []
        all_values = []
        for fpage in range(self.num_pages):
            values = self._page_values(fpage)
            valid = layout.rows_in_page(
                fpage, self.num_rows, self.column.values_per_page
            )
            values = values[:valid]
            mask = (values >= lo) & (values <= hi)
            slots = np.nonzero(mask)[0]
            if slots.size:
                all_rowids.append(fpage * self.column.values_per_page + slots)
                all_values.append(values[slots])
        cost = self.substrate.cost
        cost.full_page_scan(
            self.column.values_per_page * self.column.value_cost_factor,
            self.num_pages,
            kind="seq",
            lane=lane,
        )
        empty = np.empty(0, dtype=np.int64)
        return (
            np.concatenate(all_rowids) if all_rowids else empty,
            np.concatenate(all_values) if all_values else empty.copy(),
        )

    # -- lifecycle ------------------------------------------------------------

    def release(self, lane: str = MAIN_LANE) -> None:
        """Drop the snapshot, freeing its mapping and copied pages."""
        if not self.alive:
            return
        self.alive = False
        self.substrate.munmap(self.base_vpn, self.num_pages, lane=lane)
        if self._copy_file is not None:
            self.substrate.delete_file(self._copy_file.name)
            self._copy_file = None
        self._copy_of.clear()

    def _check_alive(self) -> None:
        if not self.alive:
            raise RuntimeError("snapshot has been released")

    def __enter__(self) -> "ColumnSnapshot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class SnapshotManager:
    """Creates snapshots of a column and keeps them consistent.

    Hooks the column's write path: before any page is overwritten, every
    live snapshot preserves it copy-on-write.
    """

    def __init__(self, column: PhysicalColumn) -> None:
        self.column = column
        self._snapshots: list[ColumnSnapshot] = []
        self._hook = self._on_pre_write
        column.add_pre_write_hook(self._hook)

    def create_snapshot(self, lane: str = MAIN_LANE) -> ColumnSnapshot:
        """Take a new point-in-time snapshot (one mmap, no copying)."""
        snapshot = ColumnSnapshot(self.column, lane=lane)
        self._snapshots.append(snapshot)
        return snapshot

    def _on_pre_write(self, row: int, page: int) -> None:
        for snapshot in self._snapshots:
            if snapshot.alive:
                snapshot.preserve_page(page)

    def close(self) -> None:
        """Release all snapshots and detach from the column."""
        for snapshot in self._snapshots:
            snapshot.release()
        self._snapshots.clear()
        self.column.remove_pre_write_hook(self._hook)

    def __enter__(self) -> "SnapshotManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
