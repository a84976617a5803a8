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
  creation time, at a cost proportional to the pages actually modified;
  every read goes through the snapshot's own mapping, so it reads what
  the rewiring made of it.

The :class:`SnapshotManager` hooks the column's write path and fans the
preserve signal out to all live snapshots.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..storage import layout
from ..storage.column import PhysicalColumn
from ..substrate.interface import PageStore
from ..vm.cost import MAIN_LANE
from .scan import batch_scan


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
        #: Column pages preserved so far; the n-th is copy-file page n.
        self._preserved: set[int] = set()
        self.alive = True

    @property
    def copied_pages(self) -> int:
        """Pages preserved copy-on-write so far."""
        return len(self._preserved)

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
        virtual page onto the copy.  The page counts as preserved only
        once the rewire has succeeded: a faulted attempt records
        nothing, and its retry reuses the copy-file page it claimed.
        """
        if not self.alive or fpage in self._preserved:
            return False
        self.column.file.check_page(fpage)
        copy_file = self._copy_file_handle()
        copy_page = len(self._preserved)
        if copy_page == copy_file.num_pages:
            copy_file.resize(copy_page + 1)
        copy_file.data[copy_page] = self.column.file.data[fpage]
        copy_file.headers[copy_page] = self.column.file.headers[fpage]

        cost = self.substrate.cost
        per_page = self.column.values_per_page * self.column.value_cost_factor
        cost.full_page_scan(per_page, 1, kind="random", lane=lane)
        cost.value_write(per_page, lane)
        self.substrate.map_fixed(
            self.base_vpn + fpage, 1, copy_file, copy_page, lane=lane
        )
        self._preserved.add(fpage)
        cost.ledger.count("snapshot_pages_copied")
        return True

    # -- reads -----------------------------------------------------------

    def read(self, row: int, lane: str = MAIN_LANE) -> int:
        """Read one row as of snapshot time."""
        self._check_alive()
        if not 0 <= row < self.num_rows:
            raise IndexError(f"row {row} out of range")
        per_page = self.column.values_per_page
        page = layout.row_to_page(row, per_page)
        slot = layout.row_to_slot(row, per_page)
        self.substrate.cost.page_access("random", 1, lane)
        _, values = self.substrate.read_mapped(self.base_vpn + page, 1)
        return int(values[0, slot])

    def values(self) -> np.ndarray:
        """All rows as of snapshot time (verification helper, uncharged)."""
        self._check_alive()
        _, pages = self.substrate.read_mapped(self.base_vpn, self.num_pages)
        return np.array(pages).reshape(-1)[: self.num_rows]

    def scan(
        self, lo: int, hi: int, lane: str = MAIN_LANE
    ) -> tuple[np.ndarray, np.ndarray]:
        """Range-filter the snapshot; returns (rowids, values), charged
        as a sequential scan of the snapshot's virtual area."""
        self._check_alive()
        fpages, pages = self.substrate.read_mapped(self.base_vpn, self.num_pages)
        result = batch_scan(self.column, fpages, lo, hi, charge=False, rows=pages)
        self.substrate.cost.full_page_scan(
            self.column.values_per_page * self.column.value_cost_factor,
            self.num_pages,
            kind="seq",
            lane=lane,
        )
        # the kernel fills pages as the live column does, which may since
        # have grown past the snapshot's last row
        keep = result.rowids < self.num_rows
        return result.rowids[keep], result.values[keep]

    # -- lifecycle ------------------------------------------------------------

    def release(self, lane: str = MAIN_LANE) -> None:
        """Drop the snapshot, freeing its mapping and copied pages."""
        if not self.alive:
            return
        self.alive = False
        n = self.num_pages
        self.substrate.release_region(self.base_vpn, n, n, lane=lane)
        if self._copy_file is not None:
            self.substrate.delete_file(self._copy_file.name)
            self._copy_file = None
        self._preserved.clear()

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
        # The hook reaches the snapshots weakly: a hook holding them, or
        # this manager, would close a cycle through the column they hold
        # and keep a dropped database's pages until a gc pass.  A
        # snapshot stays copy-on-write for as long as it lives.
        live: list[weakref.ref[ColumnSnapshot]] = []
        self._live = live

        def hook(page: int) -> None:
            for ref in live:
                snapshot = ref()
                if snapshot is not None and snapshot.alive:
                    snapshot.preserve_page(page)

        self._hook = hook
        column.add_pre_write_hook(hook)

    def create_snapshot(self, lane: str = MAIN_LANE) -> ColumnSnapshot:
        """Take a new point-in-time snapshot (one mmap, no copying)."""
        snapshot = ColumnSnapshot(self.column, lane=lane)
        self._snapshots.append(snapshot)
        self._live.append(weakref.ref(snapshot))
        return snapshot

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
