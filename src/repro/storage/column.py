"""Physical columns: the materialized storage the views index.

A :class:`PhysicalColumn` materializes one column of a table in a
main-memory file (one value domain, int64).  It provides the low-level
access methods of a classical storage layer — point reads/writes and page
scans — while all *semantic* access (find values in a range) goes through
the virtual views built on top (:mod:`repro.core`).

Columns may store *wide records*: ``record_bytes`` models tuples of that
width whose leading 8 bytes are the indexed key.  Only the keys are
materialized (the payload exists in the cost model: scans pay for the
full record bytes they stream), so fewer records fit one page — the
setting that reproduces the paper's Figure 3 page fractions, which imply
~42 records per 4 KiB page.
"""

from __future__ import annotations

import numpy as np

from ..substrate.interface import PageStore, Substrate
from ..vm.cost import MAIN_LANE, CostModel
from ..vm.constants import VALUE_WIDTH
from . import layout
from .page import PageScanResult, scan_and_filter


class PhysicalColumn:
    """One column materialized in physical memory (a main-memory file).

    The column speaks only the backend-neutral
    :class:`~repro.substrate.interface.Substrate` protocol.
    """

    def __init__(
        self,
        name: str,
        substrate: Substrate,
        file: PageStore,
        num_rows: int,
        record_bytes: int = VALUE_WIDTH,
    ) -> None:
        self.name = name
        self.substrate = substrate
        self.file = file
        self.num_rows = num_rows
        #: Width of one stored record; the indexed key is its first 8 B.
        self.record_bytes = record_bytes
        #: Callbacks invoked as ``hook(row, page)`` before a write lands;
        #: snapshotting uses this to preserve pages copy-on-write.
        self._pre_write_hooks: list = []

    @property
    def cost(self) -> CostModel:
        """The substrate's shared (simulated) cost model."""
        return self.substrate.cost

    @classmethod
    def create(
        cls,
        substrate: Substrate,
        name: str,
        values: np.ndarray,
        record_bytes: int = VALUE_WIDTH,
    ) -> "PhysicalColumn":
        """Materialize ``values`` as a new column named ``name``.

        Allocates the backing main-memory file, lays the values out in
        pages with embedded pageIDs, and charges the initial write.
        ``record_bytes`` > 8 models wide records (key + payload).
        """
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("column values must be a non-empty 1-D array")
        per_page = layout.records_per_page(record_bytes)
        num_pages = layout.pages_for_rows(values.size, per_page)
        file = substrate.create_file(name, num_pages, slots_per_page=per_page)
        flat = np.zeros(num_pages * per_page, dtype=np.int64)
        flat[: values.size] = values
        file.data[:] = flat.reshape(num_pages, per_page)
        substrate.cost.value_write(values.size * record_bytes // VALUE_WIDTH)
        return cls(name, substrate, file, values.size, record_bytes=record_bytes)

    @property
    def num_pages(self) -> int:
        """Number of physical pages the column occupies."""
        return self.file.num_pages

    @property
    def values_per_page(self) -> int:
        """Records stored on one (full) page."""
        return self.file.slots_per_page

    @property
    def value_cost_factor(self) -> int:
        """Cost-model multiplier: 8 B-value equivalents per record read."""
        return self.record_bytes // VALUE_WIDTH

    def valid_count(self, page_id: int) -> int:
        """Number of valid records on page ``page_id`` (last page may be
        partially filled)."""
        return layout.rows_in_page(page_id, self.num_rows, self.values_per_page)

    def check_row(self, row: int) -> None:
        """Validate a row id."""
        if not 0 <= row < self.num_rows:
            raise IndexError(f"row {row} out of range (num_rows={self.num_rows})")

    # -- point access (the classical storage-layer interface) ---------------

    def read(self, row: int, lane: str = MAIN_LANE) -> int:
        """getRecord(recordID): read the key stored at ``row``."""
        self.check_row(row)
        per_page = self.values_per_page
        page = layout.row_to_page(row, per_page)
        slot = layout.row_to_slot(row, per_page)
        self.cost.page_access("random", 1, lane)
        record = getattr(self.file, "record_access", None)
        if record is not None:
            record(page, self.cost, lane=lane, kind="random")
        return int(self.file.data[page, slot])

    def write(self, row: int, value: int, lane: str = MAIN_LANE) -> int:
        """Overwrite ``row`` with ``value``; returns the old value.

        Updates always run through the full view, i.e. directly against
        the physical page (Section 2.4).
        """
        self.check_row(row)
        per_page = self.values_per_page
        page = layout.row_to_page(row, per_page)
        slot = layout.row_to_slot(row, per_page)
        for hook in self._pre_write_hooks:
            hook(row, page)
        old = int(self.file.data[page, slot])
        self.file.data[page, slot] = value
        self.cost.value_write(1, lane)
        record = getattr(self.file, "record_write", None)
        if record is not None:
            record(page, self.cost, lane=lane)
        return old

    def add_pre_write_hook(self, hook) -> None:
        """Register a callback invoked as ``hook(row, page)`` before any
        write modifies the page (used by copy-on-write snapshots)."""
        self._pre_write_hooks.append(hook)

    def remove_pre_write_hook(self, hook) -> None:
        """Deregister a previously added pre-write hook."""
        self._pre_write_hooks.remove(hook)

    def values(self) -> np.ndarray:
        """All row values in row order (verification / rebuild helper).

        Returns a fresh array; does not charge the cost model — use page
        scans for anything that represents measured work.
        """
        return self.file.data.reshape(-1)[: self.num_rows].copy()

    # -- page access ---------------------------------------------------------

    def scan_page(
        self,
        fpage: int,
        lo: int,
        hi: int,
        access_kind: str = "seq",
        lane: str = MAIN_LANE,
        charge: bool = True,
    ) -> PageScanResult:
        """Scan-and-filter one physical page of this column."""
        return scan_and_filter(
            self.file,
            fpage,
            lo,
            hi,
            valid_count=self.valid_count(fpage),
            values_per_page=self.values_per_page,
            cost=self.cost if charge else None,
            cost_factor=self.value_cost_factor,
            access_kind=access_kind,
            lane=lane,
        )

    def pages_with_values_in(self, lo: int, hi: int) -> np.ndarray:
        """Physical pages holding at least one value in ``[lo, hi]``.

        Vectorized ground-truth helper (not cost-charged); used by tests,
        baselines' build phases and the rebuild path.
        """
        data = self.file.data
        mask = (data >= lo) & (data <= hi)
        if self.num_rows < self.num_pages * self.values_per_page:
            # mask out the padding tail of the last page
            last = self.num_pages - 1
            valid = self.valid_count(last)
            mask[last, valid:] = False
        return np.nonzero(mask.any(axis=1))[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PhysicalColumn({self.name!r}, rows={self.num_rows}, "
            f"pages={self.num_pages})"
        )
