"""The virtual partial view wrapped in the explicit-index protocol.

This is the paper's own mechanism, packaged so Figure 3 can compare it
apples-to-apples with the explicit variants.  A lookup simply scans the
view's virtual area front to back — virtually contiguous memory, so it
has "the least code complexity and naturally exploits hardware
prefetching": page accesses pay the sequential cost.
"""

from __future__ import annotations

import numpy as np

from ..core.maintenance import align_partial_views
from ..core.creation import build_view
from ..core.scan import batch_scan
from ..core.view import VirtualView
from ..storage.updates import UpdateBatch
from ..vm.cost import MAIN_LANE
from .interface import PartialIndexBase


class VirtualViewIndex(PartialIndexBase):
    """A rewired virtual partial view behind the common index protocol."""

    kind = "virtual_view"

    def _build(self, qualifying_fpages: np.ndarray, lane: str) -> None:
        self._view, _ = build_view(
            self.column, self.lo, self.hi, qualifying_fpages, lane=lane
        )

    @property
    def view(self) -> VirtualView:
        """The underlying virtual view."""
        return self._view

    def _query(self, qlo: int, qhi: int, lane: str) -> tuple[np.ndarray, np.ndarray]:
        fpages = self._view.mapped_fpages()
        self._view.charge_first_touch(fpages, lane)
        result = batch_scan(self.column, fpages, qlo, qhi, access_kind="seq", lane=lane)
        return result.rowids, result.values

    def apply_updates(self, batch: UpdateBatch, lane: str = MAIN_LANE) -> None:
        """Realign the wrapped view with the batch algorithm (§2.4/2.5)."""
        align_partial_views(self.column, [self._view], batch, lane=lane)

    def indexed_pages(self) -> int:
        """Pages currently mapped by the view."""
        return self._view.num_pages
