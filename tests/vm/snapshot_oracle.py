"""The dict-backed maps snapshot, kept as the parity oracle.

This is how ``repro.vm.procmaps`` materialized ``/proc/PID/maps`` page
by page before the snapshot was built from columns: the address space
rendered as text, parsed back into entries, and every mapped page
inserted into a forward dict and a reverse dict of sets, one at a time.
:func:`oracle_snapshot_address_space` has
``snapshot_address_space``'s signature and
:meth:`OracleMappingSnapshot.from_entries` has
``MappingSnapshot.from_entries``'s, so
``tests.oracle_paths.reference_paths`` can patch them in for both
backends; ``tests/vm/test_procmaps*.py``,
``tests/core/test_alignment_kernel.py`` and
``tests/native/test_substrate.py`` then require equal answers and
ledgers.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.vm.address_space import AddressSpace
from repro.vm.cost import MAIN_LANE, CostModel
from repro.vm.procmaps import MapsEntry, PhysPage, parse_maps, render_maps


class OracleMappingSnapshot:
    """Page-wise virtual↔physical mapping built from parsed maps entries.

    Forward direction (virtual page → physical page) is one-to-one;
    the reverse direction is one-to-many because overlapping views share
    physical pages.  The snapshot is maintained from user space while a
    batch of updates is applied (pages mapped into / removed from views)
    and discarded afterwards, exactly as Section 2.5 describes.
    """

    def __init__(
        self,
        entries: list[MapsEntry] | None = None,
        cost: CostModel | None = None,
        lane: str = MAIN_LANE,
        file_filter: str | None = None,
    ) -> None:
        self._forward: dict[int, PhysPage] = {}
        self._reverse: dict[PhysPage, set[int]] = {}
        self._cost = cost
        total = 0
        for entry in entries or []:
            if entry.anonymous:
                continue
            if file_filter is not None and entry.pathname != file_filter:
                continue
            path = entry.pathname
            for i in range(entry.npages):
                self._map_uncharged(entry.start_vpn + i, (path, entry.file_page + i))
            total += entry.npages
        # All construction-time inserts are charged with one ledger call
        # (same total as charging page by page).
        if cost is not None and total:
            cost.bimap_op(total, lane)

    @classmethod
    def from_entries(
        cls,
        entries: Iterable[MapsEntry],
        cost: CostModel | None = None,
        lane: str = MAIN_LANE,
        file_filter: str | None = None,
    ) -> "OracleMappingSnapshot":
        """``MappingSnapshot.from_entries``'s signature, so that the
        native backend builds this class when it is patched in."""
        return cls(list(entries), cost=cost, lane=lane, file_filter=file_filter)

    def __len__(self) -> int:
        return len(self._forward)

    def map(
        self, vpn: int, phys: PhysPage, lane: str = MAIN_LANE, charge: bool = True
    ) -> None:
        """Record that virtual page ``vpn`` now maps ``phys``."""
        self._map_uncharged(vpn, phys)
        if charge and self._cost is not None:
            self._cost.bimap_op(1, lane)

    def _map_uncharged(self, vpn: int, phys: PhysPage) -> None:
        self.unmap(vpn, charge=False)
        self._forward[vpn] = phys
        self._reverse.setdefault(phys, set()).add(vpn)

    def unmap(self, vpn: int, lane: str = MAIN_LANE, charge: bool = True) -> None:
        """Forget the mapping of virtual page ``vpn`` (no-op if absent)."""
        phys = self._forward.pop(vpn, None)
        if phys is not None:
            virtuals = self._reverse.get(phys)
            if virtuals is not None:
                virtuals.discard(vpn)
                if not virtuals:
                    del self._reverse[phys]
        if charge and self._cost is not None:
            self._cost.bimap_op(1, lane)

    def physical_of(self, vpn: int) -> PhysPage | None:
        """Physical page behind virtual page ``vpn``, if known."""
        if self._cost is not None:
            self._cost.bimap_op(1)
        return self._forward.get(vpn)

    def virtuals_of(self, phys: PhysPage) -> frozenset[int]:
        """All virtual pages currently mapping ``phys``."""
        if self._cost is not None:
            self._cost.bimap_op(1)
        return frozenset(self._reverse.get(phys, ()))

    def virtuals_of_pages(
        self, path: str, fpages: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every virtual page currently mapping one of ``path``'s ``fpages``.

        The bulk form of :meth:`virtuals_of`: returns ``(which, vpns)``,
        one element per mapping in no particular order, meaning virtual
        page ``vpns[i]`` maps ``(path, fpages[which[i]])``.  Charges
        nothing: batch alignment puts the question once per (view, page)
        pair and charges those lookups itself, on its lane, as it walks
        the pairs.
        """
        which: list[int] = []
        vpns: list[int] = []
        for i, fpage in enumerate(fpages.tolist()):
            virtuals = self._reverse.get((path, fpage), ())
            which.extend([i] * len(virtuals))
            vpns.extend(virtuals)
        return np.array(which, dtype=np.int64), np.array(vpns, dtype=np.int64)


def oracle_snapshot_address_space(
    address_space: AddressSpace,
    cost: CostModel | None = None,
    lane: str = MAIN_LANE,
    file_filter: str | None = None,
    shm_prefix: str = "/dev/shm/",
) -> OracleMappingSnapshot:
    """Materialize one address space through its maps text: render,
    parse (charging one parse per line), then insert page by page."""
    text = render_maps(address_space, shm_prefix=shm_prefix)
    entries = parse_maps(text, cost=cost, lane=lane)
    return OracleMappingSnapshot(
        entries, cost=cost, lane=lane, file_filter=file_filter
    )
