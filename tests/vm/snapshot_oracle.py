"""The kernel-format parser and the dict-backed maps snapshot, kept as
the parity oracles.

:func:`parse_maps` is the regex parser of ``/proc/PID/maps`` text into
:class:`MapsEntry` records that ``repro.vm.procmaps`` used before a
snapshot was read straight into rows (``repro.vm.procmaps.maps_rows``);
it is the oracle for the kernel format, simulated and real alike.

:class:`OracleMappingSnapshot` is how ``repro.vm.procmaps``
materialized ``/proc/PID/maps`` page by page before the snapshot was
built from columns: every mapped page inserted into a forward dict and
a reverse dict of sets, one at a time.  It takes
``MappingSnapshot``'s arguments, and :func:`oracle_maps_rows` has
``Substrate._maps_rows``'s signature: it renders or reads the backend's
maps text and parses it with :func:`parse_maps`.  So
``tests.oracle_paths.reference_paths`` can patch both in for every
backend; ``tests/vm/test_procmaps*.py``,
``tests/core/test_alignment_kernel.py`` and
``tests/native/test_substrate.py`` then require equal answers and
ledgers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.vm.constants import PAGE_SIZE
from repro.vm.cost import MAIN_LANE, CostModel
from repro.vm.errors import ProcMapsError
from repro.vm.procmaps import PhysPage

_LINE_RE = re.compile(
    r"^(?P<start>[0-9a-f]+)-(?P<end>[0-9a-f]+)\s+"
    r"(?P<perms>[rwxps-]{4})\s+"
    r"(?P<offset>[0-9a-f]+)\s+"
    r"(?P<dev>[0-9a-f]+:[0-9a-f]+)\s+"
    r"(?P<inode>\d+)"
    r"(?:\s+(?P<path>\S.*))?$"
)


@dataclass(frozen=True)
class MapsEntry:
    """One parsed line of a maps file, in page units."""

    start_vpn: int
    npages: int
    perms: str
    file_page: int
    dev: str
    inode: int
    pathname: str

    @property
    def anonymous(self) -> bool:
        """Whether the line describes an anonymous mapping."""
        return not self.pathname

    @property
    def end_vpn(self) -> int:
        """One past the last virtual page."""
        return self.start_vpn + self.npages


def parse_maps(
    text: str, cost: CostModel | None = None, lane: str = MAIN_LANE
) -> list[MapsEntry]:
    """Parse maps-file text into :class:`MapsEntry` records.

    Accepts both the simulated renderer's output and real ``/proc`` maps
    content.  Charges one line-parse cost per line if ``cost`` is given.
    """
    entries = []
    lines = [line for line in text.splitlines() if line.strip()]
    for line in lines:
        match = _LINE_RE.match(line.strip())
        if match is None:
            raise ProcMapsError(f"unparsable maps line: {line!r}")
        start = int(match["start"], 16)
        end = int(match["end"], 16)
        offset = int(match["offset"], 16)
        if start % PAGE_SIZE or end % PAGE_SIZE or offset % PAGE_SIZE:
            raise ProcMapsError(f"addresses not page aligned: {line!r}")
        if end <= start:
            raise ProcMapsError(f"empty or inverted range: {line!r}")
        entries.append(
            MapsEntry(
                start_vpn=start // PAGE_SIZE,
                npages=(end - start) // PAGE_SIZE,
                perms=match["perms"],
                file_page=offset // PAGE_SIZE,
                dev=match["dev"],
                inode=int(match["inode"]),
                pathname=match["path"] or "",
            )
        )
    if cost is not None:
        cost.maps_parse(len(lines), lane)
    return entries


def entries_rows(
    entries: list[MapsEntry], file_filter: str | None = None
) -> tuple[list[str], np.ndarray]:
    """Snapshot columns of the file-backed ``entries`` (of ``file_filter``
    only, if given): ``(start_vpns, npages, file_pages, path_ids)`` as a
    ``(4, lines)`` array, and the pathnames their path ids index."""
    path_ids: dict[str, int] = {}
    rows = [
        (e.start_vpn, e.npages, e.file_page, path_ids.setdefault(e.pathname, len(path_ids)))
        for e in entries
        if not e.anonymous and file_filter in (None, e.pathname)
    ]
    return list(path_ids), np.array(rows, dtype=np.int64).reshape(-1, 4).T


def listed(rows: tuple[list[str], np.ndarray]) -> tuple[list[str], list[tuple]]:
    """``(paths, columns)`` as comparable lists: one tuple per line."""
    paths, columns = rows
    return paths, [tuple(line) for line in columns.T.tolist()]


def oracle_maps_rows(substrate, file_filter: str | None = None):
    """``Substrate._maps_rows`` through the maps text: parse every line,
    keep the file-backed ones inside the page table's areas."""
    book = substrate.address_space
    entries = [
        e
        for e in parse_maps(substrate.maps_text())
        if book.find_vma(e.start_vpn) is not None
        and book.find_vma(e.end_vpn - 1) is not None
    ]
    return entries_rows(entries, file_filter)


class OracleMappingSnapshot:
    """Page-wise virtual↔physical mapping built from maps rows.

    Forward direction (virtual page → physical page) is one-to-one;
    the reverse direction is one-to-many because overlapping views share
    physical pages.  The snapshot is maintained from user space while a
    batch of updates is applied (pages mapped into / removed from views)
    and discarded afterwards, exactly as Section 2.5 describes.
    """

    def __init__(
        self,
        paths: Sequence[str] = (),
        columns: np.ndarray | None = None,
        cost: CostModel | None = None,
        lane: str = MAIN_LANE,
    ) -> None:
        rows = [] if columns is None else np.asarray(columns).T.tolist()
        self._forward: dict[int, PhysPage] = {}
        self._reverse: dict[PhysPage, set[int]] = {}
        self._cost = cost
        self.lines = len(rows)
        total = 0
        for start_vpn, npages, file_page, pid in rows:
            path = paths[pid]
            for i in range(npages):
                self._map_uncharged(start_vpn + i, (path, file_page + i))
            total += npages
        # All construction-time inserts are charged with one ledger call
        # (same total as charging page by page).
        if cost is not None and total:
            cost.bimap_op(total, lane)

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
