"""Rendering and parsing of ``/proc/PID/maps`` (Section 2.5).

The update algorithm needs the current virtual→physical mapping of every
view.  The paper obtains it by parsing the kernel's ``/proc/PID/maps``
virtual file once per update batch and materializing it page-wise in a
bimap.  This module reproduces both directions against the simulated
address space:

* :func:`render_maps` prints an :class:`~repro.vm.address_space.AddressSpace`
  in the exact kernel text format (one line per VMA);
* :func:`parse_maps` parses that format (kernel or simulated) back into
  :class:`MapsEntry` records;
* :class:`MappingSnapshot` is the page-wise materialization used while a
  batch of updates is applied, maintained from user space exactly as the
  paper describes.

Parse cost is charged per *line*, which is what makes clustered data
cheaper to parse than uniform data in Figure 7: clustered views map long
runs of consecutive physical pages, the kernel merges those runs into few
VMAs, and the maps file shrinks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .address_space import AddressSpace
from .constants import PAGE_SIZE
from .cost import MAIN_LANE, CostModel
from .errors import ProcMapsError

#: Device string rendered for main-memory-file mappings (tmpfs).
_FILE_DEV = "03:0c"

#: Device string rendered for anonymous mappings.
_ANON_DEV = "00:00"

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


def render_maps(address_space: AddressSpace, shm_prefix: str = "/dev/shm/") -> str:
    """Render the address space in ``/proc/PID/maps`` text format."""
    lines = []
    for vma in address_space.vmas():
        start = vma.start * PAGE_SIZE
        end = vma.end * PAGE_SIZE
        perm_bits = "".join(c if c in vma.perms else "-" for c in "rwx")
        perms = perm_bits + ("s" if vma.shared else "p")
        if vma.file is not None:
            offset = vma.file_page * PAGE_SIZE
            dev, inode = _FILE_DEV, vma.file.inode
            path = f"{shm_prefix}{vma.file.name}"
            lines.append(
                f"{start:08x}-{end:08x} {perms} {offset:08x} {dev} {inode} {path}"
            )
        else:
            lines.append(
                f"{start:08x}-{end:08x} {perms} {0:08x} {_ANON_DEV} 0"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def maps_line_count(address_space: AddressSpace) -> int:
    """Lines a maps render of this address space produces — one per VMA.

    Single source of truth for every observability surface that reports
    the maps-file size (:class:`~repro.core.stats.MaintenanceStats`
    counts the lines actually parsed; introspection and metrics predict
    the same number through this helper, so the two cannot drift).
    """
    return address_space.num_vmas


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


#: A physical page identity inside a snapshot: (file pathname, file page).
PhysPage = tuple[str, int]


def _expand_runs(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Runs of the given lengths laid end to end: per element, the run
    it belongs to and its offset inside that run."""
    run = np.repeat(np.arange(lengths.size), lengths)
    offset = np.arange(run.size) - (np.cumsum(lengths) - lengths)[run]
    return run, offset


class MappingSnapshot:
    """Page-wise virtual↔physical mapping built from maps entries.

    Forward direction (virtual page → physical page) is one-to-one;
    the reverse direction is one-to-many because overlapping views share
    physical pages.  The snapshot is maintained from user space while a
    batch of updates is applied (pages mapped into / removed from views)
    and discarded afterwards, exactly as Section 2.5 describes.

    The bulk of a snapshot's life is construction — one entry per mapped
    page — so it takes the maps entries as *columns* and expands them to
    pages with whole-array operations, and answers lookups by binary
    search over the (virtually sorted) page arrays.  The handful of
    mutations a maintenance batch performs live in a small overlay dict
    on top of the immutable base arrays.

    Simulated costs: one bimap op per constructed page (in a single
    ledger call), one per map/unmap/lookup.
    """

    def __init__(
        self,
        paths: Sequence[str] = (),
        rows: Sequence[tuple[int, int, int, int]] = (),
        cost: CostModel | None = None,
        lane: str = MAIN_LANE,
    ) -> None:
        """Build from one ``(start_vpn, npages, file_page, path id)`` row
        per file-backed maps entry; ``paths[path id]`` is its pathname."""
        self._cost = cost
        self._paths = paths
        self._path_ids = {path: pid for pid, path in enumerate(paths)}
        flat = np.fromiter(chain.from_iterable(rows), np.int64, 4 * len(rows))
        start_vpn, npages, file_page, path_id = flat.reshape(-1, 4).T
        # A page is its entry's first page plus its offset inside it.
        entry, offset = _expand_runs(npages)
        self._vpns = start_vpn[entry] + offset
        self._fpages = file_page[entry] + offset
        self._pids = path_id[entry]
        if self._vpns.size > 1 and not np.all(np.diff(self._vpns) > 0):
            # Hand-built entry lists may overlap virtually; keep the
            # last occurrence per vpn.
            order = np.argsort(self._vpns, kind="stable")
            sorted_vpns = self._vpns[order]
            keep = np.ones(sorted_vpns.size, dtype=bool)
            keep[:-1] = sorted_vpns[1:] != sorted_vpns[:-1]
            selected = order[keep]
            self._vpns = sorted_vpns[keep]
            self._fpages = self._fpages[selected]
            self._pids = self._pids[selected]
        self._len = int(self._vpns.size)
        #: Mutation overlay: vpn -> phys (remapped) or None (unmapped).
        self._overlay: dict[int, PhysPage | None] = {}
        # Lazy reverse index (composite sort by (path id, file page)).
        self._rev_order: np.ndarray | None = None
        self._rev_sorted: np.ndarray | None = None
        self._rev_base: int = 1
        if cost is not None and entry.size:
            cost.bimap_op(int(entry.size), lane)

    @classmethod
    def from_entries(
        cls,
        entries: Iterable[MapsEntry],
        cost: CostModel | None = None,
        lane: str = MAIN_LANE,
        file_filter: str | None = None,
    ) -> "MappingSnapshot":
        """Build from parsed maps entries (anonymous and filtered-out
        lines skipped)."""
        path_ids: dict[str, int] = {}
        rows = [
            (
                entry.start_vpn,
                entry.npages,
                entry.file_page,
                path_ids.setdefault(entry.pathname, len(path_ids)),
            )
            for entry in entries
            if not entry.anonymous and file_filter in (None, entry.pathname)
        ]
        return cls(list(path_ids), rows, cost=cost, lane=lane)

    # -- internal lookups (uncharged) -----------------------------------

    def _base_phys(self, vpn: int) -> PhysPage | None:
        idx = int(np.searchsorted(self._vpns, vpn))
        if idx < self._vpns.size and int(self._vpns[idx]) == vpn:
            return (
                self._paths[int(self._pids[idx])],
                int(self._fpages[idx]),
            )
        return None

    def _current_phys(self, vpn: int) -> PhysPage | None:
        if vpn in self._overlay:
            return self._overlay[vpn]
        return self._base_phys(vpn)

    def _ensure_reverse(self) -> None:
        if self._rev_sorted is not None:
            return
        self._rev_base = int(self._fpages.max()) + 1 if self._fpages.size else 1
        keys = self._pids * self._rev_base + self._fpages
        self._rev_order = np.argsort(keys, kind="stable")
        self._rev_sorted = keys[self._rev_order]

    def _base_virtuals(self, phys: PhysPage) -> np.ndarray:
        path, fpage = phys
        pid = self._path_ids.get(path)
        if pid is None or fpage < 0:
            return np.empty(0, dtype=np.int64)
        self._ensure_reverse()
        if fpage >= self._rev_base:
            return np.empty(0, dtype=np.int64)
        key = pid * self._rev_base + fpage
        lo = int(np.searchsorted(self._rev_sorted, key, side="left"))
        hi = int(np.searchsorted(self._rev_sorted, key, side="right"))
        return self._vpns[self._rev_order[lo:hi]]

    # -- public interface -----------------------------------------------

    def __len__(self) -> int:
        return self._len

    def map(self, vpn: int, phys: PhysPage, lane: str = MAIN_LANE) -> None:
        """Record that virtual page ``vpn`` now maps ``phys``."""
        if self._current_phys(vpn) is None:
            self._len += 1
        self._overlay[vpn] = phys
        if self._cost is not None:
            self._cost.bimap_op(1, lane)

    def unmap(self, vpn: int, lane: str = MAIN_LANE, charge: bool = True) -> None:
        """Forget the mapping of virtual page ``vpn`` (no-op if absent)."""
        if self._current_phys(vpn) is not None:
            self._len -= 1
            if self._base_phys(vpn) is not None:
                self._overlay[vpn] = None  # tombstone over the base layer
            else:
                self._overlay.pop(vpn, None)
        if charge and self._cost is not None:
            self._cost.bimap_op(1, lane)

    def physical_of(self, vpn: int) -> PhysPage | None:
        """Physical page behind virtual page ``vpn``, if known."""
        if self._cost is not None:
            self._cost.bimap_op(1)
        return self._current_phys(vpn)

    def virtuals_of(self, phys: PhysPage) -> frozenset[int]:
        """All virtual pages currently mapping ``phys``."""
        if self._cost is not None:
            self._cost.bimap_op(1)
        overlay = self._overlay
        base = self._base_virtuals(phys)
        if not overlay:
            return frozenset(map(int, base))
        virtuals = {int(vpn) for vpn in base if int(vpn) not in overlay}
        for vpn, current in overlay.items():
            if current == phys:
                virtuals.add(vpn)
        return frozenset(virtuals)

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
        which = vpns = np.empty(0, dtype=np.int64)
        pid = self._path_ids.get(path)
        if pid is not None and self._vpns.size:
            self._ensure_reverse()
            # Pages beyond the base layer's largest match nothing; the
            # clip keeps their composite key from aliasing another path.
            keys = pid * self._rev_base + fpages
            keys[(fpages < 0) | (fpages >= self._rev_base)] = -1
            first = np.searchsorted(self._rev_sorted, keys, side="left")
            count = np.searchsorted(self._rev_sorted, keys, side="right") - first
            which, offset = _expand_runs(count)
            vpns = self._vpns[self._rev_order[first[which] + offset]]
        if self._overlay:
            shadowed = np.fromiter(self._overlay, np.int64, len(self._overlay))
            keep = ~np.isin(vpns, shadowed)
            extra_which, extra_vpns = [which[keep]], [vpns[keep]]
            for vpn, current in self._overlay.items():
                if current is not None and current[0] == path:
                    hits = np.flatnonzero(fpages == current[1])
                    extra_which.append(hits)
                    extra_vpns.append(np.full(hits.size, vpn, dtype=np.int64))
            which = np.concatenate(extra_which)
            vpns = np.concatenate(extra_vpns)
        return which, vpns


def snapshot_address_space(
    address_space: AddressSpace,
    cost: CostModel | None = None,
    lane: str = MAIN_LANE,
    file_filter: str | None = None,
    shm_prefix: str = "/dev/shm/",
) -> MappingSnapshot:
    """Materialize one address space page-wise in one step.

    This is the "parse the file only once before applying a batch of
    updates" operation from Section 2.5.  It reads the columns of the
    maps file straight off the VMA list instead of rendering text and
    parsing it back, but charges what the simulated process pays for
    re-reading ``/proc/PID/maps``: the open, one parse per line (= VMA)
    and one bimap insert per file-backed page.
    """
    paths: list[str] = []
    path_id_of: dict[str, int] = {}  # file name -> path id, -1: filtered out
    rows = []
    for vma in address_space.vmas():
        if vma.file is None:
            continue
        name = vma.file.name
        pid = path_id_of.get(name)
        if pid is None:
            path = f"{shm_prefix}{name}"
            pid = len(paths) if file_filter in (None, path) else -1
            path_id_of[name] = pid
            if pid >= 0:
                paths.append(path)
        if pid >= 0:
            rows.append((vma.start, vma.npages, vma.file_page, pid))
    if cost is not None:
        cost.maps_parse(address_space.num_vmas, lane)
    return MappingSnapshot(paths, rows, cost=cost, lane=lane)
