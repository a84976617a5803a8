"""The per-call VMA walk, kept as the parity oracle.

:class:`OracleAddressSpace` is a page table of its own: a sorted list of
:class:`~repro.vm.vma.Vma` objects with a parallel list of starts, as
``repro.vm.address_space.AddressSpace`` kept its VMAs before they became
columns.  The functions below are how that list was mutated before every
mutation became one ``_splice``: ``munmap`` walked the list deleting and
re-inserting split pieces one by one, ``mmap`` bisected, merged with
either neighbour and inserted, and ``MAP_FIXED`` was the first followed
by the second — those methods verbatim, as free functions over an
:class:`OracleAddressSpace`, with :func:`split_at` the split,
:func:`overlaps` the overlap test, and :func:`can_merge`,
:func:`merged` and :func:`clipped` the ``Vma`` methods they were built
from.

:func:`check_inside` is the one check the old walk did not make: a plan
with a page of a run outside every area is refused whole, before
anything changes, as ``Substrate.apply_runs`` refuses it.  It looks the
pages up one by one.

:func:`oracle_map_runs` is the loop ``materialize_pages`` used to drive
through ``Substrate.map_fixed``: one old ``mmap(MAP_FIXED)`` of a file
per run, each charging its own syscall, page-table and soft-fault cost
the moment it is issued.  ``tests/vm/test_map_runs.py`` runs it and
``SimulatedSubstrate.map_runs`` (and :func:`oracle_map_fixed` and
``SimulatedSubstrate.map_fixed``) over identical address spaces and
requires equal VMAs, rendered maps text, snapshot columns and ledgers.
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterator

from repro.vm.address_space import _MMAP_BASE_VPN
from repro.vm.cost import MAIN_LANE, CostModel
from repro.vm.errors import BadAddressError, MapError
from repro.vm.vma import Vma


class OracleAddressSpace:
    """A page table as a sorted list of VMAs: what ``render_maps`` and
    the parity tests read of ``AddressSpace``, kept the old way."""

    def __init__(self) -> None:
        self._vmas: list[Vma] = []  # sorted by start, non-overlapping
        self._starts: list[int] = []  # parallel list for bisect
        self._next_vpn = _MMAP_BASE_VPN
        self.lock = threading.RLock()

    def vmas(self) -> Iterator[Vma]:
        return iter(self._vmas)

    @property
    def num_vmas(self) -> int:
        return len(self._vmas)

    def find_vma(self, vpn: int) -> Vma | None:
        idx = bisect.bisect_right(self._starts, vpn) - 1
        if idx >= 0 and self._vmas[idx].contains(vpn):
            return self._vmas[idx]
        return None

    def translate(self, vpn: int):
        vma = self.find_vma(vpn)
        if vma is None:
            raise BadAddressError(f"virtual page {vpn:#x} is not mapped")
        return vma.translate(vpn)

    def allocate_region(self, npages: int) -> int:
        if npages <= 0:
            raise MapError("cannot allocate an empty region")
        start = self._next_vpn
        self._next_vpn += npages
        return start


def can_merge(vma: Vma, successor: Vma) -> bool:
    """Whether ``successor`` extends ``vma`` seamlessly.

    Mirrors the kernel's merge criteria: virtually adjacent, same
    backing object and (for file mappings) contiguous file offsets.
    Every area is mapped shared and read-write, so flags never differ.
    """
    if vma.start + vma.npages != successor.start:
        return False
    if vma.file is not successor.file:
        return False
    if vma.file is None:
        return True
    return vma.file_page + vma.npages == successor.file_page


def merged(vma: Vma, successor: Vma) -> Vma:
    """The single VMA covering ``vma`` plus ``successor``."""
    if not can_merge(vma, successor):
        raise ValueError(f"cannot merge {vma} with {successor}")
    return Vma._placed(vma.start, vma.npages + successor.npages, vma.file, vma.file_page)


def clipped(vma: Vma, start: int, end: int) -> Vma:
    """The part of ``vma`` inside ``[start, end)``, which must overlap it."""
    start = max(start, vma.start)
    return Vma._placed(
        start,
        min(end, vma.end) - start,
        vma.file,
        vma.file_page + (start - vma.start) if vma.file else 0,
    )


def split_at(vma: Vma, vpn: int) -> tuple[Vma, Vma]:
    """Split ``vma`` into two VMAs at virtual page ``vpn`` (strictly inside)."""
    if not vma.start < vpn < vma.end:
        raise ValueError(f"split point {vpn} not strictly inside {vma}")
    return clipped(vma, vma.start, vpn), clipped(vma, vpn, vma.end)


def overlaps(vma: Vma, start: int, npages: int) -> bool:
    """Whether ``vma`` overlaps ``[start, start + npages)``."""
    return vma.start < start + npages and start < vma.end


def _add_mapping_locked(aspace: OracleAddressSpace, vma: Vma) -> None:
    idx = bisect.bisect_left(aspace._starts, vma.start)
    if idx < len(aspace._vmas) and overlaps(aspace._vmas[idx], vma.start, vma.npages):
        raise MapError(f"{vma} overlaps {aspace._vmas[idx]}")
    if idx > 0 and overlaps(aspace._vmas[idx - 1], vma.start, vma.npages):
        raise MapError(f"{vma} overlaps {aspace._vmas[idx - 1]}")

    # Merge with predecessor and/or successor where possible.
    joined = vma
    if idx > 0 and can_merge(aspace._vmas[idx - 1], joined):
        joined = merged(aspace._vmas[idx - 1], joined)
        del aspace._vmas[idx - 1]
        del aspace._starts[idx - 1]
        idx -= 1
    if idx < len(aspace._vmas) and can_merge(joined, aspace._vmas[idx]):
        joined = merged(joined, aspace._vmas[idx])
        del aspace._vmas[idx]
        del aspace._starts[idx]
    aspace._vmas.insert(idx, joined)
    aspace._starts.insert(idx, joined.start)
    # keep the bump allocator clear of explicitly placed mappings
    if joined.end > aspace._next_vpn:
        aspace._next_vpn = joined.end


def _remove_mapping_locked(aspace: OracleAddressSpace, start: int, npages: int) -> int:
    if npages <= 0:
        raise MapError("cannot unmap an empty range")
    end = start + npages
    removed = 0
    idx = max(bisect.bisect_right(aspace._starts, start) - 1, 0)
    while idx < len(aspace._vmas):
        vma = aspace._vmas[idx]
        if vma.start >= end:
            break
        if not overlaps(vma, start, npages):
            idx += 1
            continue
        del aspace._vmas[idx]
        del aspace._starts[idx]
        if vma.start < start:
            head, vma = split_at(vma, start)
            aspace._vmas.insert(idx, head)
            aspace._starts.insert(idx, head.start)
            idx += 1
        if vma.end > end:
            vma, tail = split_at(vma, end)
            aspace._vmas.insert(idx, tail)
            aspace._starts.insert(idx, tail.start)
        removed += vma.npages
    return removed


def add_mapping(aspace: OracleAddressSpace, vma: Vma) -> None:
    with aspace.lock:
        _add_mapping_locked(aspace, vma)


def remove_mapping(aspace: OracleAddressSpace, start: int, npages: int) -> int:
    with aspace.lock:
        return _remove_mapping_locked(aspace, start, npages)


def replace_mapping(aspace: OracleAddressSpace, vma: Vma) -> None:
    with aspace.lock:
        _remove_mapping_locked(aspace, vma.start, vma.npages)
        _add_mapping_locked(aspace, vma)


def check_inside(aspace: OracleAddressSpace, vpns, npages) -> None:
    """Refuse a plan with a page of a run that no VMA holds."""
    for vpn, n in zip(vpns, npages):
        for page in range(int(vpn), int(vpn) + int(n)):
            if aspace.find_vma(page) is None:
                raise MapError(f"run at page {int(vpn):#x} lies outside every area")


def oracle_map_fixed(
    aspace: OracleAddressSpace,
    cost: CostModel,
    vpn: int,
    npages: int,
    file,
    file_page: int,
    populate: bool = False,
    lane: str = MAIN_LANE,
) -> None:
    """One old ``mmap(addr=vpn, MAP_FIXED, file, file_page)``."""
    if npages <= 0:
        raise MapError("mmap of zero pages")
    if file_page < 0 or file_page + npages > file.num_pages:
        raise MapError(
            f"file range [{file_page}, {file_page + npages}) outside "
            f"{file.name!r} ({file.num_pages} pages)"
        )
    replace_mapping(aspace, Vma(vpn, npages, file, file_page))
    cost.mmap_call(npages, lane)
    if populate:
        cost.soft_fault(npages, lane)


def oracle_map_runs(
    aspace: OracleAddressSpace,
    cost: CostModel,
    vpns,
    npages,
    file,
    file_pages,
    populate: bool = False,
    lane: str = MAIN_LANE,
) -> None:
    """The per-run loop: one :func:`oracle_map_fixed` per run, in order."""
    for vpn, n, file_page in zip(vpns, npages, file_pages):
        oracle_map_fixed(
            aspace, cost, int(vpn), int(n), file, int(file_page), populate, lane
        )
