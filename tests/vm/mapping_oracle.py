"""The per-call VMA walk, kept as the parity oracle.

This is how ``repro.vm.address_space.AddressSpace`` mutated its VMA
list before every mutation became one ``_splice``: ``munmap`` walked
the list deleting and re-inserting split pieces one by one, ``mmap``
bisected, merged with either neighbour and inserted, and ``MAP_FIXED``
was the first followed by the second.  The functions below are those
methods verbatim, as free functions over an :class:`AddressSpace`'s own
lists, with :func:`split_at` the split and :func:`overlaps` the
overlap test they were built from.

:func:`check_inside` is the one check the old walk did not make: a plan
whose run starts outside every area is refused whole, before anything
changes, as ``Substrate.apply_runs`` refuses it.

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

from repro.vm.address_space import AddressSpace
from repro.vm.cost import MAIN_LANE, CostModel
from repro.vm.errors import MapError
from repro.vm.vma import Vma


def split_at(vma: Vma, vpn: int) -> tuple[Vma, Vma]:
    """Split ``vma`` into two VMAs at virtual page ``vpn`` (strictly inside)."""
    if not vma.start < vpn < vma.end:
        raise ValueError(f"split point {vpn} not strictly inside {vma}")
    return vma.clipped(vma.start, vpn), vma.clipped(vpn, vma.end)


def overlaps(vma: Vma, start: int, npages: int) -> bool:
    """Whether ``vma`` overlaps ``[start, start + npages)``."""
    return vma.start < start + npages and start < vma.end


def _add_mapping_locked(aspace: AddressSpace, vma: Vma) -> None:
    idx = bisect.bisect_left(aspace._starts, vma.start)
    if idx < len(aspace._vmas) and overlaps(aspace._vmas[idx], vma.start, vma.npages):
        raise MapError(f"{vma} overlaps {aspace._vmas[idx]}")
    if idx > 0 and overlaps(aspace._vmas[idx - 1], vma.start, vma.npages):
        raise MapError(f"{vma} overlaps {aspace._vmas[idx - 1]}")

    # Merge with predecessor and/or successor where possible.
    merged = vma
    if idx > 0 and aspace._vmas[idx - 1].can_merge_with(merged):
        merged = aspace._vmas[idx - 1].merged_with(merged)
        del aspace._vmas[idx - 1]
        del aspace._starts[idx - 1]
        idx -= 1
    if idx < len(aspace._vmas) and merged.can_merge_with(aspace._vmas[idx]):
        merged = merged.merged_with(aspace._vmas[idx])
        del aspace._vmas[idx]
        del aspace._starts[idx]
    aspace._vmas.insert(idx, merged)
    aspace._starts.insert(idx, merged.start)
    # keep the bump allocator clear of explicitly placed mappings
    if merged.end > aspace._next_vpn:
        aspace._next_vpn = merged.end


def _remove_mapping_locked(aspace: AddressSpace, start: int, npages: int) -> int:
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


def add_mapping(aspace: AddressSpace, vma: Vma) -> None:
    with aspace.lock:
        _add_mapping_locked(aspace, vma)


def remove_mapping(aspace: AddressSpace, start: int, npages: int) -> int:
    with aspace.lock:
        return _remove_mapping_locked(aspace, start, npages)


def replace_mapping(aspace: AddressSpace, vma: Vma) -> None:
    with aspace.lock:
        _remove_mapping_locked(aspace, vma.start, vma.npages)
        _add_mapping_locked(aspace, vma)


def check_inside(aspace: AddressSpace, vpns) -> None:
    """Refuse a plan with a run whose first page no VMA holds."""
    for vpn in vpns:
        if aspace.find_vma(int(vpn)) is None:
            raise MapError(f"run at page {int(vpn):#x} lies outside every area")


def oracle_map_fixed(
    aspace: AddressSpace,
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
    aspace: AddressSpace,
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
