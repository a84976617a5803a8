"""The per-call VMA walk, kept as the parity oracle.

This is how ``repro.vm.address_space.AddressSpace`` mutated its VMA
list before every mutation became one ``_splice``: ``munmap`` walked
the list deleting and re-inserting split pieces one by one, ``mmap``
bisected, merged with either neighbour and inserted, ``MAP_FIXED`` was
the first followed by the second, ``mprotect`` a removal and one
insertion per piece, and ``MAP_POPULATE`` faulted the range in page by
page.  The functions below are those methods verbatim, as free
functions over an :class:`AddressSpace`'s own lists — and over the
touched-page set of a :class:`SetResidencySpace`, which is how residency
was kept before it became sorted intervals.

:func:`oracle_map_runs` is the loop ``materialize_pages`` used to drive
through ``Substrate.map_fixed``: one old ``MemoryMapper.mmap(fixed=True,
file=...)`` per run, each charging its own syscall, page-table and
soft-fault cost the moment it is issued.  ``tests/vm/test_map_runs.py``
runs it and ``MemoryMapper.map_runs`` over identical address spaces and
requires equal VMAs, fault sets, rendered maps text, snapshot columns
and ledgers.
"""

from __future__ import annotations

import bisect
import dataclasses

from repro.vm.address_space import AddressSpace
from repro.vm.cost import MAIN_LANE
from repro.vm.errors import BadAddressError, MapError
from repro.vm.mmap_api import MemoryMapper
from repro.vm.vma import Vma


class SetResidencySpace(AddressSpace):
    """An address space whose residency is the plain ``set`` of touched
    pages the resident intervals replaced: the oracle's side of a
    parity run.  Only the walk below and ``fault_in`` run on it; both
    sides are read through :meth:`resident_pages`."""

    def __init__(self, pid: int = 1) -> None:
        super().__init__(pid)
        self.faulted: set[int] = set()

    def fault_in(self, vpn: int) -> bool:
        with self.lock:
            if vpn in self.faulted:
                return False
            if not self.is_mapped(vpn):
                raise BadAddressError(f"fault on unmapped page {vpn:#x}")
            self.faulted.add(vpn)
            return True

    def resident_pages(self) -> set[int]:
        return set(self.faulted)


def fault_in_range(aspace: AddressSpace, start: int, npages: int) -> int:
    """The per-page reference of ``AddressSpace.fault_in_range``."""
    if npages <= 0:
        raise MapError("cannot fault in an empty range")
    return sum(aspace.fault_in(vpn) for vpn in range(start, start + npages))


def _invalidate_faults(aspace: SetResidencySpace, start: int, npages: int) -> None:
    if len(aspace.faulted) < npages:
        end = start + npages
        overlap = [vpn for vpn in aspace.faulted if start <= vpn < end]
        aspace.faulted.difference_update(overlap)
    elif npages < 64:
        for vpn in range(start, start + npages):
            aspace.faulted.discard(vpn)
    else:
        aspace.faulted -= set(range(start, start + npages))


def _resident_in_range(aspace: SetResidencySpace, start: int, npages: int) -> set[int]:
    end = start + npages
    if len(aspace.faulted) < npages:
        return {vpn for vpn in aspace.faulted if start <= vpn < end}
    return set(range(start, end)) & aspace.faulted


def _add_mapping_locked(aspace: AddressSpace, vma: Vma) -> None:
    idx = bisect.bisect_left(aspace._starts, vma.start)
    if idx < len(aspace._vmas) and aspace._vmas[idx].overlaps(vma.start, vma.npages):
        raise MapError(f"{vma} overlaps {aspace._vmas[idx]}")
    if idx > 0 and aspace._vmas[idx - 1].overlaps(vma.start, vma.npages):
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
        if not vma.overlaps(start, npages):
            idx += 1
            continue
        del aspace._vmas[idx]
        del aspace._starts[idx]
        if vma.start < start:
            head, vma = vma.split_at(start)
            aspace._vmas.insert(idx, head)
            aspace._starts.insert(idx, head.start)
            idx += 1
        if vma.end > end:
            vma, tail = vma.split_at(end)
            aspace._vmas.insert(idx, tail)
            aspace._starts.insert(idx, tail.start)
        removed += vma.npages
    _invalidate_faults(aspace, start, npages)
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
        _invalidate_faults(aspace, vma.start, vma.npages)


def protect_mapping(aspace: AddressSpace, start: int, npages: int, perms: str) -> None:
    if npages <= 0:
        raise MapError("cannot protect an empty range")
    if not set(perms) <= set("rwx"):
        raise MapError(f"bad permission string: {perms!r}")
    with aspace.lock:
        for vpn in (start, start + npages - 1):
            if not aspace.is_mapped(vpn):
                raise BadAddressError(f"mprotect on unmapped page {vpn:#x}")
        covered = [vma for vma in aspace._vmas if vma.overlaps(start, npages)]
        span = sum(
            min(vma.end, start + npages) - max(vma.start, start) for vma in covered
        )
        if span != npages:
            raise BadAddressError("mprotect range contains a hole")
        pieces = []
        for vma in covered:
            piece_start = max(vma.start, start)
            piece_end = min(vma.end, start + npages)
            file_page = vma.file_page + (piece_start - vma.start) if vma.file else 0
            pieces.append(
                dataclasses.replace(
                    vma,
                    start=piece_start,
                    npages=piece_end - piece_start,
                    file_page=file_page,
                    perms=perms,
                )
            )
        # mprotect must not invalidate resident pages: preserve the
        # fault state across the remove/re-add below.
        resident = _resident_in_range(aspace, start, npages)
        _remove_mapping_locked(aspace, start, npages)
        for piece in pieces:
            _add_mapping_locked(aspace, piece)
        aspace.faulted |= resident


def oracle_map_fixed(
    mapper: MemoryMapper,
    vpn: int,
    npages: int,
    file,
    file_page: int,
    populate: bool = False,
    lane: str = MAIN_LANE,
) -> None:
    """One old ``MemoryMapper.mmap(addr=vpn, fixed=True, file=file, ...)``."""
    if npages <= 0:
        raise MapError("mmap of zero pages")
    if file_page < 0 or file_page + npages > file.num_pages:
        raise MapError(
            f"file range [{file_page}, {file_page + npages}) outside "
            f"{file.name!r} ({file.num_pages} pages)"
        )
    replace_mapping(mapper.address_space, Vma(vpn, npages, file, file_page))
    mapper.cost.mmap_call(npages, lane)
    if populate:
        fault_in_range(mapper.address_space, vpn, npages)
        mapper.cost.soft_fault(npages, lane)
    if mapper.observer is not None:
        mapper.observer.on_mmap("fixed", npages)


def oracle_map_runs(
    mapper: MemoryMapper,
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
            mapper, int(vpn), int(n), file, int(file_page), populate, lane
        )
