"""A process address space: VMA bookkeeping plus fault tracking.

This is pure mechanism — it answers "what maps where" and performs the
kernel-side mutations (insert with merge, unmap with split).  Cost
accounting and syscall-style argument checking live one level up in
:mod:`repro.vm.mmap_api`.
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterator

from .. import fastpath
from .errors import BadAddressError, MapError
from .physical import MemoryFile
from .vma import Vma

#: First virtual page number handed out by the region allocator.  Offset
#: from zero purely so rendered addresses resemble real process layouts.
_MMAP_BASE_VPN = 0x10000


class AddressSpace:
    """Virtual address space of one simulated process."""

    def __init__(self, pid: int = 1) -> None:
        self.pid = pid
        self._vmas: list[Vma] = []  # sorted by start, non-overlapping
        self._starts: list[int] = []  # parallel list for bisect
        self._next_vpn = _MMAP_BASE_VPN
        self._faulted: set[int] = set()
        #: Monotonic mapping-change counter.  Bumped by every mutation
        #: that can change the rendered maps file (map/unmap/protect);
        #: consumers (the maps render cache in
        #: :mod:`repro.vm.procmaps`) compare generations instead of
        #: re-rendering to detect "nothing changed".
        self.generation = 0
        #: Serializes mutations; the background mapping thread
        #: (Section 2.3, optimization 2) maps pages concurrently with the
        #: scanning thread, just as the kernel serializes mmap internally.
        self.lock = threading.RLock()

    # -- queries ----------------------------------------------------------

    def vmas(self) -> Iterator[Vma]:
        """All VMAs in address order."""
        return iter(self._vmas)

    @property
    def num_vmas(self) -> int:
        """Number of VMAs (= lines in the rendered maps file)."""
        return len(self._vmas)

    def find_vma(self, vpn: int) -> Vma | None:
        """The VMA containing virtual page ``vpn``, if any."""
        idx = bisect.bisect_right(self._starts, vpn) - 1
        if idx >= 0 and self._vmas[idx].contains(vpn):
            return self._vmas[idx]
        return None

    def translate(self, vpn: int) -> tuple[MemoryFile, int] | None:
        """Physical page behind ``vpn``.

        Returns ``None`` for anonymous pages and raises
        :class:`BadAddressError` for unmapped ones.
        """
        vma = self.find_vma(vpn)
        if vma is None:
            raise BadAddressError(f"virtual page {vpn:#x} is not mapped")
        return vma.translate(vpn)

    def is_mapped(self, vpn: int) -> bool:
        """Whether ``vpn`` lies in any VMA."""
        return self.find_vma(vpn) is not None

    # -- fault tracking ----------------------------------------------------

    def fault_in(self, vpn: int) -> bool:
        """Record an access to ``vpn``; True if it is the first touch.

        The first access after a (re-)mapping triggers a soft page fault;
        the caller charges its cost.
        """
        with self.lock:
            if vpn in self._faulted:
                return False
            if not self.is_mapped(vpn):
                raise BadAddressError(f"fault on unmapped page {vpn:#x}")
            self._faulted.add(vpn)
            return True

    def fault_in_range(self, start: int, npages: int) -> int:
        """Record accesses to ``[start, start + npages)`` in one step.

        The bulk counterpart of :meth:`fault_in` — used when a mapping
        is populated eagerly (``MAP_POPULATE``).  The whole range must be
        mapped.  Returns the number of first touches.
        """
        if npages <= 0:
            raise MapError("cannot fault in an empty range")
        with self.lock:
            if not fastpath.enabled():
                return sum(
                    self.fault_in(vpn) for vpn in range(start, start + npages)
                )
            self._check_range_mapped(start, npages)
            before = len(self._faulted)
            self._faulted.update(range(start, start + npages))
            return len(self._faulted) - before

    def _check_range_mapped(self, start: int, npages: int) -> None:
        """Raise :class:`BadAddressError` unless the range is fully mapped.

        Walks the (sorted) VMA list instead of testing page by page, so
        the check is O(VMAs in range), not O(pages).
        """
        end = start + npages
        point = start
        idx = max(bisect.bisect_right(self._starts, start) - 1, 0)
        while point < end:
            if idx >= len(self._vmas):
                raise BadAddressError(f"fault on unmapped page {point:#x}")
            vma = self._vmas[idx]
            if not vma.contains(point):
                raise BadAddressError(f"fault on unmapped page {point:#x}")
            point = vma.end
            idx += 1

    def _invalidate_faults(self, start: int, npages: int) -> None:
        """Forget fault state for a remapped/unmapped range.

        Iterates the smaller of the remapped range and the resident
        fault set: unmapping a huge, barely-touched area must not pay
        for every page of the range.
        """
        if len(self._faulted) < npages:
            end = start + npages
            overlap = [vpn for vpn in self._faulted if start <= vpn < end]
            self._faulted.difference_update(overlap)
        elif npages < 64:
            for vpn in range(start, start + npages):
                self._faulted.discard(vpn)
        else:
            self._faulted -= set(range(start, start + npages))

    def _resident_in_range(self, start: int, npages: int) -> set[int]:
        """Resident (faulted-in) pages inside ``[start, start + npages)``.

        Like :meth:`_invalidate_faults`, iterates the smaller side.
        """
        end = start + npages
        if len(self._faulted) < npages:
            return {vpn for vpn in self._faulted if start <= vpn < end}
        return set(range(start, end)) & self._faulted

    # -- region allocation ---------------------------------------------------

    def allocate_region(self, npages: int) -> int:
        """Pick an unused virtual range of ``npages`` pages (bump pointer)."""
        if npages <= 0:
            raise MapError("cannot allocate an empty region")
        with self.lock:
            start = self._next_vpn
            self._next_vpn += npages
            return start

    # -- mutations ----------------------------------------------------------

    def add_mapping(self, vma: Vma) -> None:
        """Insert ``vma``; the range must currently be unmapped.

        Adjacent compatible VMAs are merged, as the kernel does.
        """
        with self.lock:
            self._add_mapping_locked(vma)
            self.generation += 1

    def _add_mapping_locked(self, vma: Vma) -> None:
        idx = bisect.bisect_left(self._starts, vma.start)
        if idx < len(self._vmas) and self._vmas[idx].overlaps(vma.start, vma.npages):
            raise MapError(f"{vma} overlaps {self._vmas[idx]}")
        if idx > 0 and self._vmas[idx - 1].overlaps(vma.start, vma.npages):
            raise MapError(f"{vma} overlaps {self._vmas[idx - 1]}")

        # Merge with predecessor and/or successor where possible.
        merged = vma
        if idx > 0 and self._vmas[idx - 1].can_merge_with(merged):
            merged = self._vmas[idx - 1].merged_with(merged)
            del self._vmas[idx - 1]
            del self._starts[idx - 1]
            idx -= 1
        if idx < len(self._vmas) and merged.can_merge_with(self._vmas[idx]):
            merged = merged.merged_with(self._vmas[idx])
            del self._vmas[idx]
            del self._starts[idx]
        self._vmas.insert(idx, merged)
        self._starts.insert(idx, merged.start)
        # keep the bump allocator clear of explicitly placed mappings
        if merged.end > self._next_vpn:
            self._next_vpn = merged.end

    def remove_mapping(self, start: int, npages: int) -> int:
        """Unmap ``[start, start + npages)``; returns pages removed.

        Like ``munmap``, the range may cover holes and partial VMAs;
        affected VMAs are split as needed.
        """
        with self.lock:
            removed = self._remove_mapping_locked(start, npages)
            self.generation += 1
            return removed

    def _remove_mapping_locked(self, start: int, npages: int) -> int:
        if npages <= 0:
            raise MapError("cannot unmap an empty range")
        end = start + npages
        removed = 0
        idx = max(bisect.bisect_right(self._starts, start) - 1, 0)
        while idx < len(self._vmas):
            vma = self._vmas[idx]
            if vma.start >= end:
                break
            if not vma.overlaps(start, npages):
                idx += 1
                continue
            del self._vmas[idx]
            del self._starts[idx]
            if vma.start < start:
                head, vma = vma.split_at(start)
                self._vmas.insert(idx, head)
                self._starts.insert(idx, head.start)
                idx += 1
            if vma.end > end:
                vma, tail = vma.split_at(end)
                self._vmas.insert(idx, tail)
                self._starts.insert(idx, tail.start)
            removed += vma.npages
        self._invalidate_faults(start, npages)
        return removed

    def replace_mapping(self, vma: Vma) -> None:
        """MAP_FIXED semantics: atomically unmap the range, then map ``vma``."""
        with self.lock:
            self._remove_mapping_locked(vma.start, vma.npages)
            self._add_mapping_locked(vma)
            self._invalidate_faults(vma.start, vma.npages)
            self.generation += 1

    def protect_mapping(self, start: int, npages: int, perms: str) -> None:
        """mprotect semantics: change permissions of a mapped range.

        The whole range must be mapped; affected VMAs are split at the
        boundaries and re-inserted with the new permissions (adjacent
        compatible areas merge back together, as the kernel does).
        """
        if npages <= 0:
            raise MapError("cannot protect an empty range")
        if not set(perms) <= set("rwx"):
            raise MapError(f"bad permission string: {perms!r}")
        with self.lock:
            for vpn in (start, start + npages - 1):
                if not self.is_mapped(vpn):
                    raise BadAddressError(
                        f"mprotect on unmapped page {vpn:#x}"
                    )
            covered = [
                vma for vma in self._vmas if vma.overlaps(start, npages)
            ]
            span = sum(
                min(vma.end, start + npages) - max(vma.start, start)
                for vma in covered
            )
            if span != npages:
                raise BadAddressError("mprotect range contains a hole")
            import dataclasses

            pieces = []
            for vma in covered:
                piece_start = max(vma.start, start)
                piece_end = min(vma.end, start + npages)
                file_page = (
                    vma.file_page + (piece_start - vma.start) if vma.file else 0
                )
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
            resident = self._resident_in_range(start, npages)
            self._remove_mapping_locked(start, npages)
            for piece in pieces:
                self._add_mapping_locked(piece)
            self._faulted |= resident
            self.generation += 1
