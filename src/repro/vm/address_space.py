"""A process address space: VMA bookkeeping plus fault tracking.

This is pure mechanism — it answers "what maps where" and performs the
kernel-side mutations.  Every mutation is one :meth:`AddressSpace._splice`
of the sorted VMA list: clip what was there, place what is new, merge
compatible neighbours, assign one slice.  Cost
accounting and syscall-style argument checking live one level up in
:mod:`repro.vm.mmap_api`.
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterator, Sequence

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

    def _overlapping(self, lo: int, hi: int) -> tuple[int, int]:
        """Slice bounds of the VMAs that overlap ``[lo, hi)``."""
        i = bisect.bisect_right(self._starts, lo)
        if i and self._vmas[i - 1].end > lo:
            i -= 1
        return i, bisect.bisect_left(self._starts, hi, i)

    def _first_unmapped(self, start: int, end: int) -> int | None:
        """The first page of ``[start, end)`` no VMA holds, if any.

        Walks the (sorted) VMAs of the range, so the check is
        O(VMAs in range), not O(pages).
        """
        i, j = self._overlapping(start, end)
        for vma in self._vmas[i:j]:
            if vma.start > start:
                break
            start = vma.end
        return start if start < end else None

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
            hole = self._first_unmapped(start, start + npages)
            if hole is not None:
                raise BadAddressError(f"fault on unmapped page {hole:#x}")
            before = len(self._faulted)
            self._faulted.update(range(start, start + npages))
            return len(self._faulted) - before

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
        else:
            self._faulted.difference_update(range(start, start + npages))

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

    def _splice(self, lo: int, hi: int, new: Sequence[Vma]) -> list[Vma]:
        """Clear ``[lo, hi)`` and place ``new`` there, in one list edit.

        ``new`` is sorted and non-overlapping and, unless empty, begins
        at ``lo`` and ends at ``hi``.  Old mappings survive outside the
        range and in the gaps between consecutive new areas, clipped to
        fit; adjacent compatible areas merge, as the kernel merges them.
        Fault state is the caller's business.  Returns the old VMAs the
        range touched.
        """
        vmas = self._vmas
        i, j = self._overlapping(lo, hi)
        old = vmas[i:j]
        first = max(i - 1, 0)
        pieces = vmas[first:i]  # the predecessor may merge with what follows
        if old and old[0].start < lo:
            pieces.append(old[0].clipped(old[0].start, lo))
        cursor = 0
        reach = lo
        for vma in new:
            while reach < vma.start and cursor < len(old):
                survivor = old[cursor]
                if survivor.end <= reach:
                    cursor += 1
                elif survivor.start >= vma.start:
                    break
                else:
                    pieces.append(survivor.clipped(reach, vma.start))
                    reach = survivor.end
            pieces.append(vma)
            reach = vma.end
        if old and old[-1].end > hi:
            pieces.append(old[-1].clipped(hi, old[-1].end))
        pieces += vmas[j : j + 1]  # ... and so may the successor
        merged: list[Vma] = []
        for vma in pieces:
            if merged and merged[-1].can_merge_with(vma):
                merged[-1] = merged[-1].merged_with(vma)
            else:
                merged.append(vma)
        vmas[first : j + 1] = merged
        self._starts[first : j + 1] = [vma.start for vma in merged]
        # keep the bump allocator clear of explicitly placed mappings
        if new and new[-1].end > self._next_vpn:
            self._next_vpn = new[-1].end
        return old

    def add_mapping(self, vma: Vma) -> None:
        """Insert ``vma``; the range must currently be unmapped.

        Adjacent compatible VMAs are merged, as the kernel does.
        """
        with self.lock:
            i, j = self._overlapping(vma.start, vma.end)
            if i < j:
                raise MapError(f"{vma} overlaps {self._vmas[i]}")
            self._splice(vma.start, vma.end, [vma])

    def remove_mapping(self, start: int, npages: int) -> int:
        """Unmap ``[start, start + npages)``; returns pages removed.

        Like ``munmap``, the range may cover holes and partial VMAs;
        affected VMAs are split as needed.
        """
        if npages <= 0:
            raise MapError("cannot unmap an empty range")
        end = start + npages
        with self.lock:
            old = self._splice(start, end, ())
            self._invalidate_faults(start, npages)
            return sum(min(vma.end, end) - max(vma.start, start) for vma in old)

    def replace_mapping(self, vma: Vma) -> None:
        """MAP_FIXED semantics: atomically unmap the range, then map ``vma``."""
        self.map_runs([vma])

    def map_runs(self, runs: Sequence[Vma], populate: bool = False) -> None:
        """MAP_FIXED a whole plan: every run replaces what its range held.

        ``runs`` must be sorted by address and must not overlap; what
        lies between two runs stays mapped as it was.  The fault state
        of every run is reset and, with ``populate``, installed again
        (``MAP_POPULATE``) — for a plan without gaps, in one set
        operation over its hull.
        """
        if not runs:
            return
        gaps = False
        for before, after in zip(runs, runs[1:]):
            if after.start < before.end:
                raise MapError(f"plan not in address order: {after} after {before}")
            gaps = gaps or after.start > before.end
        lo, hi = runs[0].start, runs[-1].end
        with self.lock:
            self._splice(lo, hi, runs)
            spans = [(run.start, run.end) for run in runs] if gaps else [(lo, hi)]
            for start, end in spans:
                if populate:
                    self._faulted.update(range(start, end))
                else:
                    self._invalidate_faults(start, end - start)

    def protect_mapping(self, start: int, npages: int, perms: str) -> None:
        """mprotect semantics: change permissions of a mapped range.

        The whole range must be mapped; affected VMAs are split at the
        boundaries and re-inserted with the new permissions (adjacent
        compatible areas merge back together, as the kernel does).
        Resident pages stay resident.
        """
        if npages <= 0:
            raise MapError("cannot protect an empty range")
        if not set(perms) <= set("rwx"):
            raise MapError(f"bad permission string: {perms!r}")
        end = start + npages
        with self.lock:
            hole = self._first_unmapped(start, end)
            if hole is not None:
                raise BadAddressError(f"mprotect on unmapped page {hole:#x}")
            i, j = self._overlapping(start, end)
            self._splice(
                start,
                end,
                [vma.clipped(start, end, perms) for vma in self._vmas[i:j]],
            )
