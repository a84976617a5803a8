"""A process address space: VMA bookkeeping.

This is pure mechanism — it answers "what maps where" and performs the
kernel-side mutations.  Every mutation is one :meth:`AddressSpace._splice`
of the sorted VMA list: clip what was there, place what is new, merge
compatible neighbours, assign one slice.  Cost accounting and
syscall-style argument checking live one level up, in
:class:`~repro.substrate.interface.Substrate`, which keeps one address
space as the page table of either backend.
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
        Returns the old VMAs the range touched.
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
            start = vma.start
            while reach < start and cursor < len(old):
                survivor = old[cursor]
                if survivor.end <= reach:
                    cursor += 1
                elif survivor.start >= start:
                    break
                else:
                    pieces.append(survivor.clipped(reach, start))
                    reach = survivor.end
            pieces.append(vma)
            reach = start + vma.npages
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
            if not old:
                return 0
            # whole areas, less what the first and the last keep outside
            return (
                sum([vma.npages for vma in old])
                - max(start - old[0].start, 0)
                - max(old[-1].end - end, 0)
            )

    def map_runs(self, runs: Sequence[Vma]) -> None:
        """MAP_FIXED a whole plan: every run replaces what its range held.

        ``runs`` must be sorted by address and must not overlap; what
        lies between two runs stays mapped as it was.  Each stretch of
        touching runs is one splice, so a plan that spans several views'
        areas costs per stretch, not per VMA between its first and last
        page.
        """
        if not runs:
            return
        stretches = []  # (first run, end run, lo, hi) per touching stretch
        first = 0
        lo = hi = runs[0].start
        for k, run in enumerate(runs):
            if run.start != hi:
                if run.start < hi:
                    raise MapError(
                        f"plan not in address order: {run} after {runs[k - 1]}"
                    )
                stretches.append((first, k, lo, hi))
                first, lo = k, run.start
            hi = run.start + run.npages
        stretches.append((first, len(runs), lo, hi))
        with self.lock:
            for first, end, lo, hi in stretches:
                self._splice(lo, hi, runs[first:end])
