"""A process address space: VMA bookkeeping plus fault tracking.

This is pure mechanism — it answers "what maps where" and performs the
kernel-side mutations.  Every mutation is one :meth:`AddressSpace._splice`
of the sorted VMA list: clip what was there, place what is new, merge
compatible neighbours, assign one slice.  Cost
accounting and syscall-style argument checking live one level up in
:mod:`repro.vm.mmap_api`.

Residency — which pages have been touched since they were last
(re-)mapped — is kept as sorted, disjoint, non-adjacent intervals
``[start, end)`` in two parallel lists, the idiom of ``_starts``: a
populated plan without gaps is one interval, discarding it one bisect
and one slice deletion, a fault a bisect.  The bookkeeping of a mapping
is proportional to the intervals it touches, never to its pages.
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
        # resident intervals [start, end): sorted, disjoint, non-adjacent
        self._res_starts: list[int] = []
        self._res_ends: list[int] = []
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
            i = bisect.bisect_right(self._res_starts, vpn) - 1
            if i >= 0 and vpn < self._res_ends[i]:
                return False
            if not self.is_mapped(vpn):
                raise BadAddressError(f"fault on unmapped page {vpn:#x}")
            self._mark_resident(vpn, vpn + 1)
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
            return self._mark_resident(start, start + npages)

    def resident_intervals(self) -> list[tuple[int, int]]:
        """The resident ranges ``[start, end)`` in address order."""
        with self.lock:
            return list(zip(self._res_starts, self._res_ends))

    def resident_pages(self) -> set[int]:
        """Every resident page (touched since it was last mapped)."""
        return {
            vpn
            for start, end in self.resident_intervals()
            for vpn in range(start, end)
        }

    def _mark_resident(self, lo: int, hi: int) -> int:
        """Make ``[lo, hi)`` resident; returns the pages that were not.

        The intervals the range overlaps or touches fuse with it into
        one.
        """
        starts, ends = self._res_starts, self._res_ends
        i = bisect.bisect_left(ends, lo)
        j = bisect.bisect_right(starts, hi, i)
        fresh = hi - lo
        if i < j:
            for k in range(i, j):
                fresh -= min(ends[k], hi) - max(starts[k], lo)
            lo = min(lo, starts[i])
            hi = max(hi, ends[j - 1])
        starts[i:j] = [lo]
        ends[i:j] = [hi]
        return fresh

    def _invalidate_faults(self, start: int, npages: int) -> None:
        """Forget fault state for a remapped/unmapped range.

        One bisect finds the intervals the range cuts; what lies between
        the first and the last goes in one slice deletion, however many
        pages the range or the intervals span.
        """
        end = start + npages
        starts, ends = self._res_starts, self._res_ends
        i = bisect.bisect_right(ends, start)
        j = bisect.bisect_left(starts, end, i)
        if i == j:
            return
        kept_starts, kept_ends = [], []
        if starts[i] < start:
            kept_starts.append(starts[i])
            kept_ends.append(start)
        if ends[j - 1] > end:
            kept_starts.append(end)
            kept_ends.append(ends[j - 1])
        starts[i:j] = kept_starts
        ends[i:j] = kept_ends

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
            self._invalidate_faults(start, npages)
            if not old:
                return 0
            # whole areas, less what the first and the last keep outside
            return (
                sum([vma.npages for vma in old])
                - max(start - old[0].start, 0)
                - max(old[-1].end - end, 0)
            )

    def replace_mapping(self, vma: Vma) -> None:
        """MAP_FIXED semantics: atomically unmap the range, then map ``vma``."""
        self.map_runs([vma])

    def map_runs(self, runs: Sequence[Vma], populate: bool = False) -> None:
        """MAP_FIXED a whole plan: every run replaces what its range held.

        ``runs`` must be sorted by address and must not overlap; what
        lies between two runs stays mapped as it was.  Each stretch of
        touching runs is one splice and one fault-state interval, so a
        plan that spans several views' areas costs per stretch, not per
        VMA between its first and last page.  The fault state of every
        run is reset and, with ``populate``, installed again
        (``MAP_POPULATE``).
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
                if populate:
                    self._mark_resident(lo, hi)
                else:
                    self._invalidate_faults(lo, hi - lo)

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
