"""A process address space: VMA bookkeeping, kept as columns.

This is pure mechanism — it answers "what maps where" and performs the
kernel-side mutations.  The VMAs are four parallel int64 columns (first
page, one past the last page, file id, file page), sorted by address,
and every mutation is one splice of them: a ``bisect`` pair finds the
window of VMAs a plan touches, one walk over the window and the plan's
runs clips what the runs cover, places the runs and merges like
neighbours, and one slice assignment per column writes the window back.
The columns are ``array('q')``: a splice edits them as the kernel edits
its VMA tree, in place, and the vectorised reads — a plan's maps
snapshot, the containment test of kernel lines — see them as numpy
arrays without a copy.  :class:`~repro.vm.vma.Vma` is only the read
side: :meth:`AddressSpace.vmas` and :meth:`AddressSpace.find_vma` build
one on demand.  Cost accounting and syscall-style argument checking
live one level up, in :class:`~repro.substrate.interface.Substrate`,
which keeps one address space as the page table of either backend.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left, bisect_right
from operator import add
from typing import Iterator, Sequence

import numpy as np

from .errors import BadAddressError, MapError
from .physical import MemoryFile
from .vma import Vma

#: First virtual page number handed out by the region allocator.  Offset
#: from zero purely so rendered addresses resemble real process layouts.
_MMAP_BASE_VPN = 0x10000

#: The columns, in this order: first page, one past the last page, file
#: id (-1 for an anonymous area) and file page.  An anonymous VMA's file
#: page is its own first page, so one contiguity test merges either kind.
START, END, FILE, FPAGE = range(4)

#: A splice: its windows, each ``(first, last, placed)`` — the VMAs
#: ``[first, last)`` give way to ``placed`` VMAs — and those VMAs, window
#: after window, as four lists (the columns).
Splice = tuple[list[tuple[int, int, int]], list[list[int]]]


class AddressSpace:
    """Virtual address space of one simulated process."""

    def __init__(self, pid: int = 1) -> None:
        self.pid = pid
        #: The VMAs' columns (:data:`START`, :data:`END`, :data:`FILE`,
        #: :data:`FPAGE`), edited in place under :attr:`lock`.
        self._columns = tuple(array("q") for _ in range(4))
        #: File id -> file, and ``id(file)`` -> file id.
        self._files: list = []
        self._file_ids: dict[int, int] = {}
        self._next_vpn = _MMAP_BASE_VPN
        #: Serializes mutations; the background mapping thread
        #: (Section 2.3, optimization 2) maps pages concurrently with the
        #: scanning thread, just as the kernel serializes mmap internally.
        self.lock = threading.RLock()

    # -- queries ----------------------------------------------------------

    def columns(self) -> tuple[np.ndarray, list]:
        """A copy of the table, shape ``(4, num_vmas)`` (rows
        :data:`START`, :data:`END`, :data:`FILE`, :data:`FPAGE`), and the
        files its file ids index."""
        with self.lock:
            return np.array([np.frombuffer(c, np.int64) for c in self._columns]), self._files

    def _vma(self, start: int, end: int, fid: int, fpage: int) -> Vma:
        if fid < 0:
            return Vma._placed(start, end - start, None, 0)
        return Vma._placed(start, end - start, self._files[fid], fpage)

    def vmas(self) -> Iterator[Vma]:
        """All VMAs in address order."""
        with self.lock:
            return iter([self._vma(*row) for row in zip(*self._columns)])

    @property
    def num_vmas(self) -> int:
        """Number of VMAs (= lines in the rendered maps file)."""
        return len(self._columns[START])

    def find_vma(self, vpn: int) -> Vma | None:
        """The VMA containing virtual page ``vpn``, if any."""
        with self.lock:
            k = bisect_right(self._columns[START], vpn) - 1
            if k < 0 or vpn >= self._columns[END][k]:
                return None
            return self._vma(*(column[k] for column in self._columns))

    def translate(self, vpn: int) -> tuple[MemoryFile, int] | None:
        """Physical page behind ``vpn``.

        Returns ``None`` for anonymous pages and raises
        :class:`BadAddressError` for unmapped ones.
        """
        vma = self.find_vma(vpn)
        if vma is None:
            raise BadAddressError(f"virtual page {vpn:#x} is not mapped")
        return vma.translate(vpn)

    def file_runs(
        self, start: int, end: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict]:
        """The file-backed VMAs over ``[start, end)``, clipped to it, in
        address order, as columns — first page, pages, file id, file page
        — and the files the ids name, by id.  Anonymous VMAs and holes
        are skipped.  Hold :attr:`lock` for as long as the runs are read."""
        begin, stop, fids, _ = self._columns
        i = bisect_right(stop, start)
        j = bisect_left(begin, end, i)
        if j > i and fids[j - 1] < 0:
            j -= 1  # the reservation left past a view's slots
        ids = set(fids[i:j])
        first, last, fid, fpage = (np.frombuffer(c[i:j], np.int64) for c in self._columns)
        if -1 in ids:
            ids.discard(-1)
            kept = fid >= 0  # reservation slots between the runs
            first, last, fid, fpage = first[kept], last[kept], fid[kept], fpage[kept]
        if first.size:
            # the edge file VMAs are clipped to the range
            if first[0] < start:
                fpage[0] += start - first[0]
                first[0] = start
            if last[-1] > end:
                last[-1] = end
        return first, last - first, fid, fpage, {f: self._files[f] for f in ids}

    def covers(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Per range ``[starts[i], ends[i])``, whether VMAs hold every
        page of it: no page lies in a hole or outside every area."""
        with self.lock:
            if not self.num_vmas:
                return np.zeros(starts.size, dtype=bool)
            begin = np.frombuffer(self._columns[START], np.int64)
            end = np.frombuffer(self._columns[END], np.int64)
            # stretches of touching VMAs: where each starts and ends
            opens = np.flatnonzero(end[:-1] != begin[1:])
            reach = end[np.concatenate((opens, [end.size - 1]))]
            first = begin[np.concatenate(([0], opens + 1))]
            del begin, end  # views of the columns: none outlives the lock
        # the one stretch whose end lies past a range's first page
        k = np.minimum(reach.searchsorted(starts, "right"), reach.size - 1)
        return (first[k] <= starts) & (ends <= reach[k])

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

    def _file_id(self, file) -> int:
        """The file id of ``file`` (-1 for none), interned on first use.
        Files no VMA maps any more are dropped once the list has doubled."""
        if file is None:
            return -1
        fid = self._file_ids.get(id(file))
        if fid is None:
            known = self._files
            used = np.array(self._columns[FILE], dtype=np.int64)
            if len(known) >= 16 and len(known) >= 2 * np.unique(used).size:
                live, used[used >= 0] = np.unique(used[used >= 0], return_inverse=True)
                self._columns[FILE][:] = array("q", used.tobytes())
                self._files = known = [known[old] for old in live.tolist()]
                self._file_ids = {id(f): new for new, f in enumerate(known)}
            fid = len(known)
            known.append(file)
            self._file_ids[id(file)] = fid
        return fid

    def _splice(
        self,
        starts: Sequence[int],
        ends: Sequence[int],
        fid: int | None,
        fpages: Sequence[int],
        inside: bool,
    ) -> Splice:
        """The splice that clears every run ``[starts[i], ends[i])`` and,
        unless ``fid`` is ``None``, places the runs there as VMAs of file
        ``fid`` (-1: anonymous) from file page ``fpages[i]`` (an anonymous
        run's own first page).

        The runs are sorted and do not overlap.  Old mappings survive
        around and between them, clipped to fit; adjacent like areas
        merge, as the kernel merges them.  With ``inside``, a run with a
        page outside every VMA raises :class:`MapError`.  Only windows
        of VMAs the runs touch, with a neighbour on either side, are
        read; the columns are not changed (:meth:`_commit` does).
        """
        begin, end, file_ids, file_pages = self._columns
        size, count = len(begin), len(starts)
        i = bisect_right(end, starts[0])
        j = bisect_left(begin, ends[-1], i)
        firsts, lasts, stops = [i], [j], [count]
        if j - i > 2 * count:
            # Walking an untouched VMA costs about what a run's own
            # search does: where they outnumber the runs, give each group
            # of runs with no untouched VMA between them a window.
            first_vma = [bisect_right(end, s) for s in starts]
            last_vma = [bisect_left(begin, e) for e in ends]
            stops = [r for r in range(1, count) if first_vma[r] > last_vma[r - 1] + 1]
            firsts = [first_vma[r] for r in [0, *stops]]
            stops.append(count)
            lasts = [last_vma[r - 1] for r in stops]
        place = fid is not None
        rows: list[list[int]] = [[], [], [], []]
        out_s, out_e, out_f, out_p = rows

        def emit(s: int, e: int, f: int, p: int) -> None:
            # like neighbours, which the kernel merges into one area:
            # adjacent, one file and (for a file) contiguous file pages
            if out_e and out_e[-1] == s and out_f[-1] == f and out_p[-1] + s - out_s[-1] == p:
                out_e[-1] = e
            else:
                out_s.append(s)
                out_e.append(e)
                out_f.append(f)
                out_p.append(p)

        windows = []
        r = 0
        for i, j, stop in zip(firsts, lasts, stops):
            first = i - 1 if i else 0  # the predecessor may merge with what follows
            last = j + 1 if j < size else size  # ... and so may the successor
            emitted = len(out_s)
            placed = -1  # the runs replace everything below this
            owed = prev_end = -1  # the VMAs must hold every page below owed
            window = zip(begin[first:last], end[first:last], file_ids[first:last], file_pages[first:last])
            for s, e, f, p in window:
                if inside and owed > prev_end and s != prev_end:
                    raise MapError(f"run ending at page {owed:#x} lies outside every area")
                cut = s if s > placed else placed
                while r < stop and starts[r] < e:
                    lo = starts[r]
                    if inside and lo < s:
                        raise MapError(f"run at page {lo:#x} lies outside every area")
                    if lo > cut:
                        emit(cut, lo, f, p + cut - s)
                    placed = owed = ends[r]
                    if place:
                        emit(lo, placed, fid, fpages[r])
                    if placed > cut:
                        cut = placed
                    r += 1
                if cut < e:
                    emit(cut, e, f, p + cut - s)
                prev_end = e
            if inside and (r < stop or owed > prev_end):
                raise MapError(f"run at page {starts[min(r, stop - 1)]:#x} lies outside every area")
            if place:
                for k in range(r, stop):  # runs past every VMA
                    emit(starts[k], ends[k], fid, fpages[k])
            r = stop
            windows.append((first, last, len(out_s) - emitted))
        return windows, rows

    def _commit(self, splice: Splice) -> None:
        """Write a splice back: each window's VMAs replace its VMAs, one
        slice assignment per column, last window first."""
        windows, rows = splice
        if len(windows) == 1:
            [(first, last, _)] = windows
            for column, values in zip(self._columns, rows):
                column[first:last] = array("q", values)
        else:
            k = len(rows[START])
            for first, last, placed in reversed(windows):
                for column, values in zip(self._columns, rows):
                    column[first:last] = array("q", values[k - placed : k])
                k -= placed
        # keep the bump allocator clear of explicitly placed mappings
        if rows[END] and rows[END][-1] > self._next_vpn:
            self._next_vpn = rows[END][-1]

    def add_mapping(
        self, start: int, npages: int, file=None, file_page: int = 0
    ) -> None:
        """Map ``npages`` pages at ``start`` (of ``file`` from
        ``file_page``, or anonymous); the range must currently be unmapped.

        Adjacent like VMAs are merged, as the kernel does.
        """
        end = start + npages
        with self.lock:
            k = bisect_right(self._columns[END], start)
            if k < self.num_vmas and self._columns[START][k] < end:
                new = Vma._placed(start, npages, file, file_page if file else 0)
                taken = self._vma(*(column[k] for column in self._columns))
                raise MapError(f"{new} overlaps {taken}")
            fpage = start if file is None else file_page
            self._commit(self._splice((start,), (end,), self._file_id(file), (fpage,), False))

    def remove_mapping(self, start: int, npages: int) -> int:
        """Unmap ``[start, start + npages)``; returns pages removed.

        Like ``munmap``, the range may cover holes and partial VMAs;
        affected VMAs are split as needed.
        """
        if npages <= 0:
            raise MapError("cannot unmap an empty range")
        end = start + npages
        with self.lock:
            splice = self._splice((start,), (end,), None, (), False)
            [(first, last, _)], rows = splice
            held = sum(self._columns[END][first:last]) - sum(self._columns[START][first:last])
            self._commit(splice)
            # the pages the window held, less the pages it keeps
            return held - (sum(rows[END]) - sum(rows[START]))

    def plan_runs(
        self,
        vpns: Sequence[int],
        npages: Sequence[int],
        file=None,
        file_pages: Sequence[int] = (),
    ) -> Splice | None:
        """The splice that maps a whole plan with ``MAP_FIXED``, checked:
        every page of every run must lie inside the VMAs, or
        :class:`MapError` is raised.  ``None`` for an empty plan.

        Run ``i`` maps ``npages[i]`` pages at ``vpns[i]`` onto ``file``
        from ``file_pages[i]``, or anonymous memory without ``file``; the
        runs are sorted by address and do not overlap (the substrate
        checks that), and what lies between two runs stays as it was.
        Hold :attr:`lock` from the plan to its :meth:`commit`.
        """
        return self._plan(vpns, npages, file, file_pages, True)

    def _plan(self, vpns, npages, file, file_pages, inside: bool) -> Splice | None:
        if not vpns:
            return None
        ends = list(map(add, vpns, npages))
        fpages = vpns if file is None else file_pages
        return self._splice(vpns, ends, self._file_id(file), fpages, inside)

    def commit(self, splice: Splice | None) -> None:
        """Write back a splice :meth:`plan_runs` made (none: no change)."""
        if splice is not None:
            self._commit(splice)

    def map_runs(
        self,
        vpns: Sequence[int],
        npages: Sequence[int],
        file=None,
        file_pages: Sequence[int] = (),
    ) -> None:
        """MAP_FIXED a whole plan in one splice, however many areas it
        spans, wherever its runs lie: the kernel's own view of a plan,
        unchecked (:meth:`plan_runs` is the substrate's, checked)."""
        with self.lock:
            self.commit(self._plan(vpns, npages, file, file_pages, False))
