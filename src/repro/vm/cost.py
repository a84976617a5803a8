"""Deterministic cost model for the simulated memory subsystem.

The paper's evaluation ran on an Intel i7-12700KF with DDR5-4800 memory.
Re-running it in Python would measure interpreter overhead, not the
virtual-memory mechanism, so this module substitutes a *calibrated,
deterministic cost model*: every substrate operation (sequential value
read, page access, mmap syscall, soft page fault, maps-file line parse,
...) charges a fixed number of nanoseconds to a :class:`CostLedger`.

Calibration anchor: a full scan of the paper's 3.9 GB column (1M pages of
511 values) must cost roughly 234 ms, because Table 1 reports 58.6 s for
250 full-scan queries.  With the defaults below one full page costs
``seq_page_access_ns + page_header_read_ns + 511 * seq_value_read_ns``
which is about 245 ns, i.e. ~245 ms per 1M-page scan.

Units: the constants and every reader speak nanoseconds, but a ledger
lane holds whole picoseconds as a Python ``int``.  :class:`CostModel`
rounds its constants to picoseconds once, when it is built (every
default is exact), so a lane is the same sum whatever order its charges
come in — across a block of views, threads or shards alike.

The ledger supports multiple *lanes* so that the background-mapping
optimization (Section 2.3, optimization 2) can account mapping work on a
separate simulated thread; a :class:`Region` reports both per-lane deltas
and the overlapped elapsed time (the maximum over lanes).
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

#: Ledger lanes count whole picoseconds; the API speaks nanoseconds.
PS_PER_NS = 1000

#: Per page access kind: the :class:`CostParameters` field that touching
#: one page of that kind costs.
_PAGE_ACCESS = {
    "seq": "seq_page_access_ns",
    "prefetched": "prefetched_page_access_ns",
    "random": "random_page_access_ns",
    "strided": "strided_header_access_ns",
}


def to_ps(ns: float) -> int:
    """``ns`` nanoseconds in whole picoseconds: the ledger's one rounding."""
    return round(ns * PS_PER_NS)


@dataclass(frozen=True)
class CostParameters:
    """Nanosecond constants of the simulated machine.

    The defaults are calibrated against the paper's hardware (see module
    docstring); all of them can be overridden to model other machines.
    """

    #: Reading one 8 B value as part of a sequential scan (~17.5 GB/s).
    seq_value_read_ns: float = 0.46

    #: Reading a page's 8 B header/pageID once the page is resident.
    page_header_read_ns: float = 6.0

    #: Touching the next page of a sequential scan (prefetcher hides
    #: almost all latency).
    seq_page_access_ns: float = 4.0

    #: Touching a page via software prefetching (``__builtin_prefetch``),
    #: as the vector-of-page-addresses baseline does.
    prefetched_page_access_ns: float = 22.0

    #: Touching a page at a random / unpredictable address (cache+TLB
    #: miss).
    random_page_access_ns: float = 85.0

    #: Inspecting one page's zone-map header with a 4 KiB stride.  Over
    #: a multi-GB column the stride misses cache and TLB on every page,
    #: so the walk pays effectively random latency — this is what makes
    #: the zone map the most expensive variant in Figure 3 ("the
    #: meta-data of all pages must be inspected, involving 1M address
    #: translations").
    strided_header_access_ns: float = 85.0

    #: Base cost of one mmap() syscall (mode switch + VMA bookkeeping).
    mmap_syscall_ns: float = 1500.0

    #: Incremental per-page cost inside one mmap() call.
    mmap_per_page_ns: float = 28.0

    #: Base cost of one munmap() syscall.
    munmap_syscall_ns: float = 1300.0

    #: Soft page fault on the very first access after (re)mapping.  The
    #: paper calls this "negligible overhead for the very first page
    #: access after (re-)mapping".
    soft_fault_ns: float = 350.0

    #: Writing one 8 B value in place.
    value_write_ns: float = 2.0

    #: Scanning one 64-bit word of a bitvector.
    bitvector_word_scan_ns: float = 0.35

    #: Parsing one line of /proc/PID/maps (string split + hex decode).
    maps_line_parse_ns: float = 1100.0

    #: Opening and reading the /proc/PID/maps virtual file.
    maps_file_open_ns: float = 4000.0

    #: One insert/lookup in the user-space bimap built from the maps file.
    bimap_op_ns: float = 120.0

    #: Inspecting one update record during view alignment (hash-group
    #: access plus the old/new range checks of Section 2.4).
    update_check_ns: float = 40.0

    #: One push/pop on the concurrent mapping-request queue.
    queue_op_ns: float = 60.0

    #: Reading one page back from the simulated far tier (CXL-class /
    #: NVMe-backed cold memory — roughly an order of magnitude above a
    #: random DRAM page touch).
    cold_read_ns: float = 950.0

    #: Spilling one page to the far tier (write path of the same device;
    #: writes are slower than reads on flash-class media).
    cold_write_ns: float = 1400.0

    #: Promoting one page from the cold tier into the hot tier on top of
    #: the cold read itself (install + placement bookkeeping).
    promote_ns: float = 600.0

    #: Appending one framed record to the write-ahead log (CRC + frame
    #: assembly + buffered append into the OS page cache).
    wal_append_ns: float = 900.0

    #: One fsync() of the active WAL segment (flash-class device flush;
    #: this is the dominant term of ``fsync=always`` ingest).
    fsync_ns: float = 120_000.0

    #: Bandwidth penalty factors for the in-page value stream, by page
    #: access kind.  Scanning virtually *contiguous* memory streams at
    #: peak bandwidth; jumping between scattered 4 KiB pages restarts
    #: the hardware prefetcher at every page and costs extra TLB work,
    #: so explicit per-page indexes stream measurably slower — the
    #: effect behind "virtual partial views clearly win" in Figure 3.
    seq_read_factor: float = 1.0
    prefetched_read_factor: float = 1.3
    random_read_factor: float = 1.8
    strided_read_factor: float = 1.8

    def read_factor(self, kind: str) -> float:
        """Value-stream bandwidth factor for a page access kind."""
        if kind not in _PAGE_ACCESS:
            raise ValueError(f"unknown page access kind: {kind!r}")
        return getattr(self, f"{kind}_read_factor")

    def page_scan_ns(self, values_per_page: int, kind: str = "seq") -> float:
        """Cost of scanning one resident page with the given access kind."""
        return (
            getattr(self, _PAGE_ACCESS[kind])
            + self.page_header_read_ns
            + values_per_page * self.seq_value_read_ns * self.read_factor(kind)
        )


#: Lane used by code running on the simulated query-processing thread.
MAIN_LANE = "main"

#: Lane used by the simulated background mapping thread (Section 2.3).
MAPPER_LANE = "mapper"


class CostLedger:
    """Accumulates charged time per lane plus operation counters.

    A lane holds whole picoseconds (a Python ``int``), so it is the same
    sum whatever order its charges arrive in; the readers divide by
    :data:`PS_PER_NS` and speak nanoseconds.  Thread-safe: the real
    :class:`~repro.core.creation.BackgroundMapper` charges the mapper
    lane from an actual Python thread.
    """

    def __init__(self) -> None:
        self._lanes: dict[str, int] = defaultdict(int)
        # Not a Counter: Counter's Python-level __delitem__ routes every
        # store through a slot wrapper, ~2x the cost of a dict store.
        self._counters: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()

    def charge(self, ns: float, lane: str = MAIN_LANE) -> None:
        """Add ``ns`` simulated nanoseconds to ``lane``, rounded once to
        whole picoseconds: the entry for measured or jittered time."""
        if ns < 0:
            raise ValueError(f"cannot charge negative time: {ns}")
        self.book(to_ps(ns), lane, ())

    def count(self, name: str, n: int = 1) -> None:
        """Increment the operation counter ``name`` by ``n``."""
        with self._lock:
            self._counters[name] += n

    def book(self, ps: int, lane: str, counts: Iterable[tuple[str, int]]) -> None:
        """Add ``ps`` picoseconds to ``lane`` and a :meth:`count` per
        ``(name, n)`` pair, under a single lock acquisition."""
        if ps < 0:
            raise ValueError(f"cannot charge negative time: {ps} ps")
        with self._lock:
            self._lanes[lane] += ps
            counters = self._counters
            for name, n in counts:
                counters[name] += n

    def book_append(self, ps: int, lane: str, nbytes: int) -> None:
        """One log append: ``ps`` on ``lane``, ``wal_appends`` + 1 and
        ``wal_bytes`` + ``nbytes``, as one locked update (:meth:`book`
        without its iterable, for the per-row journal)."""
        if ps < 0:
            raise ValueError(f"cannot charge negative time: {ps} ps")
        lock = self._lock
        lock.acquire()  # cheaper than ``with`` on this per-row path
        try:
            self._lanes[lane] += ps
            counters = self._counters
            counters["wal_appends"] += 1
            counters["wal_bytes"] += nbytes
        finally:
            lock.release()

    def lane_ns(self, lane: str = MAIN_LANE) -> float:
        """Total nanoseconds charged to ``lane`` so far."""
        with self._lock:
            return self._lanes.get(lane, 0) / PS_PER_NS

    def counter(self, name: str) -> int:
        """Current value of the operation counter ``name``."""
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self) -> dict[str, int]:
        """Snapshot of all operation counters."""
        with self._lock:
            return dict(self._counters)

    def lanes(self) -> dict[str, float]:
        """Snapshot of all lane accumulators, in nanoseconds."""
        with self._lock:
            return {lane: ps / PS_PER_NS for lane, ps in self._lanes.items()}

    def snapshot(self) -> tuple[dict[str, float], dict[str, int]]:
        """Atomic combined snapshot of lanes (ns) and counters."""
        lanes, counters = self.snapshot_ps()
        return {lane: ps / PS_PER_NS for lane, ps in lanes.items()}, counters

    def snapshot_ps(self) -> tuple[dict[str, int], dict[str, int]]:
        """Atomic combined snapshot of lanes (picoseconds) and counters.

        Timing regions and trace spans (:mod:`repro.obs.span`) diff two
        of these snapshots; taking both dicts under one lock keeps the
        pair consistent even while the background mapper is charging,
        and diffing whole picoseconds keeps the deltas exact.
        """
        with self._lock:
            return dict(self._lanes), dict(self._counters)


class Region:
    """Timing region opened by :meth:`CostModel.region`.

    A context manager: it snapshots the ledger on entry and again on
    exit, and :attr:`lane_deltas`, :attr:`counter_deltas`,
    :meth:`lane_ns` and :meth:`elapsed_ns` are read off the two
    snapshots when asked, so a region nobody reads in full diffs
    nothing.  Inside the block it reads as empty.
    """

    def __init__(self, ledger: CostLedger) -> None:
        self._ledger = ledger
        self._start: tuple[dict[str, int], dict[str, int]] = ({}, {})
        self._end: tuple[dict[str, int], dict[str, int]] | None = None

    def __enter__(self) -> "Region":
        self._start = self._ledger.snapshot_ps()
        return self

    def __exit__(self, *exc_info: object) -> None:
        # One atomic snapshot, taken as the one at entry was: the lane
        # and counter deltas then agree even while another thread
        # charges.
        self._end = self._ledger.snapshot_ps()

    @property
    def lane_deltas(self) -> dict[str, float]:
        """Charged nanoseconds per lane, for every lane either snapshot
        holds."""
        if self._end is None:
            return {}
        start, end = self._start[0], self._end[0]
        return {
            lane: (end.get(lane, 0) - start.get(lane, 0)) / PS_PER_NS
            for lane in set(end) | set(start)
        }

    @property
    def counter_deltas(self) -> dict[str, int]:
        """Operation counts per counter, for every counter either
        snapshot holds."""
        if self._end is None:
            return {}
        start, end = self._start[1], self._end[1]
        return {
            name: end.get(name, 0) - start.get(name, 0)
            for name in set(end) | set(start)
        }

    def elapsed_ns(self, overlap: bool = True) -> float:
        """Simulated elapsed time of the region.

        With ``overlap=True`` (default) lanes run concurrently and the
        elapsed time is the maximum lane delta — the accounting used for
        the background-mapping optimization.  With ``overlap=False`` the
        lanes are serialized (sum of deltas).
        """
        deltas = self.lane_deltas
        if not deltas:
            return 0.0
        if overlap:
            return max(deltas.values())
        return sum(deltas.values())

    def lane_ns(self, lane: str = MAIN_LANE) -> float:
        """Charged time of a single lane within the region."""
        if self._end is None:
            return 0.0
        return (self._end[0].get(lane, 0) - self._start[0].get(lane, 0)) / PS_PER_NS


def _of_kind(table: dict[str, int], kind: str) -> int:
    """``table``'s entry for a page access kind."""
    try:
        return table[kind]
    except KeyError:
        raise ValueError(f"unknown page access kind: {kind!r}") from None


class CostModel:
    """Charging interface handed to every substrate component.

    Combines the machine constants (:class:`CostParameters`) with a
    :class:`CostLedger` and offers one helper per operation kind so call
    sites stay readable (``cost.mmap_call(pages=8)`` instead of raw
    arithmetic).  The constants are turned into whole picoseconds once,
    here — a sub-picosecond profile is rounded at this point only — and
    every helper books ``n`` times such an integer.
    """

    def __init__(self, params: CostParameters | None = None) -> None:
        self.params = params = params or CostParameters()
        self.ledger = CostLedger()
        #: Every ``*_ns`` constant in picoseconds, keyed without "_ns".
        self._ps = {
            name[:-3]: to_ps(ns) for name, ns in vars(params).items() if name.endswith("_ns")
        }
        #: Per page access kind: touching one page, streaming one value.
        self._page_ps = {
            kind: self._ps[name[:-3]] for kind, name in _PAGE_ACCESS.items()
        }
        self._value_ps = {
            kind: to_ps(params.seq_value_read_ns * params.read_factor(kind))
            for kind in _PAGE_ACCESS
        }

    # -- timing regions -------------------------------------------------

    def region(self) -> Region:
        """A timing region covering the body of a ``with`` block."""
        return Region(self.ledger)

    # -- scan costs ------------------------------------------------------

    def sequential_values(self, n: int, lane: str = MAIN_LANE) -> None:
        """Charge reading ``n`` values as part of a sequential scan."""
        self.ledger.book(n * self._ps["seq_value_read"], lane, (("values_scanned", n),))

    def stream_values(self, n: int, kind: str = "seq", lane: str = MAIN_LANE) -> None:
        """Charge reading ``n`` values with the access kind's bandwidth."""
        self.ledger.book(n * _of_kind(self._value_ps, kind), lane, (("values_scanned", n),))

    def page_header(self, n: int = 1, lane: str = MAIN_LANE) -> None:
        """Charge reading ``n`` resident page headers."""
        self.ledger.book(n * self._ps["page_header_read"], lane, (("page_headers_read", n),))

    def page_access(
        self, kind: str = "seq", n: int = 1, lane: str = MAIN_LANE
    ) -> None:
        """Charge touching ``n`` pages.

        ``kind`` is one of ``"seq"`` (sequential stream), ``"prefetched"``
        (software prefetch), ``"random"`` (unpredictable jump) or
        ``"strided"`` (regular 4 KiB stride, zone-map header walk).
        """
        self.ledger.book(n * _of_kind(self._page_ps, kind), lane, (("pages_accessed", n),))

    def full_page_scan(
        self,
        values_per_page: int,
        n: int = 1,
        kind: str = "seq",
        lane: str = MAIN_LANE,
        values: int | None = None,
    ) -> None:
        """Charge scanning ``n`` pages (access + header + values) as one
        booking.  ``values`` is the total streamed when a page is
        partial; by default every page streams ``values_per_page``."""
        if values is None:
            values = n * values_per_page
        self.ledger.book(
            n * (_of_kind(self._page_ps, kind) + self._ps["page_header_read"])
            + values * self._value_ps[kind],
            lane,
            (
                ("pages_accessed", n),
                ("page_headers_read", n),
                ("values_scanned", values),
                ("pages_scanned", n),
            ),
        )

    def bitvector_scan(self, bits: int, lane: str = MAIN_LANE) -> None:
        """Charge scanning a bitvector of ``bits`` bits word-wise."""
        words = (bits + 63) // 64
        counts = (("bitvector_words_scanned", words),)
        self.ledger.book(words * self._ps["bitvector_word_scan"], lane, counts)

    # -- mapping costs ---------------------------------------------------

    def mmap_call(
        self, pages: int, lane: str = MAIN_LANE, calls: int = 1, populate: bool = False
    ) -> None:
        """Charge ``calls`` mmap() syscalls mapping ``pages`` pages in all;
        with ``populate``, also the pages' eager soft faults, in the same
        booking."""
        ps = self._ps
        total = calls * ps["mmap_syscall"] + pages * ps["mmap_per_page"]
        if not populate:
            counts = (("mmap_calls", calls), ("pages_mapped", pages))
            self.ledger.book(total, lane, counts)
            return
        counts = (("mmap_calls", calls), ("pages_mapped", pages), ("soft_faults", pages))
        self.ledger.book(total + pages * ps["soft_fault"], lane, counts)

    def anon_mmap(self, lane: str = MAIN_LANE, calls: int = 1) -> None:
        """Charge ``calls`` anonymous mmap() calls: the syscalls only, no
        page-table work until first touch."""
        self.ledger.book(calls * self._ps["mmap_syscall"], lane, (("mmap_calls", calls),))

    def munmap_call(self, pages: int, lane: str = MAIN_LANE) -> None:
        """Charge one munmap() syscall unmapping ``pages`` pages."""
        ps, counts = self._ps, (("munmap_calls", 1), ("pages_unmapped", pages))
        self.ledger.book(ps["munmap_syscall"] + pages * ps["mmap_per_page"], lane, counts)

    def soft_fault(self, n: int = 1, lane: str = MAIN_LANE) -> None:
        """Charge ``n`` first-touch soft page faults."""
        self.ledger.book(n * self._ps["soft_fault"], lane, (("soft_faults", n),))

    def backoff_wait(self, ns: float, lane: str = MAIN_LANE) -> None:
        """Charge one retry backoff sleep of ``ns`` simulated nanoseconds.

        The resilience layer's retries wait in *simulated* time so a
        faulted-and-retried run stays replayable: the backoff shows up
        on the ledger like any other charged operation instead of
        perturbing wall-clock behaviour.  The wait is jittered, so it
        goes in through :meth:`CostLedger.charge`, rounded to ps there.
        """
        self.ledger.charge(ns, lane)
        self.ledger.count("backoff_waits")

    # -- update / maintenance costs ---------------------------------------

    def value_write(self, n: int = 1, lane: str = MAIN_LANE) -> None:
        """Charge writing ``n`` values in place."""
        self.ledger.book(n * self._ps["value_write"], lane, (("values_written", n),))

    def maps_parse(self, lines: int, lane: str = MAIN_LANE) -> None:
        """Charge opening /proc/PID/maps and parsing ``lines`` lines."""
        ps, counts = self._ps, (("maps_lines_parsed", lines),)
        self.ledger.book(ps["maps_file_open"] + lines * ps["maps_line_parse"], lane, counts)

    def bimap_op(self, n: int = 1, lane: str = MAIN_LANE) -> None:
        """Charge ``n`` bimap inserts/lookups."""
        self.ledger.book(n * self._ps["bimap_op"], lane, (("bimap_ops", n),))

    def update_check(self, n: int = 1, lane: str = MAIN_LANE) -> None:
        """Charge inspecting ``n`` update records during view alignment."""
        self.ledger.book(n * self._ps["update_check"], lane, (("updates_checked", n),))

    def queue_op(self, n: int = 1, lane: str = MAIN_LANE) -> None:
        """Charge ``n`` concurrent-queue operations."""
        self.ledger.book(n * self._ps["queue_op"], lane, (("queue_ops", n),))

    # -- tiering costs -----------------------------------------------------

    def cold_read(self, n: int = 1, lane: str = MAIN_LANE) -> None:
        """Charge reading ``n`` pages from the simulated far tier."""
        self.ledger.book(n * self._ps["cold_read"], lane, (("cold_page_reads", n),))

    def cold_write(self, n: int = 1, lane: str = MAIN_LANE) -> None:
        """Charge spilling ``n`` pages to the simulated far tier."""
        self.ledger.book(n * self._ps["cold_write"], lane, (("cold_page_writes", n),))

    def promote(self, n: int = 1, lane: str = MAIN_LANE) -> None:
        """Charge promoting ``n`` pages from the cold to the hot tier."""
        self.ledger.book(n * self._ps["promote"], lane, (("tier_promotions", n),))

    # -- durability costs --------------------------------------------------

    def wal_append(self, nbytes: int, lane: str = MAIN_LANE) -> None:
        """Charge appending one ``nbytes``-byte framed record to the WAL."""
        self.ledger.book_append(self._ps["wal_append"], lane, nbytes)

    def fsync(self, lane: str = MAIN_LANE) -> None:
        """Charge one fsync() of the active WAL segment."""
        self.ledger.book(self._ps["fsync"], lane, (("fsyncs", 1),))
