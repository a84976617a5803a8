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

The ledger supports multiple *lanes* so that the background-mapping
optimization (Section 2.3, optimization 2) can account mapping work on a
separate simulated thread; a :class:`Region` reports both per-lane deltas
and the overlapped elapsed time (the maximum over lanes).
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator


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
        factors = {
            "seq": self.seq_read_factor,
            "prefetched": self.prefetched_read_factor,
            "random": self.random_read_factor,
            "strided": self.strided_read_factor,
        }
        if kind not in factors:
            raise ValueError(f"unknown page access kind: {kind!r}")
        return factors[kind]

    def page_scan_ns(self, values_per_page: int, kind: str = "seq") -> float:
        """Cost of scanning one resident page with the given access kind."""
        per_page_access = {
            "seq": self.seq_page_access_ns,
            "prefetched": self.prefetched_page_access_ns,
            "random": self.random_page_access_ns,
            "strided": self.strided_header_access_ns,
        }[kind]
        return (
            per_page_access
            + self.page_header_read_ns
            + values_per_page * self.seq_value_read_ns * self.read_factor(kind)
        )


#: Lane used by code running on the simulated query-processing thread.
MAIN_LANE = "main"

#: Lane used by the simulated background mapping thread (Section 2.3).
MAPPER_LANE = "mapper"


class CostLedger:
    """Accumulates charged nanoseconds per lane plus operation counters.

    Thread-safe: the real :class:`~repro.core.creation.BackgroundMapper`
    charges the mapper lane from an actual Python thread.
    """

    def __init__(self) -> None:
        self._lanes: dict[str, float] = defaultdict(float)
        self._counters: Counter[str] = Counter()
        self._lock = threading.Lock()

    def charge(self, ns: float, lane: str = MAIN_LANE) -> None:
        """Add ``ns`` simulated nanoseconds to ``lane``."""
        if ns < 0:
            raise ValueError(f"cannot charge negative time: {ns}")
        with self._lock:
            self._lanes[lane] += ns

    def count(self, name: str, n: int = 1) -> None:
        """Increment the operation counter ``name`` by ``n``."""
        with self._lock:
            self._counters[name] += n

    def book(
        self, ns: float, lane: str, counts: Iterable[tuple[str, int]]
    ) -> None:
        """One :meth:`charge` and a :meth:`count` per ``(name, n)`` pair,
        under a single lock acquisition (for per-row callers)."""
        if ns < 0:
            raise ValueError(f"cannot charge negative time: {ns}")
        with self._lock:
            self._lanes[lane] += ns
            counters = self._counters
            for name, n in counts:
                counters[name] += n

    def lane_ns(self, lane: str = MAIN_LANE) -> float:
        """Total nanoseconds charged to ``lane`` so far."""
        with self._lock:
            return self._lanes.get(lane, 0.0)

    def counter(self, name: str) -> int:
        """Current value of the operation counter ``name``."""
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self) -> dict[str, int]:
        """Snapshot of all operation counters."""
        with self._lock:
            return dict(self._counters)

    def lanes(self) -> dict[str, float]:
        """Snapshot of all lane accumulators."""
        with self._lock:
            return dict(self._lanes)

    def snapshot(self) -> tuple[dict[str, float], dict[str, int]]:
        """Atomic combined snapshot of lanes and counters.

        Timing regions and trace spans (:mod:`repro.obs.span`) diff two
        of these snapshots; taking both dicts under one lock keeps the
        pair consistent even while the background mapper is charging.
        """
        with self._lock:
            return dict(self._lanes), dict(self._counters)


@dataclass
class Region:
    """Timing region opened by :meth:`CostModel.region`.

    Captures lane snapshots at entry; after the ``with`` block exits,
    :attr:`lane_deltas` holds per-lane charged time and
    :meth:`elapsed_ns` reports the overlapped elapsed time.
    """

    _start: dict[str, float]
    _counters_start: dict[str, int]
    lane_deltas: dict[str, float] = field(default_factory=dict)
    counter_deltas: dict[str, int] = field(default_factory=dict)

    def close(self, ledger: CostLedger) -> None:
        """Finalize the region against the ledger's current state."""
        end = ledger.lanes()
        lanes = set(end) | set(self._start)
        self.lane_deltas = {
            lane: end.get(lane, 0.0) - self._start.get(lane, 0.0)
            for lane in lanes
        }
        counters_end = ledger.counters()
        names = set(counters_end) | set(self._counters_start)
        self.counter_deltas = {
            name: counters_end.get(name, 0) - self._counters_start.get(name, 0)
            for name in names
        }

    def elapsed_ns(self, overlap: bool = True) -> float:
        """Simulated elapsed time of the region.

        With ``overlap=True`` (default) lanes run concurrently and the
        elapsed time is the maximum lane delta — the accounting used for
        the background-mapping optimization.  With ``overlap=False`` the
        lanes are serialized (sum of deltas).
        """
        if not self.lane_deltas:
            return 0.0
        if overlap:
            return max(self.lane_deltas.values())
        return sum(self.lane_deltas.values())

    def lane_ns(self, lane: str = MAIN_LANE) -> float:
        """Charged time of a single lane within the region."""
        return self.lane_deltas.get(lane, 0.0)


class CostModel:
    """Charging interface handed to every substrate component.

    Combines the machine constants (:class:`CostParameters`) with a
    :class:`CostLedger` and offers one helper per operation kind so call
    sites stay readable (``cost.mmap_call(pages=8)`` instead of raw
    arithmetic).
    """

    def __init__(self, params: CostParameters | None = None) -> None:
        self.params = params or CostParameters()
        self.ledger = CostLedger()

    # -- timing regions -------------------------------------------------

    @contextmanager
    def region(self) -> Iterator[Region]:
        """Open a timing region covering the ``with`` body."""
        lanes, counters = self.ledger.snapshot()
        reg = Region(_start=lanes, _counters_start=counters)
        try:
            yield reg
        finally:
            reg.close(self.ledger)

    # -- scan costs ------------------------------------------------------

    def sequential_values(self, n: int, lane: str = MAIN_LANE) -> None:
        """Charge reading ``n`` values as part of a sequential scan."""
        self.ledger.charge(n * self.params.seq_value_read_ns, lane)
        self.ledger.count("values_scanned", n)

    def stream_values(self, n: int, kind: str = "seq", lane: str = MAIN_LANE) -> None:
        """Charge reading ``n`` values with the access kind's bandwidth."""
        self.ledger.charge(
            n * self.params.seq_value_read_ns * self.params.read_factor(kind), lane
        )
        self.ledger.count("values_scanned", n)

    def page_header(self, n: int = 1, lane: str = MAIN_LANE) -> None:
        """Charge reading ``n`` resident page headers."""
        self.ledger.charge(n * self.params.page_header_read_ns, lane)
        self.ledger.count("page_headers_read", n)

    def page_access(
        self, kind: str = "seq", n: int = 1, lane: str = MAIN_LANE
    ) -> None:
        """Charge touching ``n`` pages.

        ``kind`` is one of ``"seq"`` (sequential stream), ``"prefetched"``
        (software prefetch), ``"random"`` (unpredictable jump) or
        ``"strided"`` (regular 4 KiB stride, zone-map header walk).
        """
        per_page = {
            "seq": self.params.seq_page_access_ns,
            "prefetched": self.params.prefetched_page_access_ns,
            "random": self.params.random_page_access_ns,
            "strided": self.params.strided_header_access_ns,
        }
        if kind not in per_page:
            raise ValueError(f"unknown page access kind: {kind!r}")
        self.ledger.charge(n * per_page[kind], lane)
        self.ledger.count("pages_accessed", n)

    def full_page_scan(
        self, values_per_page: int, n: int = 1, kind: str = "seq", lane: str = MAIN_LANE
    ) -> None:
        """Charge scanning ``n`` full pages (access + header + values)."""
        self.page_access(kind, n, lane)
        self.page_header(n, lane)
        self.stream_values(n * values_per_page, kind, lane)
        self.ledger.count("pages_scanned", n)

    def bitvector_scan(self, bits: int, lane: str = MAIN_LANE) -> None:
        """Charge scanning a bitvector of ``bits`` bits word-wise."""
        words = (bits + 63) // 64
        self.ledger.charge(words * self.params.bitvector_word_scan_ns, lane)
        self.ledger.count("bitvector_words_scanned", words)

    # -- mapping costs ---------------------------------------------------

    def mmap_call(self, pages: int, lane: str = MAIN_LANE, calls: int = 1) -> None:
        """Charge ``calls`` mmap() syscalls mapping ``pages`` pages in all."""
        self.ledger.charge(
            calls * self.params.mmap_syscall_ns
            + pages * self.params.mmap_per_page_ns,
            lane,
        )
        self.ledger.count("mmap_calls", calls)
        self.ledger.count("pages_mapped", pages)

    def munmap_call(self, pages: int, lane: str = MAIN_LANE) -> None:
        """Charge one munmap() syscall unmapping ``pages`` pages."""
        self.ledger.charge(
            self.params.munmap_syscall_ns + pages * self.params.mmap_per_page_ns, lane
        )
        self.ledger.count("munmap_calls")
        self.ledger.count("pages_unmapped", pages)

    def soft_fault(self, n: int = 1, lane: str = MAIN_LANE) -> None:
        """Charge ``n`` first-touch soft page faults."""
        self.ledger.charge(n * self.params.soft_fault_ns, lane)
        self.ledger.count("soft_faults", n)

    def backoff_wait(self, ns: float, lane: str = MAIN_LANE) -> None:
        """Charge one retry backoff sleep of ``ns`` simulated nanoseconds.

        The resilience layer's retries wait in *simulated* time so a
        faulted-and-retried run stays replayable: the backoff shows up
        on the ledger like any other charged operation instead of
        perturbing wall-clock behaviour.
        """
        self.ledger.charge(ns, lane)
        self.ledger.count("backoff_waits")

    # -- update / maintenance costs ---------------------------------------

    def value_write(self, n: int = 1, lane: str = MAIN_LANE) -> None:
        """Charge writing ``n`` values in place."""
        self.ledger.charge(n * self.params.value_write_ns, lane)
        self.ledger.count("values_written", n)

    def maps_parse(self, lines: int, lane: str = MAIN_LANE) -> None:
        """Charge opening /proc/PID/maps and parsing ``lines`` lines."""
        self.ledger.charge(
            self.params.maps_file_open_ns + lines * self.params.maps_line_parse_ns,
            lane,
        )
        self.ledger.count("maps_lines_parsed", lines)

    def bimap_op(self, n: int = 1, lane: str = MAIN_LANE) -> None:
        """Charge ``n`` bimap inserts/lookups."""
        self.ledger.charge(n * self.params.bimap_op_ns, lane)
        self.ledger.count("bimap_ops", n)

    def update_check(self, n: int = 1, lane: str = MAIN_LANE) -> None:
        """Charge inspecting ``n`` update records during view alignment."""
        self.ledger.charge(n * self.params.update_check_ns, lane)
        self.ledger.count("updates_checked", n)

    def queue_op(self, n: int = 1, lane: str = MAIN_LANE) -> None:
        """Charge ``n`` concurrent-queue operations."""
        self.ledger.charge(n * self.params.queue_op_ns, lane)
        self.ledger.count("queue_ops", n)

    # -- tiering costs -----------------------------------------------------

    def cold_read(self, n: int = 1, lane: str = MAIN_LANE) -> None:
        """Charge reading ``n`` pages from the simulated far tier."""
        self.ledger.charge(n * self.params.cold_read_ns, lane)
        self.ledger.count("cold_page_reads", n)

    def cold_write(self, n: int = 1, lane: str = MAIN_LANE) -> None:
        """Charge spilling ``n`` pages to the simulated far tier."""
        self.ledger.charge(n * self.params.cold_write_ns, lane)
        self.ledger.count("cold_page_writes", n)

    def promote(self, n: int = 1, lane: str = MAIN_LANE) -> None:
        """Charge promoting ``n`` pages from the cold to the hot tier."""
        self.ledger.charge(n * self.params.promote_ns, lane)
        self.ledger.count("tier_promotions", n)

    # -- durability costs --------------------------------------------------

    def wal_append(self, nbytes: int, lane: str = MAIN_LANE) -> None:
        """Charge appending one ``nbytes``-byte framed record to the WAL."""
        self.ledger.book(
            self.params.wal_append_ns,
            lane,
            (("wal_appends", 1), ("wal_bytes", nbytes)),
        )

    def fsync(self, lane: str = MAIN_LANE) -> None:
        """Charge one fsync() of the active WAL segment."""
        self.ledger.charge(self.params.fsync_ns, lane)
        self.ledger.count("fsyncs")
