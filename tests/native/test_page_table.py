"""The native substrate's page table agrees with the kernel, step by step.

Both backends keep one page table, ``Substrate.address_space``: every
``reserve``, ``map_file``, plan and ``release_region`` updates it, and
``maps_line_count`` and ``read_mapped`` read it instead of parsing
``/proc/self/maps``.  A seeded stream of those operations runs on a
:class:`FaultySubstrate` over a :class:`NativeSubstrate` — reservations,
whole-file mappings, file and anonymous plans, a plan faulted at run
``k``, releases and a store resize — and after every step the kernel's
own maps file is checked against the book:

* per file, the kernel's lines inside the substrate's areas are at most
  the book's, and on these streams as many;
* every page the book maps translates as the kernel says: the same file
  page, or an anonymous ``PROT_NONE`` page where the book holds a
  reservation slot; and the maps snapshot holds exactly the book's
  file pages.

Two pins go with it: a query stream under a maps-line budget reads the
maps file zero times, and a flush reads it once.  And the auditor holds
the kernel to the book (a flush is charged for the book's lines): a
kernel line split in two inside an area is a finding.

``REPRO_SEED`` re-seeds the streams, ``REPRO_FUZZ_SCHEDULES`` (default
200) sets how many run (one per 20 schedules); a failing stream names
its seed.
"""

from __future__ import annotations

import bisect
import gc
import os

import numpy as np
import pytest

from repro.core.facade import AdaptiveDatabase
from repro.faults import FaultSchedule, FaultySubstrate
from repro.faults.errors import SubstrateFault
from repro.native import is_supported
from repro.resilience import ResilienceConfig
from repro.seeds import derive_seed
from repro.vm.constants import PAGE_SIZE, VALUES_PER_PAGE

from ..vm.snapshot_oracle import parse_maps

pytestmark = pytest.mark.skipif(
    not is_supported(), reason="native rewiring unsupported on this platform"
)

FUZZ_SCHEDULES = int(os.environ.get("REPRO_FUZZ_SCHEDULES", "200"))
STREAMS = max(1, FUZZ_SCHEDULES // 20)
STEPS = 30
FILES = {"a": 32, "b": 16}


def _store_area(store) -> tuple[int, int]:
    """The store's own whole-file mapping, which no area of the book holds."""
    assert len(store._mmaps) == 1
    return store.headers.__array_interface__["data"][0] // PAGE_SIZE, store.num_pages


def check_book_against_kernel(sub, stores) -> None:
    book = sub.address_space
    entries = sorted(parse_maps(sub.maps_text()), key=lambda e: e.start_vpn)
    starts = [e.start_vpn for e in entries]

    def kernel_entry(vpn: int):
        i = bisect.bisect_right(starts, vpn) - 1
        assert i >= 0 and vpn < entries[i].end_vpn, f"vpn {vpn:#x} not mapped"
        return entries[i]

    for store in stores:
        start, npages = _store_area(store)
        kernel = sum(
            1
            for e in entries
            if (e.pathname, e.inode) == (store.map_path, store.inode)
            and not (start < e.end_vpn and e.start_vpn < start + npages)
        )
        lines = sub.maps_line_count(store.map_path)
        assert kernel <= lines, (store.name, kernel, lines)
        assert kernel == lines, (store.name, kernel, lines)

    mapped = {store.map_path: {} for store in stores}
    for vma in book.vmas():
        for vpn in range(vma.start, vma.end):
            entry = kernel_entry(vpn)
            if vma.file is None:
                assert entry.anonymous and entry.perms == "---p", (vpn, entry)
                continue
            fpage = vma.file_page + vpn - vma.start
            assert (entry.pathname, entry.inode) == (vma.file.map_path, vma.file.inode)
            assert entry.file_page + vpn - entry.start_vpn == fpage, (vpn, entry)
            mapped[vma.file.map_path][vpn] = fpage
    for path, pages in mapped.items():
        snapshot = sub.maps_snapshot(file_filter=path)
        assert len(snapshot) == len(pages)
        for vpn, fpage in pages.items():
            assert snapshot.physical_of(vpn) == (path, fpage)


def _runs_in(rng, base: int, capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """Runs in address order inside ``[base, base + capacity)``, apart
    or touching."""
    cuts = rng.choice(capacity + 1, size=int(rng.integers(2, 6)), replace=False)
    cuts.sort()
    runs = [(lo, hi - lo) for lo, hi in zip(cuts[:-1], cuts[1:]) if rng.random() < 0.7]
    runs = runs or [(cuts[0], cuts[1] - cuts[0])]
    return (
        np.array([base + lo for lo, _ in runs], dtype=np.int64),
        np.array([n for _, n in runs], dtype=np.int64),
    )


def run_stream(seed: int) -> None:
    from repro.substrate.native import NativeSubstrate

    rng = np.random.default_rng(seed)
    sub = FaultySubstrate(NativeSubstrate())
    try:
        stores = [sub.inner.create_file(name, pages) for name, pages in FILES.items()]
        areas = []  # (base, npages) of reservations
        maps = []  # (base, npages) of whole-file mappings
        for _ in range(STEPS):
            op = rng.choice(
                ["reserve", "map_file", "plan", "fault", "release", "resize"],
                p=[0.2, 0.1, 0.35, 0.15, 0.12, 0.08],
            )
            if op == "reserve" or (op in ("plan", "fault") and not areas):
                npages = int(rng.integers(4, 25))
                areas.append((sub.reserve(npages), npages))
            elif op == "map_file":
                store = stores[int(rng.integers(len(stores)))]
                npages = int(rng.integers(1, store.num_pages + 1))
                file_page = int(rng.integers(0, store.num_pages - npages + 1))
                maps.append((sub.map_file(npages, store, file_page), npages))
            elif op in ("plan", "fault"):
                base, capacity = areas[int(rng.integers(len(areas)))]
                vpns, npages = _runs_in(rng, base, capacity)
                if rng.random() < 0.3:
                    store, file_pages = None, vpns
                else:
                    store = stores[int(rng.integers(len(stores)))]
                    n = np.minimum(npages, store.num_pages)
                    npages = n
                    file_pages = rng.integers(0, store.num_pages - n + 1)
                kind = "unmap_slot" if store is None else "map_fixed"
                if op == "fault":
                    k = int(rng.integers(vpns.size))
                    sub.schedule = FaultSchedule.nth_call(kind, k + 1)
                    with pytest.raises(SubstrateFault) as fault:
                        sub.map_runs(vpns, npages, store, file_pages)
                    assert fault.value.run_index == k
                    sub.schedule = None
                else:
                    sub.map_runs(vpns, npages, store, file_pages, populate=bool(rng.random() < 0.5))
            elif op == "release":
                held = areas + maps
                if held:
                    base, npages = held[int(rng.integers(len(held)))]
                    sub.release_region(base, npages, 0)
                    (areas if (base, npages) in areas else maps).remove((base, npages))
            else:
                store = stores[int(rng.integers(len(stores)))]
                store.resize(store.num_pages + int(rng.integers(1, 9)))
            check_book_against_kernel(sub.inner, stores)
    finally:
        sub.close()


@pytest.mark.parametrize("stream", range(STREAMS))
def test_the_book_agrees_with_the_kernel_after_every_step(stream):
    seed = derive_seed(stream)
    try:
        run_stream(seed)
    except AssertionError as exc:
        raise AssertionError(f"stream seed {seed}: {exc}") from exc


#: A clustered column: a short range's candidate is a view of a few
#: pages, so a budget of 4 lines admits, evicts and admits again.
VALUES = np.arange(64 * VALUES_PER_PAGE, dtype=np.int64)


def _budgeted_db() -> AdaptiveDatabase:
    db = AdaptiveDatabase(
        backend="native", resilience=ResilienceConfig(mapping_budget=4)
    )
    db.create_table("t", {"v": VALUES})
    return db


def test_a_budgeted_query_stream_reads_no_maps_file():
    db = _budgeted_db()
    try:
        wall = db.substrate.wall
        before = wall.count("maps_read")
        rng = np.random.default_rng(derive_seed(0))
        for _ in range(40):
            lo = int(rng.integers(0, VALUES.size))
            hi = lo + int(rng.integers(10, 3000))
            result = db.query("t", "v", lo, hi)
            expected = np.flatnonzero((VALUES >= lo) & (VALUES <= hi))
            assert np.array_equal(np.sort(result.rowids), expected)
        status = db.resilience_status()["layers"]["t.v"]
        assert status["governor_evictions"] > 0  # the budget was at work
        assert wall.count("maps_read") == before
    finally:
        db.close()


def test_a_flush_reads_the_maps_file_once():
    db = _budgeted_db()
    try:
        db.query("t", "v", 100, 900)
        db.query("t", "v", 2000, 2600)
        wall = db.substrate.wall
        before = wall.count("maps_read")
        for row in range(0, 40, 4):
            db.update("t", "v", row, 2100 + row)
        assert wall.count("maps_read") == before
        db.flush_updates("t", "v")
        assert wall.count("maps_read") == before + 1
        assert db.audit().ok
    finally:
        db.close()


def _split_one_line(text: str, path: str, book) -> str:
    """``text`` with one line of ``path`` inside ``book``'s areas split in
    two at its second page: the same pages, one line more."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        fields = line.split(None, 5)
        if fields[5:] != [path]:
            continue
        start, end = (int(x, 16) for x in fields[0].split("-"))
        if end - start < 2 * PAGE_SIZE or book.find_vma(start // PAGE_SIZE) is None:
            continue
        middle, offset = start + PAGE_SIZE, int(fields[2], 16) + PAGE_SIZE
        rest = " ".join([fields[1], "%08x" % offset, *fields[3:]])
        lines[i : i + 1] = [
            " ".join([f"{start:x}-{middle:x}", *fields[1:]]),
            f"{middle:x}-{end:x} {rest}",
        ]
        return "\n".join(lines) + "\n"
    raise AssertionError(f"no line of {path!r} to split")


def test_the_auditor_bounds_the_kernel_lines_by_the_book(monkeypatch):
    """A flush is charged for the book's lines, so the auditor holds the
    kernel to them: a kernel line the book does not hold is a finding,
    although the snapshot maps the same pages."""
    with AdaptiveDatabase(backend="native") as db:
        db.create_table("t", {"v": VALUES})
        db.query("t", "v", 100, 900)
        assert db.audit().ok
        sub = db.substrate
        path = sub.file_map_path(db.table("t").column("v").file)
        read = sub.maps_text
        monkeypatch.setattr(
            sub, "maps_text", lambda: _split_one_line(read(), path, sub.address_space)
        )
        report = db.audit()
    assert [f.invariant for f in report.findings] == ["region-accounting"]
    assert "lines" in report.findings[0].detail


def _kernel_lines_of(sub, store) -> int:
    """The kernel's maps lines of ``store``'s memfd name outside the
    store's own mapping, whichever file of that name they map."""
    start, npages = _store_area(store)
    return sum(
        1
        for e in parse_maps(sub.maps_text())
        if e.pathname == store.map_path
        and not (start < e.end_vpn and e.start_vpn < start + npages)
    )


def test_an_unclosed_database_unmaps_its_views_once_collected():
    """A queried native database dropped without ``close()`` leaves no
    mapping behind once collected: the next session's store of the same
    memfd name shows as many maps lines as its book."""
    db = AdaptiveDatabase(backend="native")
    db.create_table("unclosed", {"v": VALUES})
    for lo in (100, 2000, 9000):
        db.query("unclosed", "v", lo, lo + 800)
    assert db.substrate.maps_line_count() > 1  # views were mapped
    del db
    gc.collect()
    with AdaptiveDatabase(backend="native") as db:
        db.create_table("unclosed", {"v": VALUES})
        db.query("unclosed", "v", 100, 900)
        store = db.table("unclosed").column("v").file
        sub = db.substrate
        assert _kernel_lines_of(sub, store) == sub.maps_line_count(store.map_path)
