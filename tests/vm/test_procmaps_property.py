"""Property tests: /proc maps rendering and parsing are lossless, and
the snapshot built without text equals the one built through it.

After any sequence of mapping operations, rendering the address space
and parsing the text back must reproduce the exact page-level mapping —
the property the paper's update algorithm depends on (Section 2.5).

Knobs: ``REPRO_SEED`` re-seeds the bulk sweep, ``REPRO_FUZZ_SCHEDULES``
sets its length (default 200); a failing sweep entry names its seed.
"""

import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seeds import derive_seed
from repro.substrate import SimulatedSubstrate
from repro.vm.cost import CostModel
from repro.vm.physical import PhysicalMemory
from repro.vm.procmaps import MappingSnapshot, render_maps

from ..conftest import book_run, to_reservation
from ..oracle_paths import production_paths, reference_paths
from .snapshot_oracle import MapsEntry, OracleMappingSnapshot, entries_rows, parse_maps

FUZZ_SCHEDULES = int(os.environ.get("REPRO_FUZZ_SCHEDULES", "200"))

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["map_file", "map_anon", "remap", "unmap"]),
        st.integers(0, 48),
        st.integers(1, 8),
        st.integers(0, 56),
    ),
    max_size=30,
)


@settings(max_examples=120, deadline=None)
@given(ops=_OPS)
def test_maps_roundtrip_is_page_accurate(ops):
    memory = PhysicalMemory(capacity_bytes=64 * 1024 * 1024)
    substrate = SimulatedSubstrate(memory)
    file = memory.create_file("db", 64)
    base = substrate.reserve(64)  # the area the ops play in

    for op, start, npages, fpage in ops:
        fpage = min(fpage, file.num_pages - npages)
        try:
            if op in ("map_file", "remap"):
                substrate.map_fixed(base + start, npages, file, fpage)
            elif op == "map_anon":
                to_reservation(substrate, base + start, npages)
            else:
                substrate.release_region(base + start, npages, npages)
        except Exception:
            continue  # invalid op against current state: fine

    asp = substrate.address_space

    # 1. the rendered file parses back to the same page count per kind
    entries = parse_maps(render_maps(asp))
    rendered_pages = sum(e.npages for e in entries)
    mapped_pages = sum(vma.npages for vma in asp.vmas())
    assert rendered_pages == mapped_pages
    assert len(entries) == asp.num_vmas

    # 2. the page-wise snapshot equals the true translations
    snapshot = OracleMappingSnapshot(*entries_rows(entries))
    for vma in asp.vmas():
        for vpn in range(vma.start, vma.end):
            truth = asp.translate(vpn)
            parsed = snapshot.physical_of(vpn)
            if truth is None:
                assert parsed is None
            else:
                assert parsed == ("/dev/shm/db", truth[1])

    # 3. reverse direction: every snapshot entry is a true mapping
    for vpn, (path, fpage) in list(snapshot._forward.items()):
        assert asp.translate(vpn) == (file, fpage)


# -- snapshot parity: columns off the VMA list vs. rendered and parsed text ------
#
# ``Substrate.maps_snapshot`` never renders text: it reads (start,
# npages, file page, path) per VMA and expands the columns to pages.  The
# reference branch — render_maps → parse_maps → the dict snapshot — is
# the oracle for everything a caller can observe, the ledger included.
# The page tables below are written directly, anywhere in [0, 48): the
# snapshot is under test here, not the substrate's plan checks.

_PATHS = ("/dev/shm/db", "/dev/shm/aux", "/dev/shm/never-mapped")

_SPACE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["map_db", "map_aux", "map_anon", "remap_db", "unmap"]),
        st.integers(0, 40),
        st.integers(1, 6),
        st.integers(0, 26),
    ),
    max_size=24,  # may be empty: the empty address space is a case
)


def _substrate(ops) -> SimulatedSubstrate:
    memory = PhysicalMemory(capacity_bytes=64 * 1024 * 1024)
    substrate = SimulatedSubstrate(memory)
    asp = substrate.address_space
    db = memory.create_file("db", 32)
    aux = memory.create_file("aux", 32)
    for op, start, npages, fpage in ops:
        if op in ("map_db", "map_aux"):
            # consecutive calls with consecutive pages merge into one VMA
            file = db if op == "map_db" else aux
            book_run(asp, start, npages, file, fpage)
        elif op == "map_anon":
            book_run(asp, start, npages)
        elif op == "remap_db":
            book_run(asp, start, npages, db, fpage)
        else:
            asp.remove_mapping(start, npages)
    return substrate


def _pairs(snapshot, path, fpages):
    which, vpns = snapshot.virtuals_of_pages(path, fpages)
    return sorted(zip(which.tolist(), vpns.tolist()))


def assert_snapshots_agree(substrate, file_filter, mutations=()):
    """Both branches over one address space: same answers, same ledger."""
    asp = substrate.address_space
    built = {}
    for name, ctx in (
        ("reference", reference_paths),
        ("fast", production_paths),
    ):
        cost = CostModel()
        with ctx():
            snapshot = substrate.maps_snapshot(
                cost=cost, lane="mapper", file_filter=file_filter
            )
        built[name] = (snapshot, cost)
    (reference, ref_cost), (fast, fast_cost) = built["reference"], built["fast"]
    assert type(fast) is not type(reference)
    assert fast_cost.ledger.snapshot() == ref_cost.ledger.snapshot()
    assert ref_cost.ledger.counter("maps_lines_parsed") == asp.num_vmas

    for op, vpn, path, fpage in mutations:
        for snapshot in (reference, fast):
            if op == "map":
                snapshot.map(vpn, (path, fpage), lane="mapper")
            else:
                snapshot.unmap(vpn, lane="mapper")

    assert len(fast) == len(reference)
    for vpn in range(0, 50):
        assert fast.physical_of(vpn) == reference.physical_of(vpn)
    asked = np.concatenate([np.arange(-1, 34), [3, 3, 10**9]])
    for path in _PATHS:
        for fpage in range(0, 33):
            assert fast.virtuals_of((path, fpage)) == reference.virtuals_of(
                (path, fpage)
            )
        assert _pairs(fast, path, asked) == _pairs(reference, path, asked)
    assert fast_cost.ledger.snapshot() == ref_cost.ledger.snapshot()


_MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["map", "unmap"]),
        st.integers(0, 48),
        st.sampled_from(_PATHS[:2]),
        st.integers(0, 31),
    ),
    max_size=6,
)


@settings(max_examples=120, deadline=None)
@given(
    ops=_SPACE_OPS,
    file_filter=st.sampled_from([None, *_PATHS]),
    mutations=_MUTATIONS,
)
def test_column_built_snapshot_matches_parsed_text(ops, file_filter, mutations):
    assert_snapshots_agree(_substrate(ops), file_filter, mutations)


def test_empty_space_and_merged_neighbours():
    assert_snapshots_agree(_substrate([]), None)
    merged = _substrate([("map_db", 4, 3, 7), ("map_db", 7, 2, 10)])
    assert merged.address_space.num_vmas == 1  # adjacent and contiguous: one maps line
    assert_snapshots_agree(merged, "/dev/shm/db")
    assert_snapshots_agree(merged, "/dev/shm/aux")  # everything filtered out


def test_bulk_seeded_address_spaces():
    """REPRO_FUZZ_SCHEDULES address spaces derived from REPRO_SEED."""
    kinds = ["map_db", "map_aux", "map_anon", "remap_db", "unmap"]
    for i in range(FUZZ_SCHEDULES):
        seed = derive_seed(i)
        rng = np.random.default_rng(seed)
        ops = [
            (
                kinds[int(rng.integers(0, 5))],
                int(rng.integers(0, 41)),
                int(rng.integers(1, 7)),
                int(rng.integers(0, 27)),
            )
            for _ in range(int(rng.integers(0, 25)))
        ]
        mutations = [
            (
                ["map", "unmap"][int(rng.integers(0, 2))],
                int(rng.integers(0, 49)),
                _PATHS[int(rng.integers(0, 2))],
                int(rng.integers(0, 32)),
            )
            for _ in range(int(rng.integers(0, 7)))
        ]
        file_filter = [None, *_PATHS][int(rng.integers(0, 4))]
        try:
            assert_snapshots_agree(_substrate(ops), file_filter, mutations)
        except AssertionError as exc:
            raise AssertionError(f"sweep entry {i} (seed {seed}): {exc}") from exc


# -- the page expansion itself ----------------------------------------------------


def _per_entry_arrays(entries):
    """Pages of ``entries`` the way the array snapshot used to build
    them: one ``arange`` per entry, then keep the last entry per vpn."""
    vpns = np.concatenate(
        [np.arange(e.start_vpn, e.end_vpn) for e in entries] or [np.empty(0, int)]
    )
    fpages = np.concatenate(
        [np.arange(e.file_page, e.file_page + e.npages) for e in entries]
        or [np.empty(0, int)]
    )
    names = sorted({e.pathname for e in entries})
    paths = np.concatenate(
        [np.full(e.npages, names.index(e.pathname)) for e in entries]
        or [np.empty(0, int)]
    )
    last = {int(vpn): i for i, vpn in enumerate(vpns)}
    keep = np.array(sorted(last.values()), dtype=int)
    order = keep[np.argsort(vpns[keep], kind="stable")]
    return vpns[order], fpages[order], [names[i] for i in paths[order]]


_ENTRY = st.builds(
    MapsEntry,
    start_vpn=st.integers(0, 60),
    npages=st.integers(1, 9),
    perms=st.just("rw-s"),
    file_page=st.integers(0, 50),
    dev=st.just("03:0c"),
    inode=st.just(1),
    pathname=st.sampled_from(["/dev/shm/db", "/dev/shm/aux"]),
)


@settings(max_examples=120, deadline=None)
@given(entries=st.lists(_ENTRY, max_size=12))
def test_repeat_expansion_equals_per_entry_aranges(entries):
    """Hand-built entry lists may overlap virtually: the last entry
    covering a vpn wins, as in the dict reference."""
    fast = MappingSnapshot(*entries_rows(entries))
    vpns, fpages, paths = _per_entry_arrays(entries)
    assert fast._vpns.tolist() == vpns.tolist()
    assert fast._fpages.tolist() == fpages.tolist()
    assert [fast._paths[pid] for pid in fast._pids.tolist()] == paths
    reference = OracleMappingSnapshot(*entries_rows(entries))
    assert len(fast) == len(reference)
    for vpn in range(0, 70):
        assert fast.physical_of(vpn) == reference.physical_of(vpn)


def test_overlapping_entries_keep_the_last_occurrence_per_vpn():
    def entry(start, npages, file_page):
        return MapsEntry(start, npages, "rw-s", file_page, "03:0c", 1, "/dev/shm/db")

    fast = MappingSnapshot(
        *entries_rows([entry(10, 4, 0), entry(12, 4, 20), entry(11, 1, 9)])
    )
    assert fast._vpns.tolist() == [10, 11, 12, 13, 14, 15]
    assert fast._fpages.tolist() == [0, 9, 20, 21, 22, 23]
    assert fast.virtuals_of(("/dev/shm/db", 2)) == frozenset()  # shadowed
