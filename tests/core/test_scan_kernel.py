"""Kernel parity: ``core.scan``'s extent-first kernel against a per-page
oracle.

The kernel computes every page's extent once, classifies all pages
once and filters the straddling ones a chunk at a time.  Every test
here builds one column from a :class:`Case`, scans it with the kernel
and requires the five result arrays to be equal, element for element,
to what a loop over the pages computes — and the kernel and the
reference branch of ``batch_scan`` to leave equal ledgers.  The cases
cover what the stackbench workloads meet and the older tests do not
build: both page layouts (rows back to back as the simulated backend
keeps them; a header slot before every page as the native one does),
wide records, page lists that are one run / a run by their ends only /
sorted / unordered with repeats, lists and straddler sets longer than
one kernel block, pages whose extent straddles the range without a hit
(an update left an outlier on them), a padded last page on either side
of the classification, and ranges that touch the ends of the int64
domain.

Knobs: ``REPRO_SEED`` re-seeds the bulk sweep, ``REPRO_FUZZ_SCHEDULES``
sets its length (default 200); a failing sweep entry names its seed.
"""

from __future__ import annotations

import os
import tracemalloc
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import scan
from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.core.maintenance import align_partial_views
from repro.core.scan import NO_ABOVE, NO_BELOW, batch_scan
from repro.core.view import VirtualView
from repro.native import is_supported
from repro.seeds import derive_seed
from repro.storage import layout
from repro.storage.column import PhysicalColumn
from repro.storage.updates import UpdateBatch, UpdateRecord
from repro.substrate import make_substrate
from repro.vm.constants import MAX_VALUE, MIN_VALUE, PAGE_SIZE, VALUES_PER_PAGE

from ..oracle_paths import production_paths, reference_paths

FUZZ_SCHEDULES = int(os.environ.get("REPRO_FUZZ_SCHEDULES", "200"))

BAND = 1_000  # page p starts out with values in [p * BAND, (p + 1) * BAND)
FIELDS = ("rowids", "values", "page_qualifies", "max_below", "min_above")
PAGE_LISTS = ("all", "run", "shuffled_run", "sorted", "unordered")
QUERIES = ("narrow", "wide", "outliers", "from_min", "to_max", "everything")
BLOCK_SIZES = (1, 3, 4, scan.BLOCK_PAGES)
POLLUTION = (0.0, 0.3, 1.0)
BACKENDS = [
    "simulated",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(not is_supported(), reason="native rewiring unsupported"),
    ),
]


@dataclass
class Case:
    """Everything that determines one column, page list and range."""

    #: Draws the values, the outliers, the page list and the range.
    seed: int
    #: Native-like layout: a header slot before every page's values.
    strided: bool = False
    #: 8 gives 511 slots a page, 16 gives 255 (a wider gap when strided).
    record_bytes: int = 8
    num_pages: int = 12
    #: ``BLOCK_PAGES`` for the run: small means many blocks and chunks.
    block_pages: int = scan.BLOCK_PAGES
    page_list: str = "all"
    #: Slots missing from the last page.
    dropped: int = 0
    #: Share of pages an update left a far-away value on, so that their
    #: extent straddles most ranges although they hold no hit.
    polluted: float = 0.0
    query: str = "narrow"


def _strided(file) -> None:
    """Re-house the pages of a simulated file the way the native backend
    lays them out: one raw page per row, its header in slot 0."""
    raw = np.zeros((file.num_pages, PAGE_SIZE // 8), dtype=np.int64)
    raw[:, 0] = file.headers
    raw[:, 1 : 1 + file.slots_per_page] = file.data
    file.headers = raw[:, 0]
    file.data = raw[:, 1 : 1 + file.slots_per_page]


def _build(case: Case):
    """``(column, fpages, lo, hi)`` of the case, on a fresh substrate."""
    rng = np.random.default_rng(case.seed)
    per_page = layout.records_per_page(case.record_bytes)
    rows = case.num_pages * per_page - case.dropped % per_page
    values = np.arange(rows) // per_page * BAND + rng.integers(0, BAND, size=rows)
    far = np.array([MIN_VALUE, MIN_VALUE + 1, -(10**12), -1, 10**12, MAX_VALUE - 1, MAX_VALUE])
    for page in np.flatnonzero(rng.random(case.num_pages) < case.polluted):
        filled = min(per_page, rows - page * per_page)
        slots = page * per_page + rng.integers(0, filled, size=rng.integers(1, 3))
        values[slots] = rng.choice(far, size=slots.size)
    column = PhysicalColumn.create(
        make_substrate("simulated"), "kernel", values, record_bytes=case.record_bytes
    )
    if case.strided:
        _strided(column.file)

    n = case.num_pages
    if case.page_list == "all":
        fpages = np.arange(n)
    elif case.page_list in ("run", "shuffled_run"):
        start = rng.integers(0, n)
        fpages = np.arange(start, rng.integers(start, n) + 1)
        if case.page_list == "shuffled_run":  # a run by its two ends only
            rng.shuffle(fpages[1:-1])
    else:
        fpages = rng.integers(0, n, size=rng.integers(1, 2 * n))
        if case.page_list == "sorted":
            fpages = np.unique(fpages)

    top = n * BAND
    at = int(rng.integers(-5, top + 5))
    lo, hi = {
        # Most pages lie wholly outside, the polluted ones straddle.
        "narrow": (at, at + int(rng.integers(0, 4))),
        "wide": (at, at + int(rng.integers(0, 3 * BAND))),
        "outliers": (10**12 - int(rng.integers(0, 2)), MAX_VALUE - int(rng.integers(0, 3))),
        "from_min": (MIN_VALUE, [MIN_VALUE, MIN_VALUE + 1, at][int(rng.integers(0, 3))]),
        "to_max": ([MAX_VALUE, MAX_VALUE - 1, at][int(rng.integers(0, 3))], MAX_VALUE),
        "everything": (MIN_VALUE, MAX_VALUE),
        # From one page's band to another's: the pages between lie
        # wholly inside unless an outlier makes them straddle; each end
        # page lies inside, straddles, or is the end of the domain.
        "pages": _pages_range(rng, n),
    }[case.query]
    return column, fpages.astype(np.int64), lo, hi


def _pages_range(rng, num_pages: int) -> tuple[int, int]:
    """A range over the bands of pages ``first`` to ``last``."""
    first = int(rng.integers(0, num_pages))
    last = int(rng.integers(first, num_pages))
    lo = [first * BAND, first * BAND - 3, first * BAND + 17, MIN_VALUE]
    hi = [(last + 1) * BAND - 1, (last + 1) * BAND + 3, (last + 1) * BAND - 18, MAX_VALUE]
    return lo[int(rng.integers(0, 4))], hi[int(rng.integers(0, 4))]


def _oracle(column: PhysicalColumn, fpages, lo: int, hi: int) -> dict:
    """The five result arrays, one page at a time, in Python integers."""
    per_page = column.values_per_page
    out = {name: [] for name in FIELDS}
    for page in fpages.tolist():
        values = column.file.data[page][: column.valid_count(page)].tolist()
        hits = [slot for slot, value in enumerate(values) if lo <= value <= hi]
        out["rowids"] += [int(column.file.headers[page]) * per_page + s for s in hits]
        out["values"] += [values[s] for s in hits]
        out["page_qualifies"].append(bool(hits))
        below = [v for v in values if v < lo] if not hits else []
        above = [v for v in values if v > hi] if not hits else []
        out["max_below"].append(max(below, default=NO_BELOW))
        out["min_above"].append(min(above, default=NO_ABOVE))
    return out


def assert_parity(case: Case, monkeypatch) -> dict:
    """Kernel == oracle == reference branch; returns what the case met."""
    monkeypatch.setattr(scan, "BLOCK_PAGES", case.block_pages)
    results, ledgers = [], []
    for ctx in (production_paths, reference_paths):
        column, fpages, lo, hi = _build(case)
        stored = column.file.data.copy()
        with ctx():
            results.append(batch_scan(column, fpages, lo, hi))
        ledgers.append((column.cost.ledger.lanes(), column.cost.ledger.counters()))
        # The kernel reads pages where they lie: it must not write there.
        np.testing.assert_array_equal(column.file.data, stored)
    kernel, reference = results
    want = _oracle(column, fpages, lo, hi)
    for name in FIELDS:
        got = getattr(kernel, name)
        assert got.dtype == getattr(reference, name).dtype, name
        assert got.tolist() == want[name], (name, case, lo, hi)
        np.testing.assert_array_equal(got, getattr(reference, name), err_msg=name)
    assert ledgers[0] == ledgers[1]

    straddling = ~kernel.page_qualifies & (kernel.max_below != NO_BELOW) & (
        kernel.min_above != NO_ABOVE
    )
    filtered = kernel.page_qualifies | straddling
    last = fpages == column.num_pages - 1
    padded = last.any() and column.num_rows < column.num_pages * column.values_per_page
    return {
        "blocks": fpages.size > case.block_pages,
        "chunks": int(filtered.sum()) > case.block_pages,
        "hitless_straddlers": bool(straddling.any()),
        "padded_straddler": bool(padded and filtered[last].any()),
        "padded_outside": bool(padded and not filtered[last].all()),
        "strided": case.strided,
    }


_CASE = st.builds(
    Case,
    seed=st.integers(0, 2**32 - 1),
    strided=st.booleans(),
    record_bytes=st.sampled_from([8, 16]),
    num_pages=st.integers(1, 14),
    block_pages=st.sampled_from(BLOCK_SIZES),
    page_list=st.sampled_from(PAGE_LISTS),
    dropped=st.one_of(st.just(0), st.integers(1, VALUES_PER_PAGE - 1)),
    polluted=st.sampled_from(POLLUTION),
    query=st.sampled_from(QUERIES),
)


@settings(max_examples=150, deadline=None)
@given(case=_CASE)
def test_kernel_matches_per_page_oracle(case):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_parity(case, monkeypatch)


def _seeded_case(seed: int) -> Case:
    """One sweep entry, drawn with numpy so the seed alone replays it."""
    rng = np.random.default_rng(seed)
    pick = lambda options: options[int(rng.integers(0, len(options)))]  # noqa: E731
    return Case(
        seed=seed,
        strided=bool(rng.random() < 0.5),
        record_bytes=pick([8, 8, 16]),
        num_pages=int(rng.integers(1, 15)),
        block_pages=pick(BLOCK_SIZES),
        page_list=pick(PAGE_LISTS),
        dropped=int(rng.integers(1, VALUES_PER_PAGE)) if rng.random() < 0.6 else 0,
        polluted=pick(POLLUTION),
        query=pick(QUERIES),
    )


def test_bulk_seeded_cases(monkeypatch):
    """REPRO_FUZZ_SCHEDULES cases derived from REPRO_SEED; the sweep as
    a whole must have met every situation the kernel distinguishes."""
    met: dict[str, int] = {}
    for i in range(FUZZ_SCHEDULES):
        seed = derive_seed(i)
        try:
            seen = assert_parity(_seeded_case(seed), monkeypatch)
        except AssertionError as exc:
            raise AssertionError(f"sweep entry {i} (seed {seed}): {exc}") from exc
        for key, value in seen.items():
            met[key] = met.get(key, 0) + value
    if FUZZ_SCHEDULES >= 100:
        assert all(met.values()), met


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize(
    "lo, hi",
    [
        (MIN_VALUE, MIN_VALUE),
        (MIN_VALUE, 5 * BAND),
        (MIN_VALUE + 1, -2),
        (5 * BAND, MAX_VALUE),
        (MAX_VALUE, MAX_VALUE),
        (MIN_VALUE, MAX_VALUE),
        (3 * BAND - 1, 3 * BAND - 1),
    ],
)
def test_evidence_at_the_ends_of_the_domain(strided, lo, hi):
    """Pages holding both domain ends beside ordinary values, ranges
    that start at the least or end at the greatest int64: the turned
    value order must not carry evidence to the wrong side."""
    per_page = VALUES_PER_PAGE
    values = np.arange(8 * per_page) // per_page * BAND + 7
    values[2 * per_page + 3] = MIN_VALUE
    values[2 * per_page + 4] = MAX_VALUE
    values[4 * per_page] = MIN_VALUE
    values[6 * per_page + 9] = MAX_VALUE
    values[7 * per_page :] = MAX_VALUE
    column = PhysicalColumn.create(make_substrate("simulated"), "ends", values)
    if strided:
        _strided(column.file)
    fpages = np.arange(8)
    result = batch_scan(column, fpages, lo, hi)
    want = _oracle(column, fpages, lo, hi)
    for name in FIELDS:
        assert getattr(result, name).tolist() == want[name], name


def test_tier_hook_fires_once_per_scan(monkeypatch):
    """However many blocks and chunks a scan takes, the column's tier
    hears of it once, with the whole page list."""
    monkeypatch.setattr(scan, "BLOCK_PAGES", 2)
    column, fpages, lo, hi = _build(Case(seed=1, polluted=1.0, page_list="unordered"))
    calls = []
    column.tier = SimpleNamespace(
        record_batch_access=lambda pages, cost, lane, kind: calls.append(pages)
    )
    batch_scan(column, fpages, lo, hi)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], fpages)


def _big_column(num_pages: int) -> PhysicalColumn:
    """Uniform values over a wide domain, written a block at a time so
    that building the column needs no second copy of it."""
    substrate = make_substrate("simulated")
    file = substrate.create_file("big", num_pages)
    rng = np.random.default_rng(0)
    for start in range(0, num_pages, 1024):
        block = file.data[start : start + 1024]
        block[:] = rng.integers(0, 10**9, size=block.shape)
    return PhysicalColumn("big", substrate, file, num_pages * VALUES_PER_PAGE)


def test_temporaries_do_not_grow_with_the_page_list():
    """A 16 384-page scan on which every page straddles the range and
    next to none holds a hit — the worst case for temporaries — peaks
    under three blocks of pages beside twelve int64 a page for its
    per-page vectors, in one run and as an unordered list."""
    num_pages = 64 * scan.BLOCK_PAGES
    column = _big_column(num_pages)
    lo, hi = 500_000_000, 500_000_100
    block_bytes = scan.BLOCK_PAGES * PAGE_SIZE
    allowed = 3 * block_bytes + 12 * 8 * num_pages
    for fpages in (
        np.arange(num_pages),
        np.random.default_rng(1).permutation(num_pages),
    ):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = batch_scan(column, fpages, lo, hi, charge=False)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert result.rowids.size < num_pages // 4
        assert block_bytes < peak <= allowed, (peak, allowed)


# -- pages wholly inside the range: emitted without a mask ------------------

INSIDE_QUERIES = ("pages", "pages", "narrow", "everything", "from_min", "to_max")


def _page_shape(column: PhysicalColumn, fpages, lo: int, hi: int) -> str:
    """Per listed page: ``i`` if all its filled slots lie inside
    ``[lo, hi]``, ``s`` if it straddles an end of it, ``o`` if it lies
    wholly outside."""
    shape = ""
    for page in fpages.tolist():
        values = column.file.data[page][: column.valid_count(page)]
        if lo <= values.min() and values.max() <= hi:
            shape += "i"
        else:
            shape += "s" if values.max() >= lo and values.min() <= hi else "o"
    return shape


def assert_inside_parity(case: Case, monkeypatch) -> dict:
    """:func:`assert_parity`, and what the case met of pages wholly
    inside the range on the extent path (a run, or a list longer than a
    block; a shorter scattered list is gathered and masked whole).  The
    kernel emits them without a mask when they are at least half the
    pages that reach the range."""
    assert_parity(case, monkeypatch)
    column, fpages, lo, hi = _build(case)
    run = np.array_equal(fpages, np.arange(fpages[0], fpages[0] + fpages.size))
    if not run and fpages.size <= case.block_pages:
        return {}
    shape = _page_shape(column, fpages, lo, hi)
    inside = [page == "i" for page in shape]
    whole = "i" in shape and shape.count("i") >= shape.count("s")
    last = fpages == column.num_pages - 1
    padded = column.num_rows < column.num_pages * column.values_per_page
    return {
        "no_inside": "i" not in shape,
        "some_inside": "i" in shape and shape.strip("i") != "",
        "all_inside": shape.strip("i") == "",
        "interleaved": "isi" in shape or "sis" in shape,
        "inside_runs_of_several": "ii" in shape,
        "padded_inside": bool(padded and np.asarray(inside)[last].any()),
        "strided_inside": case.strided and "i" in shape,
        "inside_at_a_domain_end": (lo == MIN_VALUE or hi == MAX_VALUE) and "i" in shape,
        "repeated_inside": "i" in shape and np.unique(fpages).size < fpages.size,
        "emitted_whole": whole,
        "emitted_between_straddlers": whole and ("isi" in shape or "sis" in shape),
    }


_INSIDE_CASE = st.builds(
    Case,
    seed=st.integers(0, 2**32 - 1),
    strided=st.booleans(),
    record_bytes=st.sampled_from([8, 16]),
    num_pages=st.integers(1, 14),
    block_pages=st.sampled_from(BLOCK_SIZES),
    page_list=st.sampled_from(PAGE_LISTS),
    dropped=st.one_of(st.just(0), st.integers(1, VALUES_PER_PAGE - 1)),
    polluted=st.sampled_from(POLLUTION),
    query=st.sampled_from(INSIDE_QUERIES),
)


@settings(max_examples=150, deadline=None)
@given(case=_INSIDE_CASE)
def test_pages_wholly_inside_match_the_oracle_in_order(case):
    """Ranges that leave no page, some pages or every page wholly
    inside, inside runs between straddling pages: the five arrays equal
    the per-page oracle and the whole-page reference in order."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_inside_parity(case, monkeypatch)


def test_seeded_inside_sweep(monkeypatch):
    """A seeded sweep of inside ranges that must, as a whole, meet every
    shape of inside and straddling pages the kernel tells apart."""
    met: dict[str, int] = {}
    for i in range(FUZZ_SCHEDULES):
        seed = derive_seed(i)
        case = _seeded_case(seed)
        case.query = INSIDE_QUERIES[seed % len(INSIDE_QUERIES)]
        try:
            seen = assert_inside_parity(case, monkeypatch)
        except AssertionError as exc:
            raise AssertionError(f"sweep entry {i} (seed {seed}): {exc}") from exc
        for key, value in seen.items():
            met[key] = met.get(key, 0) + value
    if FUZZ_SCHEDULES >= 100:
        assert len(met) == 11 and all(met.values()), met


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("dropped", [0, 200])
def test_inside_runs_between_straddlers(strided, dropped, monkeypatch):
    """Twelve pages, in one run and as a list of blocks of four: runs of
    inside pages between pages an outlier makes straddle, the padded
    last page inside too."""
    monkeypatch.setattr(scan, "BLOCK_PAGES", 4)
    per_page = VALUES_PER_PAGE
    values = _banded(12, dropped=dropped)
    for page in (2, 3, 7):
        values[page * per_page + 5] = 10**12  # straddles, keeps its hits
    values[5 * per_page + 1] = -(10**12)
    column = PhysicalColumn.create(make_substrate("simulated"), "runs", values)
    if strided:
        _strided(column.file)
    for fpages in (np.arange(12), np.arange(1, 12), np.r_[np.arange(6, 12), np.arange(0, 6)]):
        for lo, hi in ((0, 12 * BAND), (BAND, 11 * BAND), (MIN_VALUE, 12 * BAND - 1)):
            result = batch_scan(column, fpages, lo, hi)
            want = _oracle(column, fpages, lo, hi)
            for name in FIELDS:
                assert getattr(result, name).tolist() == want[name], (name, lo, hi)


class _CountedPages(np.ndarray):
    """``file.data`` that notes every fancy-index copy taken from it.
    Only the array marked ``tally`` counts: views and copies derived
    from it are plain instances without the attribute."""

    def __getitem__(self, key):
        tally = getattr(self, "tally", None)
        if tally is not None and isinstance(key, np.ndarray):
            tally.append(key.size)
        return super().__getitem__(key)


def test_view_hit_gathers_its_pages_once():
    """A scattered list that fits one block — what a view hit scans — is
    copied out of the file once; the filter reuses that copy."""
    column, _, _, _ = _build(Case(seed=3, num_pages=64, polluted=0.5))
    fpages = np.unique(np.random.default_rng(3).integers(0, 64, size=46))
    data = column.file.data.view(_CountedPages)
    data.tally = []
    column.file.data = data
    result = batch_scan(column, fpages, 20 * BAND, 40 * BAND)
    assert 0 < result.page_qualifies.sum() < fpages.size
    assert data.tally == [fpages.size]


# -- the gathered branch: a view hit, filtered mask first -------------------


def _gathered_parity(values, fpages, lo, hi, strided=False) -> None:
    """Scan a gathered page list of a column holding ``values``; the five
    arrays must match the per-page oracle and the ledgers the reference
    branch's."""
    fpages = np.asarray(fpages, dtype=np.int64)
    first = int(fpages[0])
    runs = fpages[-1] - first == fpages.size - 1 and np.array_equal(
        fpages, np.arange(first, first + fpages.size)
    )
    assert not runs and fpages.size <= scan.BLOCK_PAGES  # the gathered branch
    results, ledgers = [], []
    for ctx in (production_paths, reference_paths):
        column = PhysicalColumn.create(make_substrate("simulated"), "gathered", values)
        if strided:
            _strided(column.file)
        with ctx():
            results.append(batch_scan(column, fpages, lo, hi))
        ledgers.append((column.cost.ledger.lanes(), column.cost.ledger.counters()))
    kernel, reference = results
    want = _oracle(column, fpages, lo, hi)
    for name in FIELDS:
        assert getattr(kernel, name).tolist() == want[name], (name, lo, hi)
        np.testing.assert_array_equal(getattr(kernel, name), getattr(reference, name))
    assert ledgers[0] == ledgers[1]


def _banded(num_pages: int, dropped: int = 0) -> np.ndarray:
    """Page p holds values in [p * BAND, (p + 1) * BAND)."""
    rows = num_pages * VALUES_PER_PAGE - dropped
    return np.arange(rows) // VALUES_PER_PAGE * BAND + np.arange(rows) % BAND


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize(
    "fpages, lo, hi",
    [
        # hit-less pages wholly below lo, wholly above hi, both at once
        ([1, 3, 5, 7], 5 * BAND, 5 * BAND + 10),
        ([7, 5, 3, 1], 5 * BAND + 10, 5 * BAND + 20),
        ([0, 2, 9], 3 * BAND, 8 * BAND),
        ([4, 6], 0, BAND - 1),
        ([4, 6], 9 * BAND, 10 * BAND),
    ],
)
def test_gathered_pages_wholly_on_one_side(strided, fpages, lo, hi):
    """A page without a hit lying wholly below ``lo`` has no
    ``min_above``, one wholly above ``hi`` no ``max_below``."""
    _gathered_parity(_banded(10), fpages, lo, hi, strided)


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize(
    "lo, hi",
    [
        (9 * BAND, 9 * BAND + 5),
        (9 * BAND + 900, 10 * BAND),
        (2 * BAND, 2 * BAND + 3),
        (0, 10 * BAND),
    ],
)
def test_gathered_list_with_the_padded_last_page(strided, lo, hi):
    """The last page's padding (zeros) neither hits nor counts as
    evidence, whether the page qualifies or not."""
    values = _banded(10, dropped=VALUES_PER_PAGE - 200)
    _gathered_parity(values, [2, 9, 4], lo, hi, strided)
    _gathered_parity(values, [9, 0], lo, hi, strided)


@pytest.mark.parametrize(
    "lo, hi", [(3 * BAND, 3 * BAND + 50), (0, 10 * BAND), (11 * BAND, 12 * BAND)]
)
def test_gathered_list_with_repeated_pages(lo, hi):
    """A page listed twice is scanned twice, in list order."""
    _gathered_parity(_banded(10), [3, 1, 3, 7, 1], lo, hi)


def _with_domain_ends() -> np.ndarray:
    values = _banded(8)
    values[2 * VALUES_PER_PAGE + 3] = MIN_VALUE
    values[2 * VALUES_PER_PAGE + 4] = MAX_VALUE
    values[4 * VALUES_PER_PAGE : 5 * VALUES_PER_PAGE] = MIN_VALUE
    values[6 * VALUES_PER_PAGE : 7 * VALUES_PER_PAGE] = MAX_VALUE
    return values


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize(
    "lo, hi",
    [
        # empty once clamped: wholly beyond one end of the domain
        (MAX_VALUE + 1, MAX_VALUE + 5),
        (2**64, 2**65),
        (MIN_VALUE - 5, MIN_VALUE - 1),
        # at the ends
        (MIN_VALUE, MIN_VALUE),
        (MAX_VALUE, MAX_VALUE),
        (MIN_VALUE, MAX_VALUE),
        (MIN_VALUE + 1, MAX_VALUE - 1),
        # beyond the ends, clamped to them
        (MIN_VALUE - 5, 3 * BAND),
        (3 * BAND, MAX_VALUE + 5),
        (MIN_VALUE - 5, MAX_VALUE + 5),
    ],
)
def test_gathered_ranges_at_and_beyond_the_int64_ends(strided, lo, hi):
    _gathered_parity(_with_domain_ends(), [6, 2, 4, 0, 7], lo, hi, strided)


@pytest.mark.parametrize("backend", BACKENDS)
def test_filled_slots_of_an_empty_column_and_its_first_merged_page(backend):
    """The scan and the alignment kernel read as many slots of a page as
    ``PhysicalColumn.valid_count`` says it holds: none on a zero-row
    column, the merged rows once the first merge filled page 0.  The
    zero padding behind them lies inside ``[0, 50]`` and is never a row."""
    config = AdaptiveConfig(background_mapping=False)
    with AdaptiveDatabase(config, backend=backend) as db:
        column = db.create_table("t", {"k": np.empty(0, dtype=np.int64)}).column("k")
        ledger = column.cost.ledger
        page = np.array([0])

        def streamed(run):
            before = ledger.counter("values_scanned")
            out = run()
            return out, ledger.counter("values_scanned") - before

        result, work = streamed(lambda: batch_scan(column, page, 0, 50))
        assert result.rowids.size == 0
        assert work == column.valid_count(0) == 0

        for value in (10, 20, 30):
            db.insert("t", {"k": value})
        db.flush_inserts("t")
        assert column.num_pages == 1
        result, work = streamed(lambda: batch_scan(column, page, 0, 50))
        assert result.rowids.tolist() == [0, 1, 2]
        assert work == column.valid_count(0) == 3

        # Every row leaves [0, 50]: only padding is left in range, so
        # the case-2 scan of page 0 must take the page out of the view.
        view = VirtualView(column, 0, 50)
        view.add_page(0)
        batch = UpdateBatch()
        for row in range(3):
            batch.append(UpdateRecord(row=row, old=column.write(row, 99), new=99))
        stats, work = streamed(lambda: align_partial_views(column, [view], batch))
        assert stats.pages_removed == 1
        assert not view.contains_page(0)
        assert work == column.valid_count(0)
        view.destroy()
