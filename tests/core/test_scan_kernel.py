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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import scan
from repro.core.scan import NO_ABOVE, NO_BELOW, batch_scan
from repro.seeds import derive_seed
from repro.storage import layout
from repro.storage.column import PhysicalColumn
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
    }[case.query]
    return column, fpages.astype(np.int64), lo, hi


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
    """However many blocks and chunks a scan takes, the store hears of
    it once, with the whole page list."""
    monkeypatch.setattr(scan, "BLOCK_PAGES", 2)
    column, fpages, lo, hi = _build(Case(seed=1, polluted=1.0, page_list="unordered"))
    calls = []
    column.file.record_batch_access = lambda pages, cost, lane, kind: calls.append(pages)
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
