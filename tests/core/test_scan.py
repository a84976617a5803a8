"""Unit and property tests for the vectorized batch scan."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scan import BLOCK_PAGES, NO_ABOVE, NO_BELOW, batch_scan
from repro.vm.constants import MAX_VALUE, MIN_VALUE, VALUES_PER_PAGE
from repro.workloads.distributions import DISTRIBUTIONS, sine

from ..conftest import build_column
from ..oracle_paths import production_paths, reference_paths


class TestBatchScan:
    def test_empty_page_list(self, small_column):
        result = batch_scan(small_column, np.array([], dtype=np.int64), 0, 10)
        assert result.pages_scanned == 0
        assert result.rowids.size == 0
        assert result.qualifying_fpages.size == 0

    def test_matches_reference(self, small_column):
        lo, hi = 100_000, 200_000
        pages = np.arange(small_column.num_pages)
        result = batch_scan(small_column, pages, lo, hi)
        values = small_column.values()
        expected = np.nonzero((values >= lo) & (values <= hi))[0]
        assert np.array_equal(np.sort(result.rowids), expected)

    def test_subset_of_pages(self, small_column):
        pages = np.array([3, 7, 11])
        result = batch_scan(small_column, pages, 0, 10**9)
        assert result.pages_scanned == 3
        rows_per_page = VALUES_PER_PAGE
        expected_rows = set()
        for p in pages.tolist():
            expected_rows.update(range(p * rows_per_page, (p + 1) * rows_per_page))
        assert set(result.rowids.tolist()) == expected_rows

    def test_scan_order_preserved(self, small_column):
        pages = np.array([9, 2, 5])
        result = batch_scan(small_column, pages, 0, 10**9)
        assert result.fpages.tolist() == [9, 2, 5]
        assert result.qualifying_fpages.tolist() == [9, 2, 5]

    def test_per_page_evidence(self):
        values = np.concatenate(
            [
                np.full(VALUES_PER_PAGE, 10),   # page 0: all below
                np.full(VALUES_PER_PAGE, 50),   # page 1: all inside
                np.full(VALUES_PER_PAGE, 90),   # page 2: all above
            ]
        )
        col = build_column(values)
        result = batch_scan(col, np.arange(3), 40, 60)
        assert result.page_qualifies.tolist() == [False, True, False]
        assert result.max_below[0] == 10
        assert result.min_above[0] == NO_ABOVE
        assert result.max_below[2] == NO_BELOW
        assert result.min_above[2] == 90

    def test_partial_last_page(self):
        values = np.full(VALUES_PER_PAGE + 7, 5)
        col = build_column(values)
        result = batch_scan(col, np.arange(2), 5, 5)
        assert result.rowids.size == values.size
        # the padding zeros must not show up as below-range evidence
        assert result.max_below[1] == NO_BELOW

    def test_padding_does_not_match_zero_query(self):
        values = np.full(VALUES_PER_PAGE + 7, 5)
        col = build_column(values)
        result = batch_scan(col, np.arange(2), 0, 0)
        assert result.rowids.size == 0

    def test_padding_is_no_evidence_on_a_straddling_page(self):
        # the last page holds -100 and 50 beside 509 padding zeros
        values = np.concatenate([np.full(VALUES_PER_PAGE, 5), [-100, 50]])
        col = build_column(values)
        for lo, hi in [(10, 20), (-20, -10)]:
            result = batch_scan(col, np.arange(2), lo, hi)
            assert not result.page_qualifies[1]
            assert result.max_below[1] == -100
            assert result.min_above[1] == 50

    def test_charges_per_page(self, small_column):
        cost = small_column.mapper.cost
        before = cost.ledger.counter("pages_scanned")
        batch_scan(small_column, np.arange(5), 0, 10, access_kind="random")
        assert cost.ledger.counter("pages_scanned") == before + 5

    def test_charge_flag(self, small_column):
        cost = small_column.mapper.cost
        before = cost.ledger.lane_ns()
        batch_scan(small_column, np.arange(5), 0, 10, charge=False)
        assert cost.ledger.lane_ns() == before

    def test_contiguous_fast_path_equals_gather(self, small_column):
        contiguous = batch_scan(small_column, np.arange(4, 12), 0, 500_000)
        gathered = batch_scan(
            small_column, np.array([4, 5, 6, 7, 8, 9, 10, 11]), 0, 500_000
        )
        assert np.array_equal(np.sort(contiguous.rowids), np.sort(gathered.rowids))
        assert contiguous.page_qualifies.tolist() == gathered.page_qualifies.tolist()

    def test_clamps_oversized_range(self, small_column):
        result = batch_scan(small_column, np.arange(2), -(2**70), 2**70)
        assert result.rowids.size == 2 * VALUES_PER_PAGE


def test_blocks_and_partial_last_page_match_reference():
    """A scan longer than two kernel blocks, unordered, with the partial
    last page in the middle of the list, equals the reference branch."""
    num_pages = 2 * BLOCK_PAGES + 40
    values = sine(num_pages, seed=3)[: -(VALUES_PER_PAGE - 9)]
    fpages = np.random.default_rng(0).permutation(num_pages)
    results = []
    for ctx in (reference_paths, production_paths):
        with ctx():
            results.append(
                batch_scan(build_column(values), fpages, 20_000_000, 60_000_000)
            )
    reference, fast = results
    assert 0 < reference.page_qualifies.sum() < num_pages
    for name in ("rowids", "values", "page_qualifies", "max_below", "min_above"):
        np.testing.assert_array_equal(
            getattr(fast, name), getattr(reference, name)
        )


#: A small value domain, so that narrow ranges fall between the values
#: of a page (a straddling page without a hit) as often as on them, and
#: one around zero, so that the padding of a partial page would count as
#: a hit, as evidence on either side or as part of the page's extent.
_DOMAIN = (-2_500, 2_500)
_PAGES = 7
_BOUND = st.one_of(
    st.integers(_DOMAIN[0] - 10, _DOMAIN[1] + 10),
    st.sampled_from([MIN_VALUE - 1, MIN_VALUE, MIN_VALUE + 1]),
    st.sampled_from([MAX_VALUE - 1, MAX_VALUE, MAX_VALUE + 1]),
)
_RANGE = st.one_of(
    st.tuples(_BOUND, _BOUND).map(sorted),
    # A few values wide: most pages straddle it, many without a hit.
    st.tuples(st.integers(*_DOMAIN), st.integers(0, 3)).map(
        lambda r: (r[0], r[0] + r[1])
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    dist_name=st.sampled_from(["uniform", "sine", "linear", "sparse"]),
    seed=st.integers(0, 1000),
    dropped=st.integers(0, VALUES_PER_PAGE - 1),
    planted=st.lists(
        st.tuples(
            st.integers(0, _PAGES * VALUES_PER_PAGE - 1),
            st.sampled_from([MIN_VALUE, MAX_VALUE]),
        ),
        max_size=3,
    ),
    query=_RANGE,
    fpages=st.lists(st.integers(0, _PAGES - 1), max_size=_PAGES, unique=True),
)
def test_batch_scan_equals_per_page_scan(
    dist_name, seed, dropped, planted, query, fpages
):
    """Both branches agree with page-by-page ``scan_and_filter``.

    Hits and ``page_qualifies`` are exact for every page; the evidence
    is exact for every non-qualifying page and the sentinels on every
    qualifying one; the two branches charge identical ledgers.
    """
    values = DISTRIBUTIONS[dist_name](_PAGES, *_DOMAIN, seed=seed)
    for position, value in planted:
        values[position] = value
    values = values[: values.size - dropped]
    lo, hi = query

    ledgers = []
    for ctx in (reference_paths, production_paths):
        col = build_column(values)
        with ctx():
            result = batch_scan(col, np.array(fpages, dtype=np.int64), lo, hi)
        ledger = col.mapper.cost.ledger
        ledgers.append((ledger.lanes(), ledger.counters()))

        rowids, hits = [], []
        for i, p in enumerate(fpages):
            single = col.scan_page(p, lo, hi, charge=False)
            rowids.extend(single.rowids.tolist())
            hits.extend(single.values.tolist())
            assert bool(result.page_qualifies[i]) == (not single.empty)
            below, above = NO_BELOW, NO_ABOVE
            if single.empty:
                if single.max_below is not None:
                    below = single.max_below
                if single.min_above is not None:
                    above = single.min_above
            assert result.max_below[i] == below
            assert result.min_above[i] == above
        assert result.rowids.tolist() == rowids
        assert result.values.tolist() == hits
    assert ledgers[0] == ledgers[1]
