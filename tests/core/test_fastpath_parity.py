"""Property tests: the fast paths are observably identical to the
reference paths.

The fast paths only change *wall-clock* behaviour; every simulated
observable — query results, cost-ledger lane totals and operation
counters, and the maps-file line count — must be bit-identical to the
per-page reference implementation.  These tests run the same randomized
workload on two fresh stacks, one on the production paths and one on
the oracles :func:`tests.oracle_paths.reference_paths` patches in, and
compare everything.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import fresh_column, make_update_batch
from repro.core.adaptive import AdaptiveStorageLayer
from repro.core.config import AdaptiveConfig, RoutingMode
from repro.core.scan import batch_scan
from repro.vm.constants import VALUES_PER_PAGE
from repro.vm.procmaps import maps_line_count
from repro.workloads.distributions import linear, sine, sparse, uniform

from ..oracle_paths import production_paths, reference_paths


DISTRIBUTIONS = {
    "uniform": uniform,
    "sine": sine,
    "linear": linear,
    "sparse": sparse,
}

#: Small column: 24 pages keeps each example fast while still exercising
#: multi-run coalescing, view replacement and page add/remove.
NUM_PAGES = 24

DOMAIN = (0, 100_000_000)

# One workload step: a range query, or an update batch followed by view
# alignment ("flush" of the pending updates into the partial views).
_STEP = st.one_of(
    st.tuples(
        st.just("query"),
        st.integers(DOMAIN[0], DOMAIN[1]),
        st.integers(DOMAIN[0], DOMAIN[1]),
    ),
    st.tuples(
        st.just("update"),
        st.integers(1, 40),
        st.integers(0, 2**16),
    ),
)


def _run_workload(dist_name: str, mode: RoutingMode, steps) -> dict:
    """Run one workload on a fresh stack; returns every observable."""
    values = DISTRIBUTIONS[dist_name](NUM_PAGES, seed=11)
    column = fresh_column(values, name="parity")
    config = AdaptiveConfig(mode=mode, max_views=4)
    layer = AdaptiveStorageLayer(column, config)
    queries = []
    maintenance = []
    for step in steps:
        if step[0] == "query":
            lo, hi = min(step[1], step[2]), max(step[1], step[2])
            result = layer.answer_query(lo, hi)
            queries.append(
                (
                    result.rowids.tolist(),
                    result.values.tolist(),
                    result.stats,
                )
            )
        else:
            _, count, seed = step
            batch = make_update_batch(column, count, *DOMAIN, seed=seed)
            stats = layer.apply_updates(batch)
            maintenance.append(stats)
    ledger = column.cost.ledger
    return {
        "queries": queries,
        "maintenance": maintenance,
        "lanes": ledger.lanes(),
        "counters": ledger.counters(),
        "maps_lines": maps_line_count(column.substrate.mapper.address_space),
    }


@pytest.mark.parametrize("dist_name", sorted(DISTRIBUTIONS))
@settings(max_examples=20, deadline=None)
@given(
    steps=st.lists(_STEP, max_size=8),
    mode=st.sampled_from(list(RoutingMode)),
)
def test_fast_paths_match_reference(dist_name, steps, mode):
    with reference_paths():
        reference = _run_workload(dist_name, mode, steps)
    with production_paths():
        fast = _run_workload(dist_name, mode, steps)

    assert fast["queries"] == reference["queries"]
    assert fast["maintenance"] == reference["maintenance"]
    assert fast["lanes"] == reference["lanes"]
    assert fast["counters"] == reference["counters"]
    assert fast["maps_lines"] == reference["maps_lines"]


@pytest.mark.parametrize("dist_name", sorted(DISTRIBUTIONS))
@settings(max_examples=20, deadline=None)
@given(
    lo=st.integers(DOMAIN[0], DOMAIN[1]),
    width=st.integers(0, DOMAIN[1]),
    dropped=st.integers(0, VALUES_PER_PAGE - 1),
    data=st.data(),
)
def test_batch_scan_results_identical(dist_name, lo, width, dropped, data):
    """Direct scan parity: identical ``BatchScanResult`` field by field,
    evidence sentinels on qualifying pages included, in both branches."""
    hi = min(lo + width, DOMAIN[1])
    values = DISTRIBUTIONS[dist_name](NUM_PAGES, seed=5)
    values = values[: values.size - dropped]  # a partial last page
    fpages = data.draw(
        st.lists(
            st.integers(0, NUM_PAGES - 1), max_size=NUM_PAGES, unique=True
        )
    )

    results = []
    ledgers = []
    for ctx in (reference_paths, production_paths):
        with ctx():
            column = fresh_column(values, name="scanparity")
            results.append(batch_scan(column, np.asarray(fpages), lo, hi))
            ledgers.append(column.cost.ledger)

    reference, fast = results
    for field in (
        "fpages",
        "rowids",
        "values",
        "page_qualifies",
        "max_below",
        "min_above",
    ):
        np.testing.assert_array_equal(
            getattr(fast, field), getattr(reference, field)
        )
    assert ledgers[1].lanes() == ledgers[0].lanes()
    assert ledgers[1].counters() == ledgers[0].counters()


def test_background_mapping_parity():
    """Lane totals agree even when mapping runs on the real thread."""
    values = sine(NUM_PAGES, seed=3)
    observed = {}
    for name, ctx in (
        ("reference", reference_paths),
        ("fast", production_paths),
    ):
        with ctx():
            column = fresh_column(values, name="bg")
            config = AdaptiveConfig(background_mapping=True, max_views=4)
            with AdaptiveStorageLayer(column, config) as layer:
                totals = 0
                for lo, hi in [(0, 10_000_000), (5_000_000, 60_000_000)]:
                    totals += len(layer.answer_query(lo, hi))
            ledger = column.cost.ledger
            observed[name] = (totals, ledger.lanes(), ledger.counters())
    assert observed["fast"] == observed["reference"]
