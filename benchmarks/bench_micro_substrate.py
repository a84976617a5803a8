"""Micro-benchmarks of the substrate itself (real wall time).

Unlike the figure benchmarks (which report *simulated* time), these
measure the actual Python-level throughput of the hot substrate
operations, so regressions in the simulator's own performance show up
in pytest-benchmark's statistics.
"""

import numpy as np

from repro.core.creation import materialize_pages
from repro.core.scan import batch_scan
from repro.core.view import VirtualView
from repro.bench.harness import fresh_column
from repro.vm.procmaps import render_maps
from repro.workloads.distributions import sine, uniform

PAGES = 2_048


def _column(seed=0):
    return fresh_column(uniform(PAGES, seed=seed))


def test_micro_batch_scan_full_column(benchmark):
    column = _column()
    pages = np.arange(PAGES, dtype=np.int64)

    result = benchmark(batch_scan, column, pages, 0, 1_000_000)
    assert result.pages_scanned == PAGES


def test_micro_batch_scan_scattered(benchmark):
    column = _column()
    rng = np.random.default_rng(1)
    pages = np.sort(rng.choice(PAGES, size=PAGES // 4, replace=False))

    result = benchmark(batch_scan, column, pages, 0, 1_000_000)
    assert result.pages_scanned == PAGES // 4


def test_micro_view_creation_coalesced(benchmark):
    column = fresh_column(sine(PAGES, seed=2))
    qualifying = column.pages_with_values_in(0, 10_000_000)

    def create():
        view = VirtualView(column, 0, 10_000_000)
        materialize_pages(view, qualifying, coalesce=True)
        view.destroy()

    benchmark(create)


def test_micro_single_page_remaps(benchmark):
    column = _column()

    def remap_pages():
        view = VirtualView(column, 0, 1_000_000)
        for fpage in range(0, 256):
            view.add_page(fpage)
        view.destroy()

    benchmark(remap_pages)


def test_micro_maps_render_and_parse(benchmark):
    column = fresh_column(sine(PAGES, seed=3))
    # fragment the address space with a scattered view
    view = VirtualView(column, 0, 2**40)
    for fpage in range(0, PAGES, 3):
        view.add_page(fpage)

    snapshot = benchmark(column.substrate.maps_snapshot)
    assert len(snapshot) > 0


def test_micro_maps_render_only(benchmark):
    column = fresh_column(sine(PAGES, seed=4))
    view = VirtualView(column, 0, 2**40)
    for fpage in range(0, PAGES, 5):
        view.add_page(fpage)

    text = benchmark(render_maps, column.substrate.address_space)
    assert text
