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
from repro.substrate import SimulatedSubstrate
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


# -- the page table ----------------------------------------------------------

#: VMAs of the table a 24-run plan goes into, and of the one snapshotted.
PLAN_TABLE_VMAS = 1_000
SNAPSHOT_TABLE_VMAS = 1_300


def _fragmented_book(vmas: int):
    """A simulated substrate whose page table holds ``vmas`` VMAs: one
    reservation with every other page mapped to a file page of its own,
    so no two file pages merge."""
    substrate = SimulatedSubstrate()
    runs = vmas // 2
    file = substrate.create_file("db", 4 * runs)
    base = substrate.reserve(2 * runs)
    vpns = base + np.arange(0, 2 * runs, 2, dtype=np.int64)
    one = np.ones(runs, dtype=np.int64)
    substrate.map_runs(vpns, one, file, 4 * np.arange(runs, dtype=np.int64))
    assert abs(substrate.address_space.num_vmas - vmas) <= 1
    return substrate, file, base


def test_micro_page_table_reserve(benchmark):
    substrate = SimulatedSubstrate()
    # side-by-side reservations merge, so the table does not grow
    benchmark(substrate.reserve, 64)
    assert substrate.address_space.num_vmas == 1


def test_micro_page_table_one_run_plan(benchmark):
    substrate = SimulatedSubstrate()
    file = substrate.create_file("db", 64)
    base = substrate.reserve(64)
    vpns = np.array([base + 8], dtype=np.int64)
    npages = np.array([8], dtype=np.int64)
    file_pages = np.array([3], dtype=np.int64)
    benchmark(substrate.map_runs, vpns, npages, file, file_pages, True)
    assert substrate.address_space.num_vmas == 3


def test_micro_page_table_24_run_plan(benchmark):
    substrate, file, base = _fragmented_book(PLAN_TABLE_VMAS)
    # 24 touching one-page runs in the middle, none file-contiguous
    vpns = base + PLAN_TABLE_VMAS // 2 + np.arange(24, dtype=np.int64)
    npages = np.ones(24, dtype=np.int64)
    file_pages = 3 * np.arange(24, dtype=np.int64) + 1
    benchmark(substrate.map_runs, vpns, npages, file, file_pages, True)
    assert abs(substrate.address_space.num_vmas - PLAN_TABLE_VMAS) <= 2


def test_micro_page_table_maps_snapshot(benchmark):
    substrate, file, _ = _fragmented_book(SNAPSHOT_TABLE_VMAS)
    snapshot = benchmark(substrate.maps_snapshot)
    assert snapshot.lines == SNAPSHOT_TABLE_VMAS // 2
