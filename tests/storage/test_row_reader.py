"""Reading a column's rows back in place: one copy, or none.

The native store's ``data`` is a strided view over the file mapping
(each 4 KiB page is an 8 B pageID header, then the slots), so
``data.reshape(-1)`` of it is a whole copy of the column.
``PhysicalColumn.values`` must make exactly one copy, and the sharded
router's live range (``shard.column._live_range``, run at every sharded
``flush_updates`` and audit) must copy nothing.  Both read through
``layout.split_rows``; the ``tracemalloc`` guards pin the allocations,
and the parity cases pin the rows read on both page layouts and for
partial last pages.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.native import is_supported
from repro.shard import ShardedDatabase
from repro.shard.column import _live_range
from repro.storage import layout
from repro.storage.column import PhysicalColumn
from repro.substrate import make_substrate

PER_PAGE = layout.records_per_page()
BACKENDS = [
    "simulated",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(not is_supported(), reason="native rewiring unsupported"),
    ),
]
native_only = pytest.mark.skipif(not is_supported(), reason="native rewiring unsupported")


def _values(count: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(-(2**62), 2**62, size=count)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "rows", [1, PER_PAGE - 1, PER_PAGE, PER_PAGE + 1, 3 * PER_PAGE + 7]
)
def test_values_and_split_rows_read_the_rows(backend, rows):
    values = _values(rows)
    substrate = make_substrate(backend)
    try:
        column = PhysicalColumn.create(substrate, "c", values)
        got = column.values()
        assert got.dtype == np.int64 and got.flags.c_contiguous
        np.testing.assert_array_equal(got, values)
        whole, tail = layout.split_rows(column.file.data, rows)
        np.testing.assert_array_equal(
            np.concatenate([whole.reshape(-1), tail]), values
        )
        assert np.shares_memory(whole, column.file.data) or whole.size == 0
        assert np.shares_memory(tail, column.file.data) or tail.size == 0
    finally:
        substrate.close()


def _values_peak(backend: str, num_pages: int = 2048) -> tuple[int, int]:
    """Traced peak of one ``values()`` of a full column, and its size."""
    values = _values(num_pages * PER_PAGE)
    substrate = make_substrate(backend)
    try:
        column = PhysicalColumn.create(substrate, "c", values)
        tracemalloc.start()
        try:
            got = column.values()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got, values)
        return peak, got.nbytes
    finally:
        substrate.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_values_makes_one_copy(backend):
    peak, size = _values_peak(backend)
    assert peak <= 1.05 * size


@native_only
@pytest.mark.parametrize("rows", [4 * PER_PAGE, 2048 * PER_PAGE + 17])
def test_live_range_reads_the_slice_in_place(rows):
    """The router's live range allocates nothing slice-sized (a slice
    of the larger column is 4 MiB) on the strided native layout, and is
    exact, partial last page included."""
    values = _values(rows, seed=1)
    with ShardedDatabase(
        shards=2, backend="native", config=AdaptiveConfig(background_mapping=False)
    ) as db:
        db.create_table("t", {"x": values})
        for shard in db.column("t", "x").shards:
            slice_values = shard.column.values()
            tracemalloc.start()
            try:
                got = _live_range(shard)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert got == (int(slice_values.min()), int(slice_values.max()))
            assert peak < 1 << 20
