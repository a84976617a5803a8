"""The row writer lays rows out as the old staging array did, on both
backends, and without a second column-sized allocation.

``layout.write_rows`` is the only code that writes rows into pages: a
column's load (``PhysicalColumn.create``) and every insert merge
(``AdaptiveDatabase._append_to_column``).  The equivalence half compares
it with an in-test copy of the layout it replaced — a zero-filled staging
array of whole pages copied into the store, and the merge's per-row
fancy assignment — byte for byte: data slots, pageID headers and the
zero padding past the last row.  The allocation half pins what the
replacement is for: loading a column allocates nothing beyond the
store's own array.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.native import is_supported
from repro.storage import layout
from repro.storage.column import PhysicalColumn
from repro.substrate import make_substrate

BACKENDS = [
    "simulated",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(not is_supported(), reason="native rewiring unsupported"),
    ),
]
CONFIG = AdaptiveConfig(background_mapping=False)


def _values(count: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(-(2**62), 2**62, size=count)


def _staged_store(substrate, name, values, per_page):
    """The store as the staging layout built it: a zero-filled array of
    whole pages, the values copied in, then copied into the store."""
    num_pages = layout.pages_for_rows(max(values.size, 1), per_page)
    file = substrate.create_file(name, num_pages, slots_per_page=per_page)
    flat = np.zeros(num_pages * per_page, dtype=np.int64)
    flat[: values.size] = values
    file.data[:] = flat.reshape(num_pages, per_page)
    return file


def _fancy_append(file, values, old_rows, new_rows):
    """The merge's write as it was: one row-index array per axis."""
    per_page = file.slots_per_page
    new_pages = layout.pages_for_rows(new_rows, per_page)
    if new_pages > file.num_pages:
        file.resize(new_pages)
    rows = np.arange(old_rows, new_rows)
    file.data[rows // per_page, rows % per_page] = values


def _assert_same_store(file, reference):
    assert file.num_pages == reference.num_pages
    assert np.array_equal(np.asarray(file.headers), np.asarray(reference.headers))
    assert np.array_equal(np.asarray(file.data), np.asarray(reference.data))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("record_bytes", [8, 16])
def test_create_lays_out_what_the_staging_array_did(backend, record_bytes):
    per_page = layout.records_per_page(record_bytes)
    counts = [0, 1, per_page - 1, per_page, per_page + 1, 3 * per_page, 3 * per_page + 7]
    substrate = make_substrate(backend)
    try:
        for count in counts:
            values = _values(count, seed=count)
            column = PhysicalColumn.create(
                substrate, f"c{count}", values, record_bytes=record_bytes
            )
            reference = _staged_store(substrate, f"r{count}", values, per_page)
            _assert_same_store(column.file, reference)
            assert np.array_equal(column.values(), values)
    finally:
        substrate.close()


def test_write_rows_splits_head_whole_pages_and_tail():
    per_page = 5
    for first in range(0, 12):
        for count in range(0, 23):
            pages = layout.pages_for_rows(first + count + 1, per_page) + 1
            data = np.full((pages, per_page), -1, dtype=np.int64)
            want = data.copy().reshape(-1)
            values = np.arange(100, 100 + count, dtype=np.int64)
            want[first : first + count] = values
            layout.write_rows(data, first, values)
            assert np.array_equal(data.reshape(-1), want), (first, count)


@pytest.mark.parametrize("backend", BACKENDS)
def test_merges_lay_out_what_the_fancy_assignment_did(backend):
    """Appends that start mid-page, fill it exactly, and cross several
    page boundaries at once."""
    per_page = layout.records_per_page()
    base = _values(per_page + 100)
    db = AdaptiveDatabase(config=CONFIG, backend=backend)
    try:
        db.create_table("t", {"k": base})
        reference = _staged_store(db.substrate, "reference", base, per_page)
        rows = base.size
        next_value = 0
        for count in [1, per_page - 101, 1, 3 * per_page + 5, per_page, 2]:
            values = np.arange(next_value, next_value + count, dtype=np.int64)
            next_value += count
            for value in values.tolist():
                db.insert("t", {"k": value})
            db.flush_inserts("t")
            _fancy_append(reference, values, rows, rows + count)
            rows += count
            column = db.table("t").column("k")
            assert column.num_rows == rows
            _assert_same_store(column.file, reference)
    finally:
        db.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_snapshot_keeps_the_partial_last_page_an_append_writes(backend):
    per_page = layout.records_per_page()
    base = _values(per_page + 10)
    db = AdaptiveDatabase(config=CONFIG, backend=backend)
    try:
        db.create_table("t", {"k": base})
        column = db.table("t").column("k")
        last_page = np.array(column.file.data[1])  # 10 rows, then zero padding
        snapshot = db.snapshot("t", "k")
        for value in range(20):
            db.insert("t", {"k": value})
        db.flush_inserts("t")
        assert snapshot.copied_pages == 1  # the hook fired once, for page 1
        _, pages = snapshot.substrate.read_mapped(snapshot.base_vpn + 1, 1)
        assert np.array_equal(pages[0], last_page)
        assert np.array_equal(snapshot.values(), base)
        assert np.array_equal(column.values()[base.size :], np.arange(20))
        snapshot.release()
    finally:
        db.close()


def _create_peak(backend: str, num_pages: int = 2048) -> tuple[int, int]:
    """Traced peak while ``PhysicalColumn.create`` loads a column of
    ``num_pages`` full pages, and the store array's own size."""
    values = np.arange(num_pages * layout.records_per_page(), dtype=np.int64)
    substrate = make_substrate(backend)
    try:
        tracemalloc.start()
        try:
            column = PhysicalColumn.create(substrate, "c", values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(column.values(), values)
        return peak, column.file.data.nbytes
    finally:
        substrate.close()


def test_loading_a_simulated_column_allocates_only_its_store():
    peak, store = _create_peak("simulated")
    assert peak <= 1.05 * store


@pytest.mark.skipif(not is_supported(), reason="native rewiring unsupported")
def test_loading_a_native_column_allocates_no_column_sized_array():
    peak, _ = _create_peak("native")
    assert peak < 1 << 20
