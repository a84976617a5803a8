"""A read writes each hit once; a closed database frees its pages at once.

A full-domain read of a 2048-page column returns 16 MiB of rowids and
values.  Every page lies wholly inside the range, so the scan copies
each page's values into the result once and writes its rowids once: the
traced peak of the whole ``db.query`` stays within 1.1x the result's
bytes on both backends.  A 4-shard read adds one gathered copy of the
shards' slices, written once with each shard's row offset: within 2.1x.

A closed database leaves no reference cycle holding its page store, so
with the cyclic collector off the store is freed when the last
reference to the database goes: simulated, native and tiered.  So does
a queried database dropped without ``close()``.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.native import is_supported
from repro.shard.database import ShardedDatabase
from repro.tier import TierConfig
from repro.vm.constants import MAX_VALUE, MIN_VALUE, VALUES_PER_PAGE

BACKENDS = [
    "simulated",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(not is_supported(), reason="native rewiring unsupported"),
    ),
]
CONFIG = AdaptiveConfig(background_mapping=False)


def _values(num_pages: int) -> np.ndarray:
    return np.random.default_rng(0).integers(0, 10**9, size=num_pages * VALUES_PER_PAGE)


def _traced_read(db, values: np.ndarray) -> tuple[int, int]:
    """Traced peak of one full-domain read, and the result's bytes; the
    answer must be every row, in row order."""
    db.query("t", "k", MIN_VALUE, MAX_VALUE)  # warm: views, lazy state
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = db.query("t", "k", MIN_VALUE, MAX_VALUE)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(result.rowids, np.arange(values.size))
    np.testing.assert_array_equal(result.values, values)
    return peak, result.rowids.nbytes + result.values.nbytes


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_full_domain_read_allocates_its_result_once(backend):
    values = _values(2048)
    with AdaptiveDatabase(CONFIG, backend=backend) as db:
        db.create_table("t", {"k": values})
        peak, result = _traced_read(db, values)
    assert peak <= 1.1 * result, (peak / result, backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_sharded_full_domain_read_gathers_once(backend):
    values = _values(2048)
    db = ShardedDatabase(shards=4, config=CONFIG, backend=backend)
    try:
        db.create_table("t", {"k": values})
        peak, result = _traced_read(db, values)
    finally:
        db.close()
    assert peak <= 2.1 * result, (peak / result, backend)


@pytest.mark.parametrize(
    "backend, tiered",
    [
        ("simulated", False),
        pytest.param(
            "native",
            False,
            marks=pytest.mark.skipif(not is_supported(), reason="native rewiring unsupported"),
        ),
        ("simulated", True),
    ],
)
def test_close_frees_the_page_store_without_gc(backend, tiered):
    gc.collect()
    gc.disable()
    try:
        db = AdaptiveDatabase(
            CONFIG,
            backend=backend,
            tiering=TierConfig(hot_budget=8) if tiered else None,
        )
        db.create_table("t", {"k": _values(32)})
        for lo in range(0, 10**9, 10**8):
            db.query("t", "k", lo, lo + 10**7)
        column = db.table("t").column("k")
        freed = [weakref.ref(column.file), weakref.ref(column.file.data)]
        if tiered:
            assert column.tier.demotions > 0  # the hot-page budget did work
            freed += [weakref.ref(column.tier)]
        del column
        db.close()
        del db
        assert [ref() is None for ref in freed] == [True] * len(freed)
    finally:
        gc.enable()


def test_a_dropped_simulated_database_frees_its_pages_without_gc():
    """Deleted without ``close()``, a simulated database frees its store by
    reference counting: a main-memory file holds its machine's page pool,
    not the machine, so files and machine form no cycle."""
    gc.collect()
    gc.disable()
    try:
        db = AdaptiveDatabase(CONFIG)
        db.create_table("t", {"k": _values(32)})
        column = db.table("t").column("k")
        freed = [weakref.ref(column.file), weakref.ref(column.file.data)]
        del column, db
        assert [ref() is None for ref in freed] == [True, True]
    finally:
        gc.enable()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_dropped_queried_database_frees_its_pages_without_gc(backend):
    """A query builds the column's storage layer, whose pre-write hook
    holds the layer's dirty-page set, not the layer: deleted without
    ``close()``, the queried database still frees its store by reference
    counting."""
    gc.collect()
    gc.disable()
    try:
        db = AdaptiveDatabase(CONFIG, backend=backend)
        db.create_table("t", {"k": _values(32)})
        for lo in range(0, 10**9, 10**8):
            db.query("t", "k", lo, lo + 10**7)
        column = db.table("t").column("k")
        assert column._pre_write_hooks  # the layer hooks the column
        freed = [weakref.ref(column.file), weakref.ref(column.file.data)]
        del column, db
        assert [ref() is None for ref in freed] == [True, True]
    finally:
        gc.enable()
