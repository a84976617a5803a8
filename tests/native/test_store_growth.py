"""A growing native store keeps one whole-file mapping, not one per resize.

``NativePageStore`` maps its file anew on every resize.  It used to keep
every superseded mapping open, so after 20 merges a column held 21
mappings and showed 21 maps lines.  A superseded
mapping is now closed as soon as no numpy array exports it; one that
is still exported (``data`` held across the resize) stays mapped and
coherent until a later resize finds it free.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.native import is_supported
from repro.storage import layout

pytestmark = pytest.mark.skipif(
    not is_supported(), reason="native rewiring unsupported on this platform"
)


@pytest.fixture
def sub():
    from repro.substrate.native import NativeSubstrate

    substrate = NativeSubstrate()
    yield substrate
    substrate.close()


def _maps_lines(path: str) -> int:
    with open("/proc/self/maps") as maps:
        return sum(1 for line in maps if line.rstrip("\n").endswith(path))


def test_growth_with_no_array_held_keeps_one_mapping(sub):
    store = sub.create_file("t.col", 1)
    for pages in range(2, 22):
        store.resize(pages)
    assert len(store._mmaps) == 1
    assert _maps_lines(store.map_path) == 1
    assert store.headers.tolist() == list(range(21))


def test_a_held_array_keeps_its_mapping_until_dropped(sub):
    store = sub.create_file("t.col", 2)
    held = store.data
    store.resize(3)
    assert len(store._mmaps) == 2  # the old mapping is still exported
    assert _maps_lines(store.map_path) == 2
    store.data[1, 4] = 4242
    assert held[1, 4] == 4242  # a shared mapping: the old view reads current bytes
    held[0, 0] = -7
    assert store.data[0, 0] == -7
    del held
    gc.collect()
    store.resize(4)
    assert len(store._mmaps) == 1
    assert _maps_lines(store.map_path) == 1
    assert store.data[1, 4] == 4242 and store.data[0, 0] == -7


def test_merges_into_a_native_column_keep_one_store_mapping():
    per_page = layout.records_per_page()
    db = AdaptiveDatabase(
        config=AdaptiveConfig(background_mapping=False), backend="native"
    )
    try:
        db.create_table("t", {"k": np.arange(per_page)})
        db.query("t", "k", 0, 10)  # a live layer over the column
        for merge in range(20):
            for value in range(per_page):
                db.insert("t", {"k": value})
            db.flush_inserts("t")
        store = db.table("t").column("k").file
        assert store.num_pages == 21
        assert len(store._mmaps) == 1
        # the kernel's lines of the file: the views' (the page table's)
        # and the store's own one
        book = db.substrate.maps_line_count(store.map_path)
        assert _maps_lines(store.map_path) == book + 1
        assert len(db.query("t", "k", 0, 0)) == 21
        audit = db.audit()
        assert audit.ok, audit.render()
    finally:
        db.close()
