"""Answers come from the mappings: a view or a snapshot is read through
its own virtual memory.

A query's view hit and a snapshot's reads go through
``Substrate.read_mapped``, so what the rewired mapping holds is the
answer.  Each test plants a mapping bug behind the catalog's back — a
view slot pointed at the wrong file page, a snapshot page rewired onto
the wrong copy — and requires the answer to come out wrong, as the
oracle (the column's values) sees it, with the auditor off.  A read
that bypassed the mapping would answer correctly and fail these tests.
Both backends; the native one skips where rewiring is unsupported.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.core.scan import batch_scan
from repro.native import is_supported
from repro.vm.constants import VALUES_PER_PAGE

BACKENDS = [
    "simulated",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(not is_supported(), reason="native rewiring unsupported"),
    ),
]

#: A clustered column: page p holds the values of rows p * 511 ...
VALUES = np.arange(64 * VALUES_PER_PAGE, dtype=np.int64)
LO, HI = 10 * VALUES_PER_PAGE + 5, 14 * VALUES_PER_PAGE - 5


def _oracle(lo: int, hi: int) -> np.ndarray:
    return np.flatnonzero((VALUES >= lo) & (VALUES <= hi))


def _db(backend: str) -> AdaptiveDatabase:
    db = AdaptiveDatabase(AdaptiveConfig(background_mapping=False), backend=backend)
    db.create_table("t", {"v": VALUES})
    return db


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_view_slot_on_the_wrong_page_changes_the_answer(backend):
    with _db(backend) as db:
        db.query("t", "v", LO, HI)  # the full view answers; a view is kept
        [view] = db.layer("t", "v").view_index.partial_views
        hit = db.query("t", "v", LO, HI)  # the view answers
        assert hit.stats.views_used == 1
        assert np.array_equal(np.sort(hit.rowids), _oracle(LO, HI))
        column = db.table("t").column("v")
        fpage = int(view.mapped_fpages()[1])
        # the planted bug: one slot now maps a page outside the view
        db.substrate.map_fixed(view.vpn_of(fpage), 1, column.file, 40)
        result = db.query("t", "v", LO, HI)
        assert result.stats.views_used == 1
        assert not np.array_equal(np.sort(result.rowids), _oracle(LO, HI))
        # the page's rows are gone from the answer
        rows = np.arange(fpage * VALUES_PER_PAGE, (fpage + 1) * VALUES_PER_PAGE)
        assert not np.isin(rows, result.rowids).any()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_snapshot_page_on_the_wrong_copy_changes_its_reads(backend):
    with _db(backend) as db:
        snap = db.snapshot("t", "v")
        a, b = 11, 12  # two pages preserved copy-on-write: copies 0 and 1
        db.update("t", "v", a * VALUES_PER_PAGE, -1)
        db.update("t", "v", b * VALUES_PER_PAGE, -1)
        assert snap.copied_pages == 2
        rowids, _ = snap.scan(LO, HI)
        assert np.array_equal(rowids, _oracle(LO, HI))
        copies = db.substrate.get_file(f"{snap.column.file.name}.snap{snap.snapshot_id}")
        # the planted bug: page a's rewire points at page b's copy
        db.substrate.map_fixed(snap.base_vpn + a, 1, copies, 1)
        rowids, values = snap.scan(LO, HI)
        assert not np.array_equal(rowids, _oracle(LO, HI))
        assert not np.array_equal(snap.values(), VALUES)
        assert snap.read(a * VALUES_PER_PAGE) == b * VALUES_PER_PAGE


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_read_is_read_only_and_the_kernel_scans_it_in_place(backend):
    with _db(backend) as db:
        column = db.table("t").column("v")
        full = db.layer("t", "v").view_index.full_view
        fpages, rows = db.substrate.read_mapped(full.base_vpn, full.capacity)
        assert not fpages.flags.writeable and not rows.flags.writeable
        assert np.array_equal(fpages, np.arange(column.num_pages))
        assert np.array_equal(rows, column.file.data)
        result = batch_scan(column, fpages, LO, HI, rows=rows, charge=False)
        assert np.array_equal(result.rowids, _oracle(LO, HI))
        assert np.array_equal(result.values, VALUES[_oracle(LO, HI)])
