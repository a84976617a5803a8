"""Batch alignment on the real kernel, against the per-pair loop there.

``tests/core/test_alignment_kernel.py`` pins ``align_partial_views`` to
the per-pair oracle on the simulated substrate.  Here the same harness
runs its planted cases on :class:`~repro.substrate.native.NativeSubstrate`:
every plan becomes real ``mmap(MAP_FIXED)`` calls and every snapshot a
parse of the process's ``/proc/self/maps``.  Kernel and oracle must
leave the same page sets, ``MaintenanceStats``, ledger lanes and
counters, fault-plane journal and maps lines on the same backend.  The
stacks always run under :class:`~repro.faults.FaultySubstrate`; the
fault case arms it to fail a ``map_fixed`` inside a plan.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.native import is_supported

from ..core.test_alignment_kernel import (
    EMPTY_RANGE,
    NUM_PAGES,
    ROW,
    Scenario,
    _fill,
    assert_parity,
)

pytestmark = pytest.mark.skipif(
    not is_supported(), reason="native rewiring unsupported on this platform"
)

PLANTED = {
    "all_updates_on_one_page": Scenario(
        ranges=[(1000, 1999), (3000, 3999)],
        batches=[[(3 * ROW + i, 1500) for i in range(40)]],
    ),
    "view_with_no_pages_gains_one": Scenario(
        ranges=[EMPTY_RANGE], batches=[[(5 * ROW, 20_010)]]
    ),
    "add_and_remove_in_the_same_view": Scenario(
        ranges=[(2000, 2999)], batches=[_fill(2, 50) + [(6 * ROW, 2500)]]
    ),
    "removal_frees_the_slot_a_later_add_takes": Scenario(
        ranges=[(1000, 2999), (3000, 3999), (5000, 5999)],
        batches=[
            _fill(1, 50) + [(6 * ROW, 1_500), (2 * ROW + 5, 3_500), (7 * ROW, 5_500)]
        ],
    ),
    "page_shared_by_overlapping_views": Scenario(
        ranges=[(3500, 4500), (4000, 4999), (4200, 5200)], batches=[_fill(4, 50)]
    ),
    "batch_spanning_several_view_blocks": Scenario(
        ranges=[(1000 + 50 * i, 1400 + 50 * i) for i in range(7)],
        batches=[[(p * ROW + p, 1_000 + 100 * p) for p in range(NUM_PAGES)]],
        block_cells=16,
    ),
    "two_batches": Scenario(
        ranges=[(1000, 1999), (5000, 5999)],
        batches=[
            [(3 * ROW, 1_500)],
            [(3 * ROW + 1, 1_600), (4 * ROW, 5_500), (6 * ROW, 42)],
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_case_matches_oracle(name):
    seen = assert_parity(replace(PLANTED[name], backend="native"))
    assert seen[-1]["faults"] == 0
    assert seen[0]["pages_added"] + seen[0]["pages_removed"] > 0


@pytest.mark.parametrize("retry", [False, True])
def test_map_fixed_fault_inside_a_plan(retry):
    """The second add of the batch faults: the first stays mapped, the
    view is dropped (or, with retries, healed) and the other view is
    aligned all the same."""
    writes = [(4 * ROW, 1_100), (5 * ROW, 1_200), (6 * ROW, 1_300)]
    seen = assert_parity(
        Scenario(
            ranges=[(1000, 1999), (1100, 1400)],
            batches=[writes],
            faults=[("map_fixed", 2, None, True)],
            retry=retry,
            backend="native",
        )
    )
    assert [fault[:2] for fault in seen[0]["journal"]] == [("map_fixed", 2)]
    assert seen[0]["dropped_views"] == ([] if retry else [1])
    assert 4 in seen[0]["pages"][2][1]
