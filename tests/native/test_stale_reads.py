"""Reads that route around pending updates, on the native backend.

The sweep of :mod:`tests.core.test_stale_reads` over real memfd files
and ``mmap(MAP_FIXED)`` rewiring: seeded update/read/flush interleavings
against a numpy mirror with a semantic audit (which parses the kernel's
``/proc/self/maps``) after every flush, plus both planted mid-batch
view cases.  ``REPRO_SEED`` re-seeds the schedules.
"""

import pytest

from repro.native import is_supported
from repro.seeds import derive_seed

from ..core.test_stale_reads import (
    ENGINES,
    planted_extension,
    planted_overwrite,
    run_schedule,
)

pytestmark = pytest.mark.skipif(
    not is_supported(), reason="native rewiring unsupported on this platform"
)

SCHEDULES = 6


@pytest.mark.parametrize("engine", ENGINES)
def test_seeded_interleavings_match_the_mirror(engine):
    stale_reads = 0
    for i in range(SCHEDULES):
        seed = derive_seed(i)
        try:
            stale_reads += run_schedule(engine, seed, backend="native")
        except AssertionError as exc:
            raise AssertionError(f"schedule {i} (seed {seed}): {exc}") from exc
    assert stale_reads > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_planted_mid_batch_views(engine):
    planted_extension(engine, backend="native")
    planted_overwrite(engine, backend="native")
