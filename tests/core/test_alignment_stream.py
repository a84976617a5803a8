"""Stream parity: a whole read/update session on the kernels and on their oracles.

``test_alignment_kernel.py`` pins single batches on an eight-page column.
This test replays the session shape the ``mixed_updates`` benchmark
runs — a 1 024-page ``sine`` column, 1 % range reads in a shifting
hotspot, and after every tenth read 100 updates and one
``flush_updates`` — once on the production paths and once on the
oracles :func:`tests.oracle_paths.reference_paths` patches in (the
per-pair alignment loop among them), and requires the ledger lanes and
counters to be equal.

Ledger lanes hold whole picoseconds, so the kernel may book a flush's
charges in any order; ``==`` fails only if it books a different
multiset of them — one charge too many, too few, or at the wrong size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import AdaptiveDatabase
from repro.vm.constants import VALUES_PER_PAGE
from repro.workloads.distributions import DEFAULT_DOMAIN, sine
from repro.workloads.queries import shifting_hotspot

from ..oracle_paths import production_paths, reference_paths

NUM_PAGES = 1024
READS = 100
READS_PER_BATCH = 10
UPDATES_PER_BATCH = 100


def _replay(seed: int) -> tuple[dict, dict]:
    """One session; the ledger's lanes and counters at its end."""
    values = sine(NUM_PAGES, seed=seed)
    reads = shifting_hotspot(
        READS, selectivity=0.01, num_phases=5, hotspot_fraction=0.2, seed=seed
    )
    rng = np.random.default_rng([seed, UPDATES_PER_BATCH])
    shape = (READS // READS_PER_BATCH, UPDATES_PER_BATCH)
    rows = rng.integers(0, NUM_PAGES * VALUES_PER_PAGE, size=shape)
    news = rng.integers(*DEFAULT_DOMAIN, size=shape, endpoint=True)
    with AdaptiveDatabase() as db:
        db.create_table("t", {"v": values})
        for i, query in enumerate(reads):
            db.query("t", "v", query.lo, query.hi)
            if (i + 1) % READS_PER_BATCH == 0:
                batch = i // READS_PER_BATCH
                for row, new in zip(rows[batch].tolist(), news[batch].tolist()):
                    db.update("t", "v", row, new)
                db.flush_updates("t", "v")
        ledger = db.cost.ledger
        return ledger.lanes(), ledger.counters()


@pytest.mark.parametrize("seed", range(5))
def test_session_ledger_matches_oracles(seed):
    with reference_paths():
        want_lanes, want_counters = _replay(seed)
    with production_paths():
        lanes, counters = _replay(seed)
    assert counters == want_counters
    assert lanes == want_lanes
    # the session did realign views: pages were added and scanned
    assert counters["pages_mapped"] > 0 and counters["pages_scanned"] > 0
