"""Sim-vs-native parity: one workload, both kernels.

The same column and the same seeded query/update sequence run once on
the simulated substrate and once on the real Linux kernel.  The two
backends must agree on everything observable above the substrate line:
query results, the page sets each partial view maps, and the number of
maps lines the column's views occupy (kernel VMA merging must match the
simulator's VMA merging).

The differential goes further: the simulated ledger a session charges —
every lane and every counter — is ``==`` across the backends, on the
mixed query/update/flush stream (seeded by ``REPRO_SEED``) and on
Figure 7.  Both backends charge a flush's maps parse for the page
table's lines, so the native ledger no longer depends on what else the
process maps.  Wall time is not compared: it is a different clock.
"""

import gc
from unittest import mock

import numpy as np
import pytest

from repro import AdaptiveConfig, AdaptiveDatabase
from repro.bench import fig7
from repro.native import is_supported
from repro.seeds import base_seed
from repro.storage.column import PhysicalColumn
from repro.substrate import SimulatedSubstrate
from repro.substrate.native import NativeSubstrate
from repro.vm.constants import VALUES_PER_PAGE
from repro.vm.cost import CostModel
from repro.vm.physical import PhysicalMemory
from repro.workloads.distributions import DEFAULT_DOMAIN, sine
from repro.workloads.queries import shifting_hotspot

from ..vm.snapshot_oracle import parse_maps

pytestmark = pytest.mark.skipif(
    not is_supported(), reason="native rewiring unsupported on this platform"
)

NUM_ROWS = 12_000
VALUE_RANGE = 1_000_000
NUM_QUERIES = 24
NUM_UPDATES = 40


def _values() -> np.ndarray:
    return np.random.default_rng(7).integers(
        0, VALUE_RANGE, NUM_ROWS, dtype=np.int64
    )


def _queries() -> list[tuple[int, int]]:
    rng = np.random.default_rng(11)
    spans = rng.integers(1_000, 60_000, NUM_QUERIES)
    los = rng.integers(0, VALUE_RANGE - spans.max(), NUM_QUERIES)
    return [(int(lo), int(lo + span)) for lo, span in zip(los, spans)]


def _run_session(backend: str) -> dict:
    """One adaptive session; returns everything parity must cover."""
    # A store of another test's database that a reference cycle still
    # holds keeps its whole-file mapping until a cyclic GC pass, and that
    # mapping's maps line carries this session's pathname too.
    gc.collect()
    trace: dict = {"results": [], "view_pages": [], "maps_lines": []}
    with AdaptiveDatabase(
        config=AdaptiveConfig(background_mapping=False), backend=backend
    ) as db:
        db.create_table("t", {"x": _values()})
        column = db.table("t").column("x")
        substrate = db.substrate
        path = substrate.file_map_path(column.file)

        queries = _queries()
        midpoint = NUM_QUERIES // 2
        for i, (lo, hi) in enumerate(queries):
            result = db.query("t", "x", lo, hi)
            order = np.argsort(result.rowids, kind="stable")
            trace["results"].append(
                (
                    result.rowids[order].tolist(),
                    result.values[order].tolist(),
                )
            )
            if i == midpoint:
                rng = np.random.default_rng(13)
                rows = rng.integers(0, NUM_ROWS, NUM_UPDATES)
                vals = rng.integers(0, VALUE_RANGE, NUM_UPDATES)
                for row, val in zip(rows.tolist(), vals.tolist()):
                    db.update("t", "x", row, int(val))
                db.flush_updates("t", "x")

        index = db.layer("t", "x").view_index
        for view in index.partial_views:
            trace["view_pages"].append(
                ((view.lo, view.hi), sorted(view.mapped_fpages().tolist()))
            )
        trace["view_pages"].sort()
        trace["maps_lines"] = substrate.maps_line_count(path)
        # what the maps source itself shows, less the store's own
        # whole-file mappings (native only)
        own = len(getattr(column.file, "_mmaps", ()))
        trace["source_lines"] = sum(
            1 for e in parse_maps(substrate.maps_text()) if e.pathname == path
        ) - own
        report = db.audit()
        assert report.ok, report.render()
        trace["audit"] = report.summary()
    return trace


@pytest.fixture(scope="module")
def sessions():
    return _run_session("simulated"), _run_session("native")


class TestParity:
    def test_query_results_identical(self, sessions):
        sim, native = sessions
        assert len(sim["results"]) == NUM_QUERIES
        for i, (sim_r, nat_r) in enumerate(
            zip(sim["results"], native["results"])
        ):
            assert sim_r == nat_r, f"query {i} diverged"

    def test_results_match_ground_truth(self, sessions):
        sim, _ = sessions
        values = _values()
        lo, hi = _queries()[0]
        expected = np.sort(np.where((values >= lo) & (values <= hi))[0])
        assert sim["results"][0][0] == expected.tolist()

    def test_partial_views_map_identical_pages(self, sessions):
        sim, native = sessions
        assert sim["view_pages"] == native["view_pages"]
        assert sim["view_pages"]  # the workload must actually build views

    def test_maps_line_counts_identical(self, sessions):
        """Kernel VMA merging agrees with the simulator's merging: the
        page tables count as many lines on both backends, and so do the
        maps sources, the kernel's own file on native."""
        sim, native = sessions
        assert sim["maps_lines"] == native["maps_lines"]
        assert sim["source_lines"] == native["source_lines"] == sim["maps_lines"]
        assert sim["maps_lines"] > 0

    def test_audit_reports_identical(self, sessions):
        """The invariant auditor sees the same structure on both
        backends: view page sets, mapped-region counts, no findings —
        and runs the same checks, the page-table cross-check included,
        as both backends keep one page table.
        """
        sim, native = sessions
        assert sim["audit"]["findings"] == []
        assert native["audit"]["findings"] == []
        for key in ("views", "maps_regions", "mapped_pages", "checks"):
            assert sim["audit"][key] == native["audit"][key], key
        assert sim["audit"]["views"]  # non-trivial structure compared


# -- the differential: every ledger lane and counter, both backends ---------

MIXED_PAGES = 256
MIXED_READS = 60
READS_PER_BATCH = 10
UPDATES_PER_BATCH = 100


def _mixed_stream(backend: str, seed: int) -> tuple[dict, dict]:
    """The ``mixed_updates`` session shape: 1 % range reads in a shifting
    hotspot, and after every tenth read 100 updates and one flush.  The
    ledger's lanes and counters at its end."""
    values = sine(MIXED_PAGES, seed=seed)
    reads = shifting_hotspot(
        MIXED_READS, selectivity=0.01, num_phases=3, hotspot_fraction=0.2, seed=seed
    )
    rng = np.random.default_rng([seed, UPDATES_PER_BATCH])
    shape = (MIXED_READS // READS_PER_BATCH, UPDATES_PER_BATCH)
    rows = rng.integers(0, MIXED_PAGES * VALUES_PER_PAGE, size=shape)
    news = rng.integers(*DEFAULT_DOMAIN, size=shape, endpoint=True)
    with AdaptiveDatabase(backend=backend) as db:
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


def test_the_mixed_stream_charges_the_same_ledger_on_both_backends():
    seed = base_seed()
    lanes, counters = _mixed_stream("native", seed)
    want_lanes, want_counters = _mixed_stream("simulated", seed)
    assert counters == want_counters, f"REPRO_SEED={seed}"
    assert lanes == want_lanes, f"REPRO_SEED={seed}"
    assert counters["maps_lines_parsed"] > 0 and counters["pages_mapped"] > 0


def _fig7(backend: str) -> tuple[fig7.Fig7Result, list]:
    """Figure 7 at 512 pages, every column on ``backend``; the result and
    each column's ledger."""
    columns = []

    def fresh_column(values, name="col", record_bytes=8):
        cost = CostModel()
        if backend == "native":
            substrate = NativeSubstrate(cost=cost)
        else:
            substrate = SimulatedSubstrate(memory=PhysicalMemory(cost=cost))
        column = PhysicalColumn.create(substrate, name, values, record_bytes=record_bytes)
        columns.append(column)
        return column

    try:
        with mock.patch.object(fig7, "fresh_column", fresh_column):
            result = fig7.run_fig7(num_pages=512, batch_sizes=[10, 100])
        ledgers = [
            (c.cost.ledger.lanes(), c.cost.ledger.counters()) for c in columns
        ]
    finally:
        for column in columns:
            column.substrate.close()
    return result, ledgers


def test_fig7_charges_the_same_ledgers_on_both_backends():
    native, native_ledgers = _fig7("native")
    simulated, simulated_ledgers = _fig7("simulated")
    assert native_ledgers == simulated_ledgers
    assert native.points == simulated.points
    assert all(p.maps_lines > 0 for p in native.points)
