"""Sim-vs-native behavioural parity: one workload, both kernels.

The same column and the same seeded query/update sequence run once on
the simulated substrate and once on the real Linux kernel.  The two
backends must agree on everything observable above the substrate line:
query results, the page sets each partial view maps, and the number of
maps lines the column's views occupy (kernel VMA merging must match the
simulator's VMA merging).  Simulated time is *not* compared to wall
time — the ledgers measure different clocks by design.
"""

import numpy as np
import pytest

from repro import AdaptiveConfig, AdaptiveDatabase
from repro.native import is_supported

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
        """Kernel VMA merging agrees with the simulator's merging."""
        sim, native = sessions
        assert sim["maps_lines"] == native["maps_lines"]
        assert sim["maps_lines"] > 0

    def test_audit_reports_identical(self, sessions):
        """The invariant auditor sees the same structure on both
        backends: view page sets, mapped-region counts, no findings.

        The audits are not literally the same checks — the simulated
        backend adds a page-table cross-check the native one answers
        through the kernel — so only the backend-neutral summary keys
        that must agree are compared.
        """
        sim, native = sessions
        assert sim["audit"]["findings"] == []
        assert native["audit"]["findings"] == []
        for key in ("views", "maps_regions", "mapped_pages"):
            assert sim["audit"][key] == native["audit"][key], key
        assert sim["audit"]["views"]  # non-trivial structure compared
