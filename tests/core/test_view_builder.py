"""Every partial view is built in one place, and every build rolls back.

``repro.core.creation.build_view`` reserves a partial view, maps its
pages through ``materialize_pages`` and destroys the view before a
fault surfaces.  Each entry that builds a view — Listing 1's candidate,
the standalone creation, Figure 7's rebuild, the offline advisor, the
virtual-view baseline, checkpoint restore and the quarantine rebuild —
goes through it, so a ``map_fixed`` fault in any of them leaves the
address space, the column file's maps lines and the files as they were
before the call, on either backend.  The entries that build several
views destroy the ones they finished, too, when a later one faults.  The second half pins the one
builder: ``src/`` constructs a partial ``VirtualView`` in one function
and calls ``materialize_pages`` from one place.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.virtual_view_index import VirtualViewIndex
from repro.core import checkpoint
from repro.core.advisor import AdvisedView, ViewAdvisor
from repro.core.creation import create_partial_view
from repro.core.facade import AdaptiveDatabase
from repro.core.maintenance import rebuild_partial_views
from repro.faults import FaultRule, FaultSchedule, FaultySubstrate
from repro.faults.errors import SubstrateFault
from repro.native import is_supported
from repro.resilience.policy import ResilienceConfig
from repro.resilience.quarantine import ViewRebuilder
from repro.substrate import make_substrate
from repro.substrate.native import NativeSubstrate
from repro.vm.constants import VALUES_PER_PAGE

from ..vm.snapshot_oracle import parse_maps

NUM_PAGES = 512
LO, HI = 100, 5000

BACKENDS = [
    "simulated",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not is_supported(), reason="native rewiring unsupported here"
        ),
    ),
]


def _layer(db: AdaptiveDatabase):
    """The column's layer, its full view already mapped."""
    rng = np.random.default_rng(0)
    values = rng.integers(0, 1_000_000, size=NUM_PAGES * VALUES_PER_PAGE)
    db.create_table("t", {"v": values})
    return db.layer("t", "v")


# Each entry sets its stack up fault-free and returns the build to run
# under the armed fault.


def _candidate(db):
    _layer(db)
    return lambda: db.query("t", "v", LO, HI)


def _standalone(db):
    layer = _layer(db)
    full = layer.view_index.full_view
    return lambda: create_partial_view(layer.column, [full], LO, HI)


def _rebuild(db):
    layer = _layer(db)
    full = layer.view_index.full_view
    return lambda: rebuild_partial_views(layer.column, full, [(LO, HI)])


def _advisor(db):
    advisor = ViewAdvisor(_layer(db).column)
    return lambda: advisor.materialize([AdvisedView(LO, HI, 1, 0.0, 0.0)])


def _baseline(db):
    return VirtualViewIndex(_layer(db).column, LO, HI).build


def _restore(db):
    # What ``load_database`` runs per column once its table is back.
    layer = _layer(db)
    return lambda: checkpoint._rebuild_views(layer, [[LO, HI]])


def _quarantine(db):
    layer = _layer(db)
    index = layer.view_index
    index.quarantine_range(LO, HI)
    rebuilder = ViewRebuilder(ResilienceConfig(), layer.column, index)
    return lambda: rebuilder.rebuild_entry(index.quarantine[0])


ENTRIES = {
    "answer_query": _candidate,
    "create_partial_view": _standalone,
    "rebuild_partial_views": _rebuild,
    "advisor_materialize": _advisor,
    "virtual_view_index": _baseline,
    "checkpoint_restore": _restore,
    "quarantine_rebuild": _quarantine,
}


def _vmas(substrate: FaultySubstrate) -> int | tuple[int, int]:
    """The backend's own VMAs: every simulated one; on native, its page
    table's and the /proc/self/maps lines inside the page table's
    areas."""
    inner = substrate.inner
    if not isinstance(inner, NativeSubstrate):
        return inner.maps_line_count()
    book = inner.address_space
    return book.num_vmas, sum(
        1
        for e in parse_maps(inner.maps_text())
        if any(vma.start < e.end_vpn and e.start_vpn < vma.end for vma in book.vmas())
    )


def _footprint(substrate: FaultySubstrate) -> tuple:
    files = substrate.files()
    lines = [substrate.maps_line_count(substrate.file_map_path(f)) for f in files]
    return _vmas(substrate), lines, sorted(f.name for f in files)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_a_faulted_build_leaves_nothing_mapped(entry, backend):
    substrate = FaultySubstrate(make_substrate(backend))
    with AdaptiveDatabase(backend=substrate) as db:
        build = ENTRIES[entry](db)
        before = _footprint(substrate)
        substrate.schedule = FaultSchedule(
            [FaultRule(ops="map_fixed", probability=1.0)]
        )
        try:
            build()
        except SubstrateFault:
            pass
        assert substrate.schedule.journal, "the build mapped nothing"
        substrate.schedule = None
        assert _footprint(substrate) == before


# Two views whose pages are one run each: the second view's first
# map_fixed call is the second of the build.
SORTED_RANGES = [(100, 5000), (9000, 20000)]


def _sorted_layer(db: AdaptiveDatabase):
    db.create_table("t", {"v": np.arange(NUM_PAGES * VALUES_PER_PAGE)})
    return db.layer("t", "v")


def _rebuild_two(db):
    layer = _sorted_layer(db)
    full = layer.view_index.full_view
    return lambda: rebuild_partial_views(layer.column, full, SORTED_RANGES)


def _advise_two(db):
    advisor = ViewAdvisor(_sorted_layer(db).column)
    recommendations = [AdvisedView(lo, hi, 1, 0.0, 0.0) for lo, hi in SORTED_RANGES]
    return lambda: advisor.materialize(recommendations)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "entry",
    [_rebuild_two, _advise_two],
    ids=["rebuild_partial_views", "advisor_materialize"],
)
def test_a_fault_in_a_later_view_unbuilds_the_earlier_ones(entry, backend):
    substrate = FaultySubstrate(make_substrate(backend))
    with AdaptiveDatabase(backend=substrate) as db:
        build = entry(db)
        before = _footprint(substrate)
        substrate.schedule = FaultSchedule([FaultRule(ops="map_fixed", nth=2)])
        with pytest.raises(SubstrateFault):
            build()
        assert [f.call_index for f in substrate.schedule.journal] == [2]
        substrate.schedule = None
        assert _footprint(substrate) == before


# -- one builder --------------------------------------------------------

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class _Calls(ast.NodeVisitor):
    """Each call to ``name``, as the innermost function it is in."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.scope = ["<module>"]
        self.found: list[str] = []

    def visit_FunctionDef(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == self.name:
            self.found.append(self.scope[-1])
        self.generic_visit(node)


def _call_sites(name: str) -> list[tuple[str, str]]:
    """(module, enclosing function) of every call to ``name`` in src/."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        calls = _Calls(name)
        calls.visit(ast.parse(path.read_text()))
        module = path.relative_to(SRC).as_posix()
        sites += [(module, function) for function in calls.found]
    return sites


def test_a_partial_view_is_constructed_in_one_function():
    assert _call_sites("VirtualView") == [("core/creation.py", "build_view")]


def test_materialize_pages_has_one_caller():
    assert _call_sites("materialize_pages") == [("core/creation.py", "build_view")]
