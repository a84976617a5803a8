"""A discarded candidate is booked, not reserved: no address-space work.

``repro.core.creation.book_discarded`` books a discarded candidate's
reservation, runs and release through one ``Substrate.book_discard``.
Pinned here on each backend, bare and under a fault plane:

* on the simulated backend a discard places no VMA (the address space is
  not spliced, the maps text is unchanged) and moves only the bump
  allocator, by the column's pages, so later views land where they
  would have;
* on the native backend it issues no ``reserve``, ``release_region`` or
  ``map_fixed`` call and holds no region;
* its ledger delta and the observer's mmap/munmap calls are those of
  the same view built by ``build_view`` and torn down by ``destroy``;
* under an armed schedule it consults ``"reserve"`` exactly once, and a
  fault there charges nothing and tells the observer nothing.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.core.creation import BackgroundMapper, book_discarded, build_view
from repro.faults import FaultRule, FaultSchedule, FaultySubstrate
from repro.faults.errors import SubstrateFault
from repro.native import is_supported
from repro.storage.column import PhysicalColumn
from repro.substrate import make_substrate
from repro.vm.constants import VALUES_PER_PAGE

NUM_PAGES = 24
VALUES = np.random.default_rng(0).integers(0, 10**6, NUM_PAGES * VALUES_PER_PAGE)

NATIVE = pytest.mark.skipif(not is_supported(), reason="native rewiring unsupported here")
BACKENDS = ["simulated", pytest.param("native", marks=NATIVE)]
STACKS = ["bare", "faulty"]

#: Candidate page sets: one page, runs in order, and the unsorted list
#: a read makes while an update batch is pending.
PAGE_SETS = [[3], [1, 2, 3, 7, 8, 20], [9, 10, 2, 3, 4, 15, 11]]


class Spy:
    """Records the substrate's mmap/munmap calls in order, and the
    fault plane's faults apart."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []
        self.faults: list[str] = []

    def on_fault(self, op: str, kind: str) -> None:
        self.faults.append(op)

    def on_mmap(self, kind: str, pages: int) -> None:
        self.calls.append(("mmap", kind, pages))

    def on_munmap(self, pages: int) -> None:
        self.calls.append(("munmap", pages))


def open_column(backend: str, stack: str = "bare") -> PhysicalColumn:
    substrate = make_substrate(backend)
    if stack == "faulty":
        substrate = FaultySubstrate(substrate)
    column = PhysicalColumn.create(substrate, "col", VALUES)
    column.substrate.set_observer(Spy())
    return column


def wall_calls(substrate) -> dict[str, int]:
    return {op: substrate.wall.count(op) for op in ("reserve", "release_region", "map_fixed")}


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("pages", PAGE_SETS)
def test_a_simulated_discard_only_moves_the_allocator(pages, stack):
    column = open_column("simulated", stack)
    space = column.substrate.address_space
    vmas, maps, next_vpn = list(space.vmas()), column.substrate.maps_text(), space._next_vpn
    with mock.patch.object(space, "_splice", wraps=space._splice) as splice:
        book_discarded(column, np.array(pages))
    assert splice.call_count == 0
    assert list(space.vmas()) == vmas
    assert column.substrate.maps_text() == maps
    assert space._next_vpn == next_vpn + NUM_PAGES


@NATIVE
@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("pages", PAGE_SETS)
def test_a_native_discard_issues_no_syscall(pages, stack):
    column = open_column("native", stack)
    try:
        substrate = column.substrate
        vmas = list(substrate.address_space.vmas())
        before = wall_calls(substrate)
        book_discarded(column, np.array(pages))
        assert wall_calls(substrate) == before
        assert list(substrate.address_space.vmas()) == vmas
    finally:
        column.substrate.close()


def _life(backend: str, stack: str, pages, background: bool, discard: bool):
    """The ledger delta and the observer's calls of one candidate's life:
    booked as a discard, or built and destroyed."""
    column = open_column(backend, stack)
    mapper = BackgroundMapper(column.cost) if background else None
    try:
        lanes, counters = column.cost.ledger.snapshot_ps()
        pages = np.array(pages)
        if discard:
            book_discarded(column, pages, background=mapper)
        else:
            view, _ = build_view(column, 0, 100, pages, background=mapper)
            view.destroy()
        lanes_end, counters_end = column.cost.ledger.snapshot_ps()
        return (
            {lane: ps - lanes.get(lane, 0) for lane, ps in lanes_end.items()},
            {name: n - counters.get(name, 0) for name, n in counters_end.items()},
            column.substrate.observer.calls,
        )
    finally:
        if mapper is not None:
            mapper.stop()
        column.substrate.close()


@pytest.mark.parametrize("background", [False, True])
@pytest.mark.parametrize("pages", PAGE_SETS)
@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_discard_books_what_build_and_destroy_do(backend, stack, pages, background):
    args = (backend, stack, pages, background)
    booked = _life(*args, discard=True)
    built = _life(*args, discard=False)
    assert booked == built
    lanes, counters, calls = booked
    assert counters["mmap_calls"] > 0 and counters["munmap_calls"] == 1
    assert calls[0] == ("mmap", "anon", NUM_PAGES)
    assert calls[-1] == ("munmap", len(pages))


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_armed_discard_consults_reserve_once(backend):
    column = open_column(backend, "faulty")
    try:
        schedule = FaultSchedule([FaultRule(ops=("reserve", "map_fixed"), probability=0.0)])
        column.substrate.schedule = schedule
        book_discarded(column, np.array(PAGE_SETS[1]))
        assert schedule.counters == {"reserve": 1}
    finally:
        column.substrate.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_fault_at_the_booked_reservation_charges_nothing(backend):
    column = open_column(backend, "faulty")
    try:
        substrate = column.substrate
        snapshot = column.cost.ledger.snapshot_ps()
        allocator = substrate.address_space
        next_vpn, vmas = allocator._next_vpn, list(allocator.vmas())
        substrate.schedule = FaultSchedule.nth_call("reserve", 1)
        with pytest.raises(SubstrateFault) as raised:
            book_discarded(column, np.array(PAGE_SETS[1]))
        assert raised.value.op == "reserve"
        assert column.cost.ledger.snapshot_ps() == snapshot
        assert substrate.observer.calls == []
        assert substrate.observer.faults == ["reserve"]
        assert allocator._next_vpn == next_vpn
        assert list(allocator.vmas()) == vmas
    finally:
        column.substrate.close()
