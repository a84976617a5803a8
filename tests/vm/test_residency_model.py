"""Interval residency against the plain set it replaced.

``AddressSpace`` keeps the resident (touched-since-mapped) pages as
sorted, disjoint, non-adjacent intervals.  The model here is what that
replaced: one ``set`` of mapped pages and one of resident pages, updated
page by page.  Every mutation and every access is applied to both; the
resident pages, every return value (``fault_in``'s first-touch flag, the
first-touch and removed-page counts) and every exception type must
agree after each step, and the intervals must keep their shape.

Two drivers share :func:`check_step`: a hypothesis state machine, and a
sweep of ``REPRO_FUZZ_SCHEDULES`` op sequences derived from
``REPRO_SEED`` (default 200) whose failures name their seed.
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.seeds import derive_seed
from repro.vm.address_space import AddressSpace
from repro.vm.cost import CostModel
from repro.vm.errors import BadAddressError, MapError, VmError
from repro.vm.physical import PhysicalMemory
from repro.vm.vma import Vma

FUZZ_SCHEDULES = int(os.environ.get("REPRO_FUZZ_SCHEDULES", "200"))

#: Pages the ops play in; small, so ranges collide all the time.
UNIVERSE = 48
FILE_PAGES = 64
#: One past the last page any generated plan can map.
PLAN_REACH = UNIVERSE + 6 * (3 + 5)


class SetModel:
    """Mapped and resident pages as two plain sets."""

    def __init__(self) -> None:
        self.mapped: set[int] = set()
        self.resident: set[int] = set()

    def add_mapping(self, start: int, npages: int) -> None:
        pages = set(range(start, start + npages))
        if pages & self.mapped:
            raise MapError("overlap")
        self.mapped |= pages

    def map_runs(self, runs: list[tuple[int, int]], populate: bool) -> None:
        for start, npages in runs:
            pages = set(range(start, start + npages))
            self.mapped |= pages
            self.resident -= pages
            if populate:
                self.resident |= pages

    def remove_mapping(self, start: int, npages: int) -> int:
        pages = set(range(start, start + npages))
        removed = len(pages & self.mapped)
        self.mapped -= pages
        self.resident -= pages
        return removed

    def protect_mapping(self, start: int, npages: int) -> None:
        if not set(range(start, start + npages)) <= self.mapped:
            raise BadAddressError("hole")

    def fault_in(self, vpn: int) -> bool:
        if vpn in self.resident:
            return False
        if vpn not in self.mapped:
            raise BadAddressError("unmapped")
        self.resident.add(vpn)
        return True

    def fault_in_range(self, start: int, npages: int) -> int:
        pages = set(range(start, start + npages))
        if not pages <= self.mapped:
            raise BadAddressError("hole")
        first_touches = len(pages - self.resident)
        self.resident |= pages
        return first_touches


class Pair:
    """One address space and its model, stepped together."""

    def __init__(self) -> None:
        self.aspace = AddressSpace()
        self.model = SetModel()
        memory = PhysicalMemory(capacity_bytes=16 * 1024 * 1024, cost=CostModel())
        self.file = memory.create_file("db", FILE_PAGES)

    def _vma(self, start: int, npages: int, file_page: int | None) -> Vma:
        if file_page is None:
            return Vma(start, npages)
        return Vma(start, npages, self.file, file_page)

    def _calls(self, op: tuple) -> tuple:
        """``op`` as two calls: on the address space, on the model."""
        aspace, model = self.aspace, self.model
        kind, args = op[0], op[1:]
        if kind == "add":
            start, npages, file_page = args
            return (
                partial(aspace.add_mapping, self._vma(start, npages, file_page)),
                partial(model.add_mapping, start, npages),
            )
        if kind == "plan":
            runs, populate = args
            return (
                partial(aspace.map_runs, [self._vma(*run) for run in runs], populate),
                partial(model.map_runs, [run[:2] for run in runs], populate),
            )
        if kind == "remove":
            return partial(aspace.remove_mapping, *args), partial(model.remove_mapping, *args)
        if kind == "protect":
            return (
                partial(aspace.protect_mapping, *args),
                partial(model.protect_mapping, *args[:2]),
            )
        if kind == "touch":
            return partial(aspace.fault_in, *args), partial(model.fault_in, *args)
        if kind == "touch_range":
            return partial(aspace.fault_in_range, *args), partial(model.fault_in_range, *args)
        raise AssertionError(f"unknown op {op!r}")  # pragma: no cover

    def check_step(self, op: tuple) -> None:
        """Apply ``op`` to both sides; results, errors and residency agree."""
        outcomes = []
        for call in self._calls(op):
            try:
                outcomes.append(("ok", call()))
            except VmError as exc:
                outcomes.append((type(exc).__name__, None))
        assert outcomes[0] == outcomes[1], f"{op!r}: {outcomes}"
        self.check_state()

    def check_state(self) -> None:
        aspace, model = self.aspace, self.model
        assert aspace.resident_pages() == model.resident
        intervals = aspace.resident_intervals()
        for start, end in intervals:
            assert start < end
        for (_, end), (start, _) in zip(intervals, intervals[1:]):
            assert end < start, f"not sorted, disjoint and apart: {intervals}"
        assert model.resident <= model.mapped
        for vpn in range(PLAN_REACH):
            assert aspace.is_mapped(vpn) == (vpn in model.mapped)


# -- op generation, shared by both drivers ------------------------------------

range_starts = st.integers(0, UNIVERSE - 1)
range_lengths = st.integers(1, 12)
file_pages = st.one_of(st.none(), st.integers(0, FILE_PAGES - 12))
plan_shapes = st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 5), file_pages),
    min_size=1,
    max_size=6,
)


def _plan(first: int, shape: list[tuple[int, int, int | None]]) -> list[tuple]:
    """Runs ``(start, npages, file_page)`` in address order from
    ``(gap before, npages, file_page)`` triples."""
    runs, at = [], first
    for gap, npages, file_page in shape:
        at += gap
        runs.append((at, npages, file_page))
        at += npages
    return runs


class ResidencyMachine(RuleBasedStateMachine):
    """Every way residency changes, against the set model."""

    def __init__(self) -> None:
        super().__init__()
        self.pair = Pair()

    @rule(start=range_starts, npages=range_lengths, file_page=file_pages)
    def add_mapping(self, start, npages, file_page):
        self.pair.check_step(("add", start, npages, file_page))

    @rule(first=range_starts, shape=plan_shapes, populate=st.booleans())
    def map_runs(self, first, shape, populate):
        self.pair.check_step(("plan", _plan(first, shape), populate))

    @rule(start=range_starts, npages=st.integers(1, 20))
    def remove_mapping(self, start, npages):
        self.pair.check_step(("remove", start, npages))

    @rule(start=range_starts, npages=range_lengths, perms=st.sampled_from(["r", "rw", ""]))
    def protect_mapping(self, start, npages, perms):
        self.pair.check_step(("protect", start, npages, perms))

    @rule(vpn=st.integers(0, UNIVERSE + 8))
    def fault_in(self, vpn):
        self.pair.check_step(("touch", vpn))

    @rule(start=range_starts, npages=range_lengths)
    def fault_in_range(self, start, npages):
        self.pair.check_step(("touch_range", start, npages))

    @invariant()
    def residency_agrees(self):
        self.pair.check_state()


ResidencyMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestResidencyMachine = ResidencyMachine.TestCase


def _random_ops(rng: np.random.Generator) -> list[tuple]:
    ops: list[tuple] = []
    for _ in range(int(rng.integers(4, 30))):
        roll = rng.random()
        start = int(rng.integers(0, UNIVERSE))
        npages = int(rng.integers(1, 13))
        file_page = None if rng.random() < 0.4 else int(rng.integers(0, FILE_PAGES - 12))
        if roll < 0.15:
            ops.append(("add", start, npages, file_page))
        elif roll < 0.45:
            shape = [
                (
                    int(rng.integers(0, 3)) * int(rng.integers(0, 2)),
                    int(rng.integers(1, 6)),
                    None if rng.random() < 0.3 else int(rng.integers(0, FILE_PAGES - 6)),
                )
                for _ in range(int(rng.integers(1, 7)))
            ]
            ops.append(("plan", _plan(start, shape), bool(rng.random() < 0.6)))
        elif roll < 0.6:
            ops.append(("remove", start, int(rng.integers(1, 21))))
        elif roll < 0.68:
            ops.append(("protect", start, npages, ["r", "rw", ""][int(rng.integers(0, 3))]))
        elif roll < 0.85:
            ops.append(("touch", int(rng.integers(0, UNIVERSE + 8))))
        else:
            ops.append(("touch_range", start, npages))
    return ops


def test_bulk_seeded_residency():
    """REPRO_FUZZ_SCHEDULES op sequences derived from REPRO_SEED; the
    sweep as a whole must have fused, split and refused."""
    fused = split = refused = 0
    for i in range(FUZZ_SCHEDULES):
        seed = derive_seed(i)
        pair = Pair()
        try:
            for op in _random_ops(np.random.default_rng(seed)):
                before = len(pair.aspace.resident_intervals())
                resident = len(pair.model.resident)
                pair.check_step(op)
                after = len(pair.aspace.resident_intervals())
                grew = len(pair.model.resident) > resident
                fused += grew and after < before
                split += not grew and after > before
                refused += op[0] == "touch" and op[1] not in pair.model.mapped
        except AssertionError as exc:
            raise AssertionError(f"sweep entry {i} (seed {seed}): {exc}") from exc
    if FUZZ_SCHEDULES >= 50:
        assert fused and split and refused, (fused, split, refused)


class TestPlantedIntervals:
    """The interval edits, one shape each, by hand."""

    def _space(self, npages: int = 40) -> AddressSpace:
        aspace = AddressSpace()
        aspace.add_mapping(Vma(0, npages))
        return aspace

    def test_touches_fuse_neighbours(self):
        aspace = self._space()
        for vpn in (3, 5):
            assert aspace.fault_in(vpn) is True
        assert aspace.resident_intervals() == [(3, 4), (5, 6)]
        assert aspace.fault_in(4) is True
        assert aspace.resident_intervals() == [(3, 6)]
        assert aspace.fault_in(4) is False

    def test_range_counts_only_first_touches(self):
        aspace = self._space()
        aspace.fault_in_range(2, 3)
        aspace.fault_in_range(8, 2)
        assert aspace.fault_in_range(0, 12) == 12 - 5
        assert aspace.resident_intervals() == [(0, 12)]
        assert aspace.fault_in_range(12, 1) == 1  # touching, not overlapping
        assert aspace.resident_intervals() == [(0, 13)]

    def test_invalidation_clips_both_ends_of_one_interval(self):
        aspace = self._space()
        aspace.fault_in_range(0, 20)
        aspace.map_runs([Vma(5, 3)])
        assert aspace.resident_intervals() == [(0, 5), (8, 20)]
        assert aspace.remove_mapping(7, 30) == 30
        assert aspace.resident_intervals() == [(0, 5)]

    def test_a_populated_plan_is_one_interval_and_goes_in_one(self):
        aspace = self._space()
        aspace.map_runs([Vma(4 + 2 * k, 2) for k in range(10)], populate=True)
        assert aspace.resident_intervals() == [(4, 24)]
        assert aspace.remove_mapping(0, 40) == 40
        assert aspace.resident_intervals() == []

    def test_a_gapped_plan_leaves_what_lies_between(self):
        aspace = self._space()
        aspace.fault_in_range(0, 30)
        aspace.map_runs([Vma(2, 2), Vma(10, 5), Vma(20, 1)], populate=False)
        assert aspace.resident_intervals() == [(0, 2), (4, 10), (15, 20), (21, 30)]
        aspace.map_runs([Vma(2, 2), Vma(20, 1)], populate=True)
        assert aspace.resident_intervals() == [(0, 10), (15, 30)]

    def test_protect_keeps_residency(self):
        aspace = self._space()
        aspace.fault_in_range(3, 9)
        aspace.protect_mapping(0, 20, "r")
        assert aspace.resident_pages() == set(range(3, 12))
