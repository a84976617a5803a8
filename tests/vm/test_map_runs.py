"""Plan-at-once mapping against the per-call walk it replaced.

``MemoryMapper.map_runs`` applies a view's whole mapping plan with one
splice of the VMA list and one sum on the ledger; every other mutation
(``mmap``, ``munmap``, ``mprotect``) is the same splice.  The walk they
replaced lives on in :mod:`tests.vm.mapping_oracle`, the per-request
creation loop in :mod:`tests.core.creation_oracle`.  Every test here
builds the same state twice, once through each, and requires what can be
observed to be equal: the VMAs, the fault set, the allocator's bump
pointer, the rendered ``/proc``-format text byte for byte, the columns
the maps snapshot is built from, ledger lanes (``==``, not approx) and
counters — and, with the fault plane armed, the journal, the mapped
prefix, the views' ``_touched`` flags and the retry counters.

Knobs: ``REPRO_SEED`` re-seeds the bulk sweep, ``REPRO_FUZZ_SCHEDULES``
sets its length (default 200); a failing sweep entry names its seed.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.creation import BackgroundMapper, materialize_pages
from repro.core.view import VirtualView
from repro.faults import FaultRule, FaultSchedule, FaultySubstrate
from repro.faults.errors import SubstrateFault
from repro.native import is_supported
from repro.resilience import ResilienceConfig, RetryPolicy
from repro.seeds import derive_seed
from repro.storage.column import PhysicalColumn
from repro.substrate import make_substrate
from repro.vm.constants import VALUES_PER_PAGE
from repro.vm.cost import MAIN_LANE, MAPPER_LANE, CostModel
from repro.vm.errors import MapError, VmError
from repro.vm.mmap_api import MemoryMapper
from repro.vm.physical import PhysicalMemory
from repro.vm.procmaps import render_maps, snapshot_address_space
from repro.vm.vma import Vma

from ..core.creation_oracle import oracle_materialize_pages
from . import mapping_oracle

FUZZ_SCHEDULES = int(os.environ.get("REPRO_FUZZ_SCHEDULES", "200"))

FILE_PAGES = 64
FILES = ("db", "aux")

#: One mutation of an address space, as both sides apply it:
#: ``("reserve", npages)`` — anonymous mmap at the bump pointer;
#: ``("plan", file, [(offset, npages, file_page), ...], populate, lane)``
#: — a MAP_FIXED plan, offsets relative to the first reservation;
#: ``("fixed", file, offset, npages, file_page)`` — one MAP_FIXED call;
#: ``("anon", offset, npages)`` — MAP_FIXED back to anonymous memory;
#: ``("unmap", offset, npages)``, ``("protect", offset, npages, perms)``,
#: ``("touch", offset)`` — one page access.
Op = tuple


class Side:
    """One address space with its own machine, files and ledger."""

    def __init__(self, oracle: bool) -> None:
        self.oracle = oracle
        self.mapper = MemoryMapper(
            PhysicalMemory(capacity_bytes=64 * 1024 * 1024, cost=CostModel()),
            mapping_oracle.SetResidencySpace() if oracle else None,
        )
        self.files = {
            name: self.mapper.memory.create_file(name, FILE_PAGES) for name in FILES
        }
        self.base: int | None = None

    def apply(self, op: Op) -> None:
        """Apply ``op``: through the mapper, or as the oracle walk with
        the charges the old ``MemoryMapper`` methods booked."""
        mapper, aspace, cost = self.mapper, self.mapper.address_space, self.mapper.cost
        kind = op[0]
        if kind == "reserve":
            if not self.oracle:
                start = mapper.mmap(op[1])
            else:
                start = aspace.allocate_region(op[1])
                mapping_oracle.add_mapping(aspace, Vma(start, op[1]))
                cost.ledger.charge(cost.params.mmap_syscall_ns, MAIN_LANE)
                cost.ledger.count("mmap_calls")
            if self.base is None:
                self.base = start
            return
        base = self.base
        if kind == "plan":
            _, name, runs, populate, lane = op
            columns = [
                np.array([run[i] for run in runs], dtype=np.int64) for i in range(3)
            ]
            issue = mapping_oracle.oracle_map_runs if self.oracle else MemoryMapper.map_runs
            issue(
                mapper, base + columns[0], columns[1], self.files[name], columns[2],
                populate, lane,
            )
        elif kind == "fixed":
            _, name, offset, npages, file_page = op
            issue = (
                mapping_oracle.oracle_map_fixed if self.oracle else MemoryMapper.remap_fixed
            )
            issue(mapper, base + offset, npages, self.files[name], file_page)
        elif kind == "anon":
            if not self.oracle:
                mapper.mmap(op[2], addr=base + op[1], fixed=True)
            else:
                mapping_oracle.replace_mapping(aspace, Vma(base + op[1], op[2]))
                cost.ledger.charge(cost.params.mmap_syscall_ns, MAIN_LANE)
                cost.ledger.count("mmap_calls")
        elif kind == "unmap":
            if not self.oracle:
                mapper.munmap(base + op[1], op[2])
            else:
                removed = mapping_oracle.remove_mapping(aspace, base + op[1], op[2])
                cost.munmap_call(removed, MAIN_LANE)
        elif kind == "protect":
            if not self.oracle:
                mapper.mprotect(base + op[1], op[2], op[3])
            else:
                mapping_oracle.protect_mapping(aspace, base + op[1], op[2], op[3])
                cost.ledger.charge(cost.params.mmap_syscall_ns, MAIN_LANE)
                cost.ledger.count("mprotect_calls")
        elif kind == "touch":
            if aspace.is_mapped(base + op[1]):
                mapper.access(base + op[1])
        else:  # pragma: no cover - a typo in a test
            raise AssertionError(f"unknown op {op!r}")

    def observe(self) -> dict:
        aspace = self.mapper.address_space
        snapshot = snapshot_address_space(aspace)
        ledger = self.mapper.cost.ledger
        return {
            "vmas": [
                (v.start, v.npages, v.file and v.file.name, v.file_page, v.shared, v.perms)
                for v in aspace.vmas()
            ],
            "starts": list(aspace._starts),
            "faulted": aspace.resident_pages(),
            "next_vpn": aspace._next_vpn,
            "maps_text": render_maps(aspace),
            "snapshot": (
                snapshot._paths,
                snapshot._vpns.tolist(),
                snapshot._fpages.tolist(),
                snapshot._pids.tolist(),
            ),
            "lanes": ledger.lanes(),
            "counters": ledger.counters(),
        }


def assert_parity(ops: list[Op]) -> dict:
    """Apply ``ops`` to both sides; equal observables — and the same
    exception type, if any — after every op.  Returns the last state."""
    new, old = Side(oracle=False), Side(oracle=True)
    seen = new.observe()
    for step, op in enumerate(ops):
        errors = []
        for side in (new, old):
            try:
                side.apply(op)
                errors.append(None)
            except VmError as exc:
                errors.append(type(exc).__name__)
        seen, expected = new.observe(), old.observe()
        assert errors[0] == errors[1], f"step {step} {op!r}: {errors}"
        for key in expected:
            assert seen[key] == expected[key], f"step {step} {op!r}: {key} differs"
        assert seen["starts"] == [vma[0] for vma in seen["vmas"]]
    seen["base"] = new.base
    return seen


def plan(name, *runs, populate=True, lane=MAIN_LANE) -> Op:
    return ("plan", name, list(runs), populate, lane)


class TestPlantedPlans:
    """Each shape of plan the splice treats differently, by hand."""

    def test_one_run(self):
        seen = assert_parity([("reserve", 16), plan("db", (2, 3, 10))])
        assert [v[1] for v in seen["vmas"]] == [2, 3, 11]

    def test_empty_plan_is_no_call_at_all(self):
        seen = assert_parity([("reserve", 4), plan("db")])
        assert seen["counters"] == {"mmap_calls": 1}

    def test_adjacent_runs(self):
        seen = assert_parity(
            [("reserve", 16), plan("db", (0, 2, 10), (2, 3, 20), (5, 1, 5))]
        )
        assert seen["counters"]["mmap_calls"] == 1 + 3
        assert len(seen["vmas"]) == 4  # three runs and the rest

    def test_gapped_runs_keep_what_lies_between(self):
        seen = assert_parity(
            [
                ("reserve", 16),
                ("fixed", "aux", 4, 2, 0),
                ("touch", 4),
                plan("db", (1, 2, 10), (7, 2, 20), (12, 1, 30)),
            ]
        )
        assert (seen["vmas"][3][2], seen["vmas"][3][1]) == ("aux", 2)
        assert len(seen["faulted"]) == 1 + 5

    def test_file_contiguous_runs_merge(self):
        # what an uncoalesced creation issues: one call per page, one VMA
        seen = assert_parity(
            [("reserve", 8), plan("db", (0, 1, 4), (1, 1, 5), (2, 1, 6), (3, 1, 9))]
        )
        assert [v[1] for v in seen["vmas"]] == [3, 1, 4]
        assert seen["counters"]["mmap_calls"] == 1 + 4

    def test_run_crossing_several_old_vmas(self):
        assert_parity(
            [
                ("reserve", 16),
                ("fixed", "db", 2, 2, 0),
                ("fixed", "aux", 6, 2, 0),
                ("unmap", 9, 1),
                ("protect", 11, 2, "r"),
                plan("db", (1, 12, 30)),
            ]
        )

    def test_run_spilling_past_the_reservation_into_a_hole(self):
        seen = assert_parity(
            [("reserve", 4), ("reserve", 4), ("unmap", 4, 4), plan("db", (2, 9, 8))]
        )
        # over the hole and on past everything ever mapped
        assert seen["next_vpn"] == seen["vmas"][-1][0] + 9

    def test_neighbours_merge_at_both_ends(self):
        seen = assert_parity(
            [
                ("reserve", 12),
                ("fixed", "db", 0, 3, 10),
                ("fixed", "db", 8, 4, 18),
                plan("db", (3, 2, 13), (5, 3, 15)),
            ]
        )
        assert seen["vmas"] == [(seen["vmas"][0][0], 12, "db", 10, True, "rw")]

    def test_populate_off_resets_fault_state(self):
        seen = assert_parity(
            [
                ("reserve", 8),
                plan("db", (0, 4, 0)),
                plan("db", (1, 2, 20), (5, 1, 30), populate=False),
            ]
        )
        base = seen["vmas"][0][0]
        assert seen["faulted"] == {base, base + 3}

    def test_two_file_plans_interleave(self):
        seen = assert_parity(
            [
                ("reserve", 12),
                plan("db", (0, 2, 0), (4, 2, 2), (8, 2, 4)),
                plan("aux", (2, 2, 0), (6, 2, 2), (10, 2, 4), lane=MAPPER_LANE),
            ]
        )
        assert [v[2] for v in seen["vmas"]] == ["db", "aux"] * 3
        assert set(seen["lanes"]) == {MAIN_LANE, MAPPER_LANE}

    @pytest.mark.parametrize(
        "runs",
        [
            [(4, 2, 0), (1, 2, 8)],  # unsorted
            [(1, 3, 0), (3, 2, 8)],  # overlapping
            [(1, 2, 0), (5, 0, 8)],  # an empty run
            [(1, 2, 0), (5, 2, FILE_PAGES - 1)],  # beyond the file
        ],
    )
    def test_bad_plan_rejected_before_anything_changes(self, runs):
        side = Side(oracle=False)
        side.apply(("reserve", 16))
        before = side.observe()
        with pytest.raises(MapError):
            side.apply(plan("db", *runs))
        assert side.observe() == before


def _release_ops(npages: int, runs: int) -> list[Op]:
    """A view's life: reserve, map ``runs`` two-page runs, release."""
    mapped = [(3 * i, 2, 2 * i) for i in range(runs)]
    return [("reserve", npages), plan("db", *mapped), ("unmap", 0, npages)]


def test_release_region_over_a_30_run_view():
    seen = assert_parity(_release_ops(96, 30))
    assert seen["vmas"] == [] and seen["faulted"] == set()
    assert seen["counters"]["pages_unmapped"] == 96


# -- random address spaces ------------------------------------------------

AREA = 40  # pages of the two reservations the random ops play in


def _random_ops(rng: np.random.Generator) -> list[Op]:
    ops: list[Op] = [("reserve", AREA // 2), ("reserve", AREA // 2)]
    for _ in range(int(rng.integers(1, 9))):
        roll = rng.random()
        offset = int(rng.integers(0, AREA))
        npages = int(rng.integers(1, 9))
        name = FILES[int(rng.integers(0, 2))]
        if roll < 0.5:
            runs, at = [], int(rng.integers(0, 6))
            while at < AREA + 4 and len(runs) < 8:
                n = int(rng.integers(1, 5))
                runs.append((at, n, int(rng.integers(0, FILE_PAGES - n))))
                at += n + int(rng.integers(0, 3)) * int(rng.integers(0, 3))
            lane = MAPPER_LANE if rng.random() < 0.3 else MAIN_LANE
            ops.append(("plan", name, runs, bool(rng.random() < 0.7), lane))
        elif roll < 0.62:
            ops.append(("fixed", name, offset, npages, int(rng.integers(0, FILE_PAGES - 8))))
        elif roll < 0.7:
            ops.append(("anon", offset, npages))
        elif roll < 0.82:
            ops.append(("unmap", offset, npages))
        elif roll < 0.9:
            ops.append(("protect", offset, npages, ["r", "rw", ""][int(rng.integers(0, 3))]))
        else:
            ops.append(("touch", offset))
    return ops


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_address_spaces(seed):
    assert_parity(_random_ops(np.random.default_rng(seed)))


def test_bulk_seeded_address_spaces():
    """REPRO_FUZZ_SCHEDULES op sequences derived from REPRO_SEED; the
    sweep as a whole must have merged runs and mapped past the area."""
    merged = spilled = 0
    for i in range(FUZZ_SCHEDULES):
        seed = derive_seed(i)
        ops = _random_ops(np.random.default_rng(seed))
        try:
            seen = assert_parity(ops)
        except AssertionError as exc:
            raise AssertionError(f"sweep entry {i} (seed {seed}): {exc}") from exc
        calls = sum(len(op[2]) for op in ops if op[0] == "plan")
        merged += len(seen["vmas"]) < calls
        spilled += seen["next_vpn"] > seen["base"] + AREA
    if FUZZ_SCHEDULES >= 50:
        assert merged and spilled, (merged, spilled)


# -- the fault plane --------------------------------------------------------

NUM_PAGES = 32
#: Six runs: pages 1-3, 6, 8-9, 12-15, 20, 25-26.
QUALIFYING = np.array([1, 2, 3, 6, 8, 9, 12, 13, 14, 15, 20, 25, 26])


def _faulted_creation(create, rules, retry: bool, background: bool, coalesce: bool):
    """One creation on a fresh faulty stack; everything observable."""
    substrate = FaultySubstrate(make_substrate("simulated"))
    values = np.arange(NUM_PAGES * VALUES_PER_PAGE, dtype=np.int64)
    column = PhysicalColumn.create(substrate, "col", values)
    view = VirtualView(column, 0, 10)
    policy = None
    if retry:
        policy = RetryPolicy(substrate, column.cost, ResilienceConfig(seed=0))
    mapper = BackgroundMapper(column.cost) if background else None
    substrate.schedule = FaultSchedule(
        [FaultRule(ops="map_fixed", nth=n, transient=t) for n, t in rules], seed=0
    )
    error = None
    try:
        create(
            view, QUALIFYING, coalesce=coalesce, background=mapper, retry=policy
        )
    except SubstrateFault as fault:
        error = (fault.op, fault.kind, fault.call_index, fault.transient)
    finally:
        if mapper is not None:
            mapper.stop()
    aspace = substrate.address_space
    ledger = column.cost.ledger
    return {
        "error": error,
        "journal": [
            (f.rule, f.op, f.call_index, f.global_index, f.transient)
            for f in substrate.journal
        ],
        "calls_seen": dict(substrate.schedule.counters),
        "mapped": [
            (v.start - view.base_vpn, v.npages, v.file_page)
            for v in aspace.vmas()
            if v.file is not None and v.start >= view.base_vpn
        ],
        "maps_text": render_maps(aspace),
        "faulted": aspace.resident_pages(),
        "touched": view._touched.tolist(),
        "pages": view._fpage_at.tolist(),
        "retries": policy and (policy.retries, policy.recovered, policy.exhausted),
        "lanes": ledger.lanes(),
        "counters": ledger.counters(),
    }


@pytest.mark.parametrize("background", [False, True], ids=["inline", "background"])
@pytest.mark.parametrize("retry", [False, True], ids=["bare", "retry"])
@pytest.mark.parametrize(
    "rules",
    [
        [(1, True)],
        [(3, True)],
        [(6, True)],
        [(4, False)],
        [(2, True), (3, True)],
        [(2, True), (5, False)],
        [],
    ],
    ids=lambda rules: "-".join(f"{n}{'t' if t else 'p'}" for n, t in rules) or "clean",
)
def test_fault_plane_parity(rules, retry, background):
    """An nth-call ``map_fixed`` rule hits the same run of the plan as it
    hit the same request of the loop, and leaves the same state behind."""
    for coalesce in (True, False):
        args = (rules, retry, background, coalesce)
        seen = _faulted_creation(materialize_pages, *args)
        expected = _faulted_creation(oracle_materialize_pages, *args)
        assert seen == expected
        if retry and all(transient for _, transient in rules):
            assert seen["error"] is None
            assert seen["counters"].get("backoff_waits", 0) == len(rules)
            assert all(seen["touched"][: QUALIFYING.size])
        if rules and not retry:
            assert seen["error"] is not None


# -- the native backend -------------------------------------------------------


@pytest.mark.skipif(not is_supported(), reason="native rewiring unsupported here")
def test_native_default_loop_equals_map_fixed_calls():
    """``NativeSubstrate`` inherits ``Substrate.map_runs``: real
    ``/proc/self/maps`` lines, simulated charges and per-syscall wall
    counts are those of issuing every run as its own ``map_fixed``."""
    vpns = np.array([0, 2, 7, 8])
    npages = np.array([2, 3, 1, 2])
    file_pages = np.array([4, 10, 0, 1])
    seen = []
    for whole_plan in (True, False):
        with make_substrate("native") as sub:
            file = sub.create_file("runs", 16)
            base = sub.reserve(12)
            if whole_plan:
                sub.map_runs(base + vpns, npages, file, file_pages, populate=True)
            else:
                for vpn, n, fpage in zip(vpns, npages, file_pages):
                    sub.map_fixed(base + int(vpn), int(n), file, int(fpage), populate=True)
            path = sub.file_map_path(file)
            snapshot = sub.maps_snapshot(file_filter=path)
            seen.append(
                (
                    sorted(
                        (vpn - base, snapshot.physical_of(vpn)[1])
                        for vpn in range(base, base + 12)
                        if snapshot.physical_of(vpn) is not None
                    ),
                    sub.maps_line_count(path),
                    sub.wall.count("map_fixed"),
                    sub.cost.ledger.lanes(),
                    sub.cost.ledger.counters(),
                )
            )
    assert seen[0] == seen[1]
    assert seen[0][2] == 4
