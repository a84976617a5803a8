"""``map_fixed`` is a plan of one run, and so is a page's way back.

``Substrate.map_fixed`` is not a mapping path of its own: it issues a
one-run ``Substrate.map_runs`` plan, which each backend carries out with
its one ``apply_runs``.  A plan without a file is the other direction:
each of its runs points back at anonymous reservation memory.  This
differential pins both contracts.  A seeded stream of random runs goes
to two fresh substrates of one kind, once as ``map_fixed`` calls and
once as the same runs as one-run ``map_runs`` plans.  Then a seeded set
of runs in address order goes back to the reservation, once as one-run
plans without a file and once as one plan of all of them, resumed after
the run a fault names.  What can be observed must be equal (``==``, not
approx):

* the page map — which file page every virtual page of the reservation
  maps, read off the backend's own maps source — and its line count;
  after the way back, also which pages are anonymous and which are
  holes;
* ledger lanes and counters, after each half;
* the fault journal, and which runs faulted;
* ``wall.count("map_fixed")`` and ``wall.count("unmap_slot")``, the
  native backend's syscall counts.

The kinds are the simulated and native backends (native skipped where
the platform has no rewiring) and a :class:`FaultySubstrate` over each
with probabilistic ``map_fixed`` and ``unmap_slot`` rules.  The journal
equality is the written contract of the fault plane: one consultation
per run of an anonymous plan, in plan order.

Knobs: ``REPRO_SEED`` re-seeds the sweep, ``REPRO_FUZZ_SCHEDULES`` sets
its length (default 200); a failing entry names its seed.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.faults import FaultRule, FaultSchedule, FaultySubstrate
from repro.faults.errors import SubstrateFault
from repro.native import is_supported
from repro.seeds import derive_seed
from repro.substrate import make_substrate
from repro.vm.cost import MAIN_LANE, MAPPER_LANE

from ..vm.snapshot_oracle import parse_maps

FUZZ_SCHEDULES = int(os.environ.get("REPRO_FUZZ_SCHEDULES", "200"))

FILE_PAGES = 32
AREA = 24  # pages of the one reservation every run lands in

needs_native = pytest.mark.skipif(
    not is_supported(), reason="native rewiring unsupported here"
)

KINDS = [
    pytest.param("simulated", False, id="simulated"),
    pytest.param("native", False, id="native", marks=needs_native),
    pytest.param("simulated", True, id="faulty-simulated"),
    pytest.param("native", True, id="faulty-native", marks=needs_native),
]


def _random_runs(rng: np.random.Generator) -> list[tuple]:
    """``(offset, npages, file_page, populate, lane)`` runs inside the
    reservation, overlapping one another as they come."""
    runs = []
    for _ in range(int(rng.integers(1, 13))):
        npages = int(rng.integers(1, 6))
        runs.append(
            (
                int(rng.integers(0, AREA - npages + 1)),
                npages,
                int(rng.integers(0, FILE_PAGES - npages + 1)),
                bool(rng.random() < 0.5),
                MAPPER_LANE if rng.random() < 0.3 else MAIN_LANE,
            )
        )
    return runs


def _random_anon_runs(rng: np.random.Generator) -> tuple[list[tuple], str]:
    """``(offset, npages)`` runs back to the reservation, in address order
    and not overlapping (they may touch), and the lane of their plan."""
    cuts = np.sort(rng.choice(AREA + 1, size=int(rng.integers(2, 9)), replace=False))
    runs = [
        (int(lo), int(hi - lo))
        for lo, hi in zip(cuts[:-1], cuts[1:])
        if rng.random() < 0.7
    ] or [(int(cuts[0]), int(cuts[1] - cuts[0]))]
    return runs, MAPPER_LANE if rng.random() < 0.3 else MAIN_LANE


def _area(sub, base: int) -> list:
    """Per page of the reservation: its ``(path, file page)``, ``"anon"``,
    or ``None`` for a hole, read off the backend's maps text."""
    area = [None] * AREA
    for entry in parse_maps(sub.maps_text()):
        for vpn in range(max(entry.start_vpn, base), min(entry.end_vpn, base + AREA)):
            area[vpn - base] = (
                "anon"
                if entry.anonymous
                else (entry.pathname, entry.file_page + vpn - entry.start_vpn)
            )
    return area


def _send_back(sub, base: int, anon, as_plans: bool) -> list[tuple]:
    """Send ``anon`` runs back to the reservation, as one-run plans or as
    one plan resumed after each faulted run; the faulted runs."""
    runs, lane = anon
    vpns = np.array([base + offset for offset, _ in runs], dtype=np.int64)
    npages = np.array([n for _, n in runs], dtype=np.int64)
    faulted = []
    if not as_plans:
        for k in range(len(runs)):
            one = slice(k, k + 1)
            try:
                sub.map_runs(vpns[one], npages[one], None, vpns[one], lane=lane)
            except SubstrateFault as fault:
                assert fault.run_index == 0
                faulted.append((k, fault.op, fault.call_index))
        return faulted
    start = 0
    while start < len(runs):
        try:
            sub.map_runs(vpns[start:], npages[start:], None, vpns[start:], lane=lane)
            break
        except SubstrateFault as fault:
            faulted.append((start + fault.run_index, fault.op, fault.call_index))
            start += fault.run_index + 1
    return faulted


def _issue(
    backend: str, faulty: bool, seed: int, runs, anon, as_plans: bool
) -> dict:
    """Issue ``runs``, then send ``anon`` back, on a fresh substrate;
    everything observable."""
    sub = make_substrate(backend)
    if faulty:
        sub = FaultySubstrate(sub)
    try:
        file = sub.create_file("runs", FILE_PAGES)
        base = sub.reserve(AREA)
        if faulty:
            sub.schedule = FaultSchedule(
                [
                    FaultRule(ops="map_fixed", probability=0.25),
                    FaultRule(ops="unmap_slot", probability=0.25),
                ],
                seed=seed,
            )
        faulted = []
        for k, (offset, npages, file_page, populate, lane) in enumerate(runs):
            try:
                if as_plans:
                    sub.map_runs(
                        np.array([base + offset]),
                        np.array([npages]),
                        file,
                        np.array([file_page]),
                        populate=populate,
                        lane=lane,
                    )
                else:
                    sub.map_fixed(
                        base + offset, npages, file, file_page, populate=populate, lane=lane
                    )
            except SubstrateFault as fault:
                faulted.append((k, fault.op, fault.call_index, fault.run_index))
        path = sub.file_map_path(file)
        snapshot = sub.maps_snapshot(file_filter=path)
        page_map = [snapshot.physical_of(base + offset) for offset in range(AREA)]
        ledger = sub.cost.ledger
        seen = {
            "page_map": page_map,
            "maps_lines": sub.maps_line_count(path),
            "lanes": ledger.lanes(),
            "counters": ledger.counters(),
            "faulted": faulted,
        }
        seen["anon_faulted"] = _send_back(sub, base, anon, as_plans)
        seen.update(
            anon_area=_area(sub, base),
            anon_maps_lines=sub.maps_line_count(path),
            anon_lanes=ledger.lanes(),
            anon_counters=ledger.counters(),
            journal=[
                (f.rule, f.op, f.call_index, f.global_index, f.transient)
                for f in getattr(sub, "journal", [])
            ],
            wall_map_fixed=sub.wall and sub.wall.count("map_fixed"),
            wall_unmap_slot=sub.wall and sub.wall.count("unmap_slot"),
        )
        return seen
    finally:
        sub.close()


@pytest.mark.parametrize("backend, faulty", KINDS)
def test_map_fixed_is_a_one_run_plan(backend, faulty):
    """REPRO_FUZZ_SCHEDULES run streams derived from REPRO_SEED; over the
    sweep, pages were mapped and sent back, and on a faulty plane faults
    fired on both halves."""
    mapped = sent_back = 0
    fired = set()
    for i in range(FUZZ_SCHEDULES):
        seed = derive_seed(i)
        rng = np.random.default_rng(seed)
        runs = _random_runs(rng)
        anon = _random_anon_runs(rng)
        seen = _issue(backend, faulty, seed, runs, anon, as_plans=False)
        expected = _issue(backend, faulty, seed, runs, anon, as_plans=True)
        for key in expected:
            assert seen[key] == expected[key], (
                f"sweep entry {i} (seed {seed}): {key} differs"
            )
        mapped += any(page is not None for page in seen["page_map"])
        sent_back += any(
            page is not None and after == "anon"
            for page, after in zip(seen["page_map"], seen["anon_area"])
        )
        assert None not in seen["anon_area"], "a run back left a hole"
        fired.update(op for _, op, *_ in seen["journal"])
        if backend == "native":
            assert seen["wall_map_fixed"] == len(runs) - len(seen["faulted"])
            assert seen["wall_unmap_slot"] == len(anon[0]) - len(seen["anon_faulted"])
    assert mapped and sent_back
    if faulty and FUZZ_SCHEDULES >= 50:
        assert fired == {"map_fixed", "unmap_slot"}
