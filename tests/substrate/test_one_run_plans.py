"""``map_fixed`` is a plan of one run, on every backend.

``Substrate.map_fixed`` is not a mapping path of its own: it issues a
one-run ``Substrate.map_runs`` plan, which each backend carries out with
its one ``apply_runs``.  This differential pins that contract.  A seeded
stream of random runs goes to two fresh substrates of one kind, once as
``map_fixed`` calls and once as the same runs as one-run ``map_runs``
plans, and what can be observed must be equal (``==``, not approx):

* the page map — which file page every virtual page of the reservation
  maps, read off the backend's own maps source — and its line count;
* ledger lanes and counters;
* the fault journal, and which runs faulted;
* ``wall.count("map_fixed")``, the native backend's syscall count.

The kinds are the simulated and native backends (native skipped where
the platform has no rewiring) and a :class:`FaultySubstrate` over each
with a probabilistic ``map_fixed`` rule.

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


def _issue(backend: str, faulty: bool, seed: int, runs, as_plans: bool) -> dict:
    """Issue ``runs`` on a fresh substrate; everything observable."""
    sub = make_substrate(backend)
    if faulty:
        sub = FaultySubstrate(sub)
    try:
        file = sub.create_file("runs", FILE_PAGES)
        base = sub.reserve(AREA)
        if faulty:
            sub.schedule = FaultSchedule(
                [FaultRule(ops="map_fixed", probability=0.25)], seed=seed
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
        return {
            "page_map": page_map,
            "maps_lines": sub.maps_line_count(path),
            "lanes": ledger.lanes(),
            "counters": ledger.counters(),
            "faulted": faulted,
            "journal": [
                (f.rule, f.op, f.call_index, f.global_index, f.transient)
                for f in getattr(sub, "journal", [])
            ],
            "wall_map_fixed": sub.wall and sub.wall.count("map_fixed"),
        }
    finally:
        sub.close()


@pytest.mark.parametrize("backend, faulty", KINDS)
def test_map_fixed_is_a_one_run_plan(backend, faulty):
    """REPRO_FUZZ_SCHEDULES run streams derived from REPRO_SEED; over the
    sweep, pages were mapped, and on a faulty plane faults fired."""
    mapped = fired = 0
    for i in range(FUZZ_SCHEDULES):
        seed = derive_seed(i)
        runs = _random_runs(np.random.default_rng(seed))
        seen = _issue(backend, faulty, seed, runs, as_plans=False)
        expected = _issue(backend, faulty, seed, runs, as_plans=True)
        for key in expected:
            assert seen[key] == expected[key], (
                f"sweep entry {i} (seed {seed}): {key} differs"
            )
        mapped += any(page is not None for page in seen["page_map"])
        fired += bool(seen["journal"])
        if backend == "native":
            assert seen["wall_map_fixed"] == len(runs) - len(seen["faulted"])
    assert mapped
    if faulty and FUZZ_SCHEDULES >= 50:
        assert fired
