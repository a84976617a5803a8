"""One bounds check per plan refuses what the per-run checks refused.

``MemoryMapper.map_runs`` used to validate run by run — ``_check_run``
and then ``Vma(...)``, whose ``__post_init__`` checks again — and now
checks the plan's columns once and builds the runs unchecked.  The loop
below is the old validation verbatim, messages included.  Every bad
plan must raise what the loop raises for its first offending run (type
and text), before anything changes: VMAs, residency, ledger lanes and
counters.  ``Vma`` itself stays as strict, and as immutable, as it was.

``REPRO_SEED`` / ``REPRO_FUZZ_SCHEDULES`` (default 200) drive the seeded
sweep; a failing entry names its seed.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.seeds import derive_seed
from repro.vm.cost import CostModel
from repro.vm.errors import MapError
from repro.vm.mmap_api import MemoryMapper
from repro.vm.physical import PhysicalMemory
from repro.vm.procmaps import render_maps
from repro.vm.vma import Vma

FUZZ_SCHEDULES = int(os.environ.get("REPRO_FUZZ_SCHEDULES", "200"))

FILE_PAGES = 64
AREA = 48


def per_run_validation(file, runs) -> None:
    """What ``map_runs`` did per run before touching the address space."""
    for vpn, npages, file_page in runs:
        if npages <= 0:
            raise MapError("mmap of zero pages")
        if not 0 <= file_page <= file.num_pages - npages:
            raise MapError(
                f"file range [{file_page}, {file_page + npages}) outside "
                f"{file.name!r} ({file.num_pages} pages)"
            )
        Vma(vpn, npages, file, file_page)


class Stack:
    """A mapper with one file and one reservation some of which is mapped
    and touched, so an unwanted change has something to disturb."""

    def __init__(self) -> None:
        self.mapper = MemoryMapper(
            PhysicalMemory(capacity_bytes=16 * 1024 * 1024, cost=CostModel())
        )
        self.file = self.mapper.memory.create_file("db", FILE_PAGES)
        self.base = self.mapper.mmap(AREA)
        self.mapper.remap_fixed(self.base + 4, 6, self.file, 10, populate=True)
        self.mapper.access(self.base + 20)

    def state(self) -> dict:
        aspace, ledger = self.mapper.address_space, self.mapper.cost.ledger
        return {
            "maps": render_maps(aspace),
            "resident": aspace.resident_intervals(),
            "next_vpn": aspace._next_vpn,
            "lanes": ledger.lanes(),
            "counters": ledger.counters(),
        }

    def map_runs(self, runs, populate: bool = True) -> None:
        """``runs`` are ``(offset into the reservation, npages, file_page)``;
        an offset below ``-self.base`` is a negative address."""
        columns = [np.array([run[i] for run in runs], dtype=np.int64) for i in range(3)]
        self.mapper.map_runs(
            self.base + columns[0], columns[1], self.file, columns[2], populate
        )

    def expected_error(self, runs) -> Exception | None:
        try:
            per_run_validation(
                self.file, [(self.base + off, n, fp) for off, n, fp in runs]
            )
        except (MapError, ValueError) as exc:
            return exc
        return None


def assert_refused_like_the_loop(runs) -> Exception:
    stack = Stack()
    want = stack.expected_error(runs)
    assert want is not None, f"the plan {runs!r} is not bad"
    before = stack.state()
    with pytest.raises(type(want)) as caught:
        stack.map_runs(runs)
    assert type(caught.value) is type(want)
    assert str(caught.value) == str(want)
    assert stack.state() == before
    assert before["counters"]["mmap_calls"] == 2  # the reservation and the one run
    return caught.value


GOOD = [(0, 2, 0), (2, 3, 8), (5, 1, 30), (6, 4, 40)]


def _planted(position: int, bad_run: tuple) -> list[tuple]:
    runs = list(GOOD)
    runs[position] = bad_run
    return runs


#: Position of the bad run in a four-run plan: first, middle, last.
POSITIONS = pytest.mark.parametrize("position", [0, 2, 3], ids=["first", "middle", "last"])


class TestPlantedBadPlans:
    @POSITIONS
    def test_zero_length_run(self, position):
        offset = GOOD[position][0]
        error = assert_refused_like_the_loop(_planted(position, (offset, 0, 5)))
        assert isinstance(error, MapError) and str(error) == "mmap of zero pages"

    @POSITIONS
    def test_negative_length_run(self, position):
        offset = GOOD[position][0]
        error = assert_refused_like_the_loop(_planted(position, (offset, -3, 5)))
        assert str(error) == "mmap of zero pages"

    @POSITIONS
    def test_negative_file_page(self, position):
        offset, npages, _ = GOOD[position]
        error = assert_refused_like_the_loop(_planted(position, (offset, npages, -1)))
        assert isinstance(error, MapError)
        assert str(error).startswith("file range [-1, ")

    @POSITIONS
    def test_run_reaching_past_the_last_file_page(self, position):
        offset, npages, _ = GOOD[position]
        bad = (offset, npages, FILE_PAGES - npages + 1)
        error = assert_refused_like_the_loop(_planted(position, bad))
        assert isinstance(error, MapError)
        assert str(error).endswith(f"outside 'db' ({FILE_PAGES} pages)")

    def test_run_ending_on_the_last_file_page_is_fine(self):
        stack = Stack()
        stack.map_runs(_planted(3, (6, 4, FILE_PAGES - 4)))
        assert stack.mapper.translate(stack.base + 9) == (stack.file, FILE_PAGES - 1)

    @POSITIONS
    def test_negative_vpn(self, position):
        stack = Stack()
        _, npages, file_page = GOOD[position]
        # later runs keep their places: only the address is bad, not the order
        runs = _planted(position, (-stack.base - 7, npages, file_page))
        error = assert_refused_like_the_loop(runs)
        assert isinstance(error, ValueError) and not isinstance(error, MapError)
        assert str(error) == "VMA addresses must be non-negative"

    def test_the_first_offending_run_decides(self):
        """Two defects: the loop stopped at the earlier run, whatever
        kind the later one is."""
        stack = Stack()
        early_address = [(-stack.base - 1, 2, 0), (2, 0, 8)]
        assert isinstance(assert_refused_like_the_loop(early_address), ValueError)
        early_length = [(0, 0, 0), (-stack.base - 1, 3, 8)]
        assert str(assert_refused_like_the_loop(early_length)) == "mmap of zero pages"
        both_in_one = [(0, 2, 0), (-stack.base - 1, 0, 8)]
        assert str(assert_refused_like_the_loop(both_in_one)) == "mmap of zero pages"

    def test_an_empty_plan_is_still_no_call(self):
        stack = Stack()
        before = stack.state()
        stack.map_runs([])
        assert stack.state() == before


def _random_plan(rng: np.random.Generator, base: int) -> list[tuple]:
    """A plan in address order; about two in three carry planted defects."""
    runs, at = [], int(rng.integers(0, 4))
    for _ in range(int(rng.integers(1, 9))):
        npages = int(rng.integers(1, 5))
        runs.append((at, npages, int(rng.integers(0, FILE_PAGES - npages + 1))))
        at += npages + int(rng.integers(0, 3))
    for _ in range(int(rng.integers(0, 3))):
        k = int(rng.integers(0, len(runs)))
        offset, npages, file_page = runs[k]
        defect = int(rng.integers(0, 5))
        if defect == 0:
            runs[k] = (offset, int(rng.integers(-2, 1)), file_page)
        elif defect == 1:
            runs[k] = (offset, npages, -int(rng.integers(1, 4)))
        elif defect == 2:
            runs[k] = (offset, npages, FILE_PAGES - npages + int(rng.integers(1, 4)))
        elif defect == 3:
            runs[k] = (-base - int(rng.integers(1, 9)), npages, file_page)
        # defect 4: none after all
    return runs


def test_bulk_seeded_plans():
    """REPRO_FUZZ_SCHEDULES random plans derived from REPRO_SEED: a bad
    one is refused as the loop refused it and changes nothing, a good
    one is applied."""
    refused = applied = 0
    for i in range(FUZZ_SCHEDULES):
        seed = derive_seed(i)
        stack = Stack()
        runs = _random_plan(np.random.default_rng(seed), stack.base)
        want = stack.expected_error(runs)
        before = stack.state()
        try:
            if want is None:
                stack.map_runs(runs)
                assert stack.state()["counters"]["mmap_calls"] == 2 + len(runs)
                applied += 1
            else:
                with pytest.raises(type(want)) as caught:
                    stack.map_runs(runs)
                assert type(caught.value) is type(want)
                assert str(caught.value) == str(want)
                assert stack.state() == before
                refused += 1
        except AssertionError as exc:
            raise AssertionError(f"sweep entry {i} (seed {seed}): {exc}") from exc
    if FUZZ_SCHEDULES >= 50:
        assert refused and applied, (refused, applied)


class TestVmaStaysStrict:
    def test_direct_construction_still_validates(self):
        with pytest.raises(ValueError, match="at least one page"):
            Vma(3, 0)
        with pytest.raises(ValueError, match="at least one page"):
            Vma(3, -2)
        with pytest.raises(ValueError, match="non-negative"):
            Vma(-1, 2)
        with pytest.raises(ValueError, match="non-negative"):
            Vma(0, 2, file_page=-1)

    def test_a_placed_vma_is_an_ordinary_immutable_vma(self):
        stack = Stack()
        stack.map_runs(GOOD)
        placed = stack.mapper.address_space.find_vma(stack.base + 3)
        assert placed == Vma(stack.base + 2, 3, stack.file, 8)
        assert hash(placed) == hash(Vma(stack.base + 2, 3, stack.file, 8))
        for name in ("start", "npages", "file", "file_page", "shared", "perms"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(placed, name, getattr(placed, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            del placed.start
        assert dataclasses.replace(placed, perms="r").perms == "r"
        # what is derived from a placed area is as closed as the area
        for derived in placed.split_at(stack.base + 3):
            with pytest.raises(dataclasses.FrozenInstanceError):
                derived.npages = 1
