"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage.column import PhysicalColumn
from repro.substrate import SimulatedSubstrate
from repro.vm.cost import CostModel
from repro.vm.constants import VALUES_PER_PAGE
from repro.vm.physical import PhysicalMemory


@pytest.fixture
def memory() -> PhysicalMemory:
    """A small fresh simulated machine (256 MiB)."""
    return PhysicalMemory(capacity_bytes=256 * 1024 * 1024, cost=CostModel())


@pytest.fixture
def substrate(memory: PhysicalMemory) -> SimulatedSubstrate:
    """A fresh address space on the small machine."""
    return SimulatedSubstrate(memory)


def build_column(
    values: np.ndarray, name: str = "col", capacity_mb: int = 256
) -> PhysicalColumn:
    """Materialize ``values`` in a brand-new simulated process."""
    memory = PhysicalMemory(capacity_bytes=capacity_mb * 1024 * 1024, cost=CostModel())
    return PhysicalColumn.create(
        SimulatedSubstrate(memory=memory), name, values
    )


def uniform_column(
    num_pages: int = 32,
    lo: int = 0,
    hi: int = 1_000_000,
    seed: int = 0,
    name: str = "col",
) -> PhysicalColumn:
    """A fresh column of uniform random values."""
    rng = np.random.default_rng(seed)
    values = rng.integers(lo, hi, endpoint=True, size=num_pages * VALUES_PER_PAGE)
    return build_column(values, name=name)


def to_reservation(substrate, vpn: int, npages: int = 1) -> None:
    """Point ``npages`` pages from ``vpn`` back at reservation memory: a
    one-run plan without a file."""
    run = np.array([npages], dtype=np.int64)
    substrate.map_runs(np.array([vpn], dtype=np.int64), run, None, run)


def book_run(book, start: int, npages: int, file=None, file_page: int = 0) -> None:
    """``MAP_FIXED`` one run into a bare page table: no checks, no charges."""
    book.map_runs([start], [npages], file, [file_page])


def reference_rows(values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Ground-truth row ids for a range predicate."""
    return np.nonzero((values >= lo) & (values <= hi))[0]


def layer_hooks(column: PhysicalColumn) -> list:
    """The pre-write hooks of every adaptive storage layer built over
    ``column`` and not shut down, whoever owns it.

    Each layer registers one hook on its column until it shuts down —
    its dirty-page set's ``add``, which holds the set, not the layer — so
    the hooks count the layers even when no registry holds them, and
    ``layer._note_write`` names its layer's.
    """
    return [
        hook
        for hook in column._pre_write_hooks
        if isinstance(getattr(hook, "__self__", None), set)
    ]


@pytest.fixture
def small_column() -> PhysicalColumn:
    """A 32-page uniform column for quick correctness tests."""
    return uniform_column()
