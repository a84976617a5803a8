"""The substrate protocol's abstract surface, pinned.

A backend implements exactly these methods; rewiring reaches it only as
an ``apply_runs`` plan, in both directions: a plan with a file maps
file pages, a plan without one points its runs back at the anonymous
reservation.  ``map_runs`` (a booked plan) and ``map_fixed`` (a booked
plan of one run) are concrete in the base class, so no backend defines
them; no backend has an ``unmap_slot`` or a ``munmap`` of its own
(``release_region`` is the one tear-down), and the protocol has no
``protect``.
"""

from __future__ import annotations

from repro.faults import FaultySubstrate
from repro.substrate import SimulatedSubstrate
from repro.substrate.interface import Substrate
from repro.substrate.native import NativeSubstrate
from repro.vm.mmap_api import MemoryMapper

ABSTRACT = {
    "create_file",
    "get_file",
    "delete_file",
    "files",
    "reserve",
    "map_file",
    "apply_runs",
    "release_region",
    "read_virtual",
    "maps_text",
    "maps_snapshot",
    "maps_line_count",
    "file_map_path",
}

BACKENDS = (SimulatedSubstrate, NativeSubstrate, FaultySubstrate)


def test_abstract_methods_are_pinned():
    assert set(Substrate.__abstractmethods__) == ABSTRACT


def test_no_backend_defines_a_second_mapping_path():
    for backend in BACKENDS:
        for name in ("map_fixed", "map_runs", "unmap_slot", "munmap", "protect"):
            assert name not in vars(backend), f"{backend.__name__}.{name}"
    for name in ("unmap_slot", "munmap", "protect"):
        assert not hasattr(Substrate, name), name
    assert not hasattr(NativeSubstrate, "_rewire")


def test_map_fixed_resolves_to_the_base_class_plan():
    # benchmarks/stack/trace.py looks the method up on both backends by name
    for backend in (SimulatedSubstrate, NativeSubstrate):
        assert backend.map_fixed is Substrate.map_fixed


def test_the_mapper_keeps_one_plan_form():
    assert hasattr(MemoryMapper, "apply_runs")
    for name in ("map_runs", "remap_fixed"):
        assert not hasattr(MemoryMapper, name)
