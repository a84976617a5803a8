"""The substrate protocol's abstract surface, pinned.

A backend implements exactly these methods; rewiring reaches it only as
an ``apply_runs`` plan, in both directions: a plan with a file maps
file pages, a plan without one points its runs back at the anonymous
reservation.  ``map_runs`` (a booked plan) and ``map_fixed`` (a booked
plan of one run) are concrete in the base class, so no backend defines
them; no backend has an ``unmap_slot`` or a ``munmap`` of its own
(``release_region`` is the one tear-down), and the protocol has no
``protect``, ``mprotect`` or ``access``.  The one read through the
translation is the uncharged ``peek_virtual``: no backend has a
``read_virtual`` beside it.
"""

from __future__ import annotations

from repro.faults import FaultySubstrate
from repro.substrate import SimulatedSubstrate
from repro.substrate.interface import Substrate
from repro.substrate.native import NativeSubstrate

ABSTRACT = {
    "create_file",
    "get_file",
    "delete_file",
    "files",
    "reserve",
    "map_file",
    "apply_runs",
    "release_region",
    "peek_virtual",
    "maps_text",
    "maps_snapshot",
    "maps_line_count",
    "file_map_path",
}

BACKENDS = (SimulatedSubstrate, NativeSubstrate, FaultySubstrate)


def test_abstract_methods_are_pinned():
    assert set(Substrate.__abstractmethods__) == ABSTRACT


#: What neither the base class nor any backend defines: the one read is
#: ``peek_virtual``, and no permission model or charged access exists.
NEVER = ("unmap_slot", "munmap", "protect", "read_virtual", "mprotect", "access")


def test_no_backend_defines_a_second_mapping_path():
    for backend in BACKENDS:
        for name in ("map_fixed", "map_runs", *NEVER):
            assert name not in vars(backend), f"{backend.__name__}.{name}"
    for name in NEVER:
        assert not hasattr(Substrate, name), name
        for backend in BACKENDS:
            assert not hasattr(backend, name), f"{backend.__name__}.{name}"
    assert not hasattr(NativeSubstrate, "_rewire")


def test_map_fixed_resolves_to_the_base_class_plan():
    # benchmarks/stack/trace.py looks the method up on both backends by name
    for backend in (SimulatedSubstrate, NativeSubstrate):
        assert backend.map_fixed is Substrate.map_fixed


def test_the_mapper_keeps_one_plan_form():
    # The simulated kernel applies a plan in apply_runs alone: map_runs
    # and map_fixed are the base class's bookings of it, and it has no
    # mmap entry point of its own.
    assert "apply_runs" in vars(SimulatedSubstrate)
    for name in ("remap_fixed", "mmap"):
        assert not hasattr(SimulatedSubstrate, name), name
