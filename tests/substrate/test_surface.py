"""The substrate protocol's abstract surface, pinned.

A backend implements exactly these methods; rewiring reaches it only as
an ``apply_runs`` plan (its syscalls through ``_issue_runs``), in both
directions: a plan with a file maps
file pages, a plan without one points its runs back at the anonymous
reservation.  ``map_runs`` (a booked plan) and ``map_fixed`` (a booked
plan of one run) are concrete in the base class, so no backend defines
them; no backend has an ``unmap_slot`` or a ``munmap`` of its own
(``release_region`` is the one tear-down), and the protocol has no
``protect``, ``mprotect`` or ``access``.  The one read through the
translation is the uncharged ``read_mapped`` of a virtual range: no
backend has a per-page read (``peek_virtual``, ``read_virtual``) beside
it.
"""

from __future__ import annotations

from repro.faults import FaultySubstrate
from repro.substrate import SimulatedSubstrate
from repro.substrate.interface import Substrate
from repro.substrate.native import NativeSubstrate

#: ``reserve``, ``map_file``, ``apply_runs``, ``release_region``,
#: ``read_mapped``, ``maps_line_count`` and ``maps_snapshot`` are
#: written once, in the base class, over the page table both backends
#: keep; a backend supplies only the step that differs (the private
#: hooks; ``_maps_rows`` has a default, read off the page table).
ABSTRACT = {
    "create_file",
    "get_file",
    "delete_file",
    "files",
    "_place_area",
    "_issue_runs",
    "_unmap_area",
    "_read_pages",
    "maps_text",
    "file_map_path",
}

BACKENDS = (SimulatedSubstrate, NativeSubstrate, FaultySubstrate)


def test_abstract_methods_are_pinned():
    assert set(Substrate.__abstractmethods__) == ABSTRACT


#: What neither the base class nor any backend defines: the one read is
#: ``read_mapped``, and no permission model or charged access exists.
NEVER = (
    "unmap_slot", "munmap", "protect", "read_virtual", "peek_virtual",
    "_read_page", "mprotect", "access",
)


def test_no_backend_defines_a_second_mapping_path():
    for backend in BACKENDS:
        for name in ("map_fixed", "map_runs", *NEVER):
            assert name not in vars(backend), f"{backend.__name__}.{name}"
    for name in NEVER:
        assert not hasattr(Substrate, name), name
        for backend in BACKENDS:
            assert not hasattr(backend, name), f"{backend.__name__}.{name}"
    assert not hasattr(NativeSubstrate, "_rewire")


def test_the_page_table_operations_are_written_once():
    # Check, book, charge and observer live in the base class alone; a
    # backend keeps only its hooks.
    once = (
        "reserve", "map_file", "apply_runs", "release_region",
        "read_mapped", "maps_line_count", "maps_snapshot", "book_discard",
    )
    for backend in (SimulatedSubstrate, NativeSubstrate):
        for name in once:
            assert name not in vars(backend), f"{backend.__name__}.{name}"
    # the simulated backend's snapshot rows are the base class's own
    assert "_maps_rows" not in vars(SimulatedSubstrate)


def test_map_fixed_resolves_to_the_base_class_plan():
    # benchmarks/stack/trace.py looks the method up on both backends by name
    for backend in (SimulatedSubstrate, NativeSubstrate):
        assert backend.map_fixed is Substrate.map_fixed


def test_the_mapper_keeps_one_plan_form():
    # A plan is applied in the base class's apply_runs alone: map_runs
    # and map_fixed are its bookings, and the simulated kernel has no
    # mmap entry point of its own.
    assert SimulatedSubstrate.apply_runs is Substrate.apply_runs
    for name in ("remap_fixed", "mmap"):
        assert not hasattr(SimulatedSubstrate, name), name
