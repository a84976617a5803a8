"""One page table, one plan check, on both backends.

``Substrate`` checks every mapping operation before the backend issues
anything, then books it in its page table (``address_space``).  So a run
that reaches outside its file is refused alike on both backends, before
any syscall (on native, a read of such a page would raise SIGBUS); so is
a run with a page outside every area the page table holds, its first
page or a later one (on native, a real ``MAP_FIXED`` over whatever the
process has mapped there); and a
plan the backend fails at run ``k`` leaves runs ``[0, k)`` in the page
table, as in the kernel, and no more.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.native import is_supported
from repro.substrate import SimulatedSubstrate, make_substrate
from repro.vm.errors import MapError

from ..conftest import to_reservation
from ..vm.snapshot_oracle import parse_maps

needs_native = pytest.mark.skipif(
    not is_supported(), reason="native rewiring unsupported here"
)

BACKENDS = [
    pytest.param("simulated", id="simulated"),
    pytest.param("native", id="native", marks=needs_native),
]


def _state(sub, path: str) -> tuple:
    """What a refused call must leave as it was: the file's lines in the
    page table and in the maps source, the ledger, the syscall counts."""
    maps_lines = sum(1 for e in parse_maps(sub.maps_text()) if e.pathname == path)
    wall = sub.wall.snapshot() if sub.wall is not None else {}
    wall.pop("maps_read", None)
    return (
        sub.maps_line_count(path),
        maps_lines,
        sub.cost.ledger.counters(),
        {op: calls["calls"] for op, calls in wall.items()},
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda sub, f, v: sub.map_fixed(v, 2, f, 10), id="map_fixed-past-the-end"),
        pytest.param(lambda sub, f, v: sub.map_fixed(v, 2, f, 3), id="map_fixed-across-the-end"),
        pytest.param(lambda sub, f, v: sub.map_fixed(v, 1, f, -1), id="map_fixed-before-the-start"),
        pytest.param(lambda sub, f, v: sub.map_file(2, f, 3), id="map_file-across-the-end"),
        pytest.param(lambda sub, f, v: sub.map_file(5, f), id="map_file-longer-than-the-file"),
    ],
)
def test_a_run_outside_its_file_is_refused(backend, call):
    sub = make_substrate(backend)
    try:
        file = sub.create_file("f", 4)
        base = sub.reserve(8)
        path = sub.file_map_path(file)
        before = _state(sub, path)
        with pytest.raises(MapError, match="outside"):
            call(sub, file, base)
        assert _state(sub, path) == before
        assert sub.read_mapped(base, 8)[0].size == 0
    finally:
        sub.close()


def _released(sub, f, v):
    sub.release_region(v, 4, 0)
    sub.map_fixed(v, 2, f, 0)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda sub, f, v: sub.map_fixed(v + 100, 2, f, 0), id="past-the-area"),
        pytest.param(
            lambda sub, f, v: sub.map_runs(
                v + np.array([0, 100]), np.array([1, 1]), f, np.array([0, 1])
            ),
            id="second-run-past-the-area",
        ),
        pytest.param(lambda sub, f, v: to_reservation(sub, v + 100, 2), id="anonymous"),
        pytest.param(_released, id="released-area"),
    ],
)
def test_a_run_outside_every_area_is_refused(backend, call, monkeypatch):
    """``reserve(4)`` then ``map_fixed(base + 100, 2, f, 0)``: refused
    whole, before the backend is asked to issue anything."""
    sub = make_substrate(backend)
    try:
        file = sub.create_file("f", 4)
        base = sub.reserve(4)
        path = sub.file_map_path(file)

        def issued(*args):
            pytest.fail("a plan outside every area reached the backend")

        monkeypatch.setattr(sub, "_issue_runs", issued)
        with pytest.raises(MapError, match="outside every area"):
            call(sub, file, base)
        assert sub.maps_line_count(path) == 0
        assert sub.cost.ledger.counter("pages_mapped") == 0
    finally:
        sub.close()


def _into_a_hole(sub, f, v):
    """Two side-by-side areas, the second released: a run from the first
    goes on into the hole the second left."""
    second = sub.reserve(4)
    assert second == v + 4
    sub.release_region(second, 4, 0)
    sub.map_fixed(v + 2, 4, f, 0)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda sub, f, v: sub.map_fixed(v + 2, 4, f, 0), id="past-the-last-area"),
        pytest.param(_into_a_hole, id="into-a-hole"),
        pytest.param(
            lambda sub, f, v: sub.map_runs(
                v + np.array([0, 3]), np.array([1, 2]), f, np.array([0, 1])
            ),
            id="second-run-past-the-area",
        ),
        pytest.param(lambda sub, f, v: to_reservation(sub, v + 3, 2), id="anonymous"),
    ],
)
def test_a_run_leaving_its_area_is_refused(backend, call, monkeypatch):
    """``reserve(4)`` then ``map_fixed(base + 2, 4, f, 0)``: the run starts
    inside the area but its last pages lie outside every area, so the
    plan is refused whole, before the backend is asked to issue
    anything — on native, a ``MAP_FIXED`` over memory the substrate
    does not own."""
    sub = make_substrate(backend)
    try:
        file = sub.create_file("f", 8)
        base = sub.reserve(4)
        path = sub.file_map_path(file)

        def issued(*args):
            pytest.fail("a run leaving its area reached the backend")

        monkeypatch.setattr(sub, "_issue_runs", issued)
        with pytest.raises(MapError, match="outside every area"):
            call(sub, file, base)
        assert sub.maps_line_count(path) == 0
        assert sub.cost.ledger.counter("pages_mapped") == 0
    finally:
        sub.close()


class _Planted(OSError):
    """The error a backend reports for the run it could not issue."""


def _failing_at(backend: str, k: int):
    """A ``backend`` substrate whose next plan stops at run ``k``: runs
    ``[0, k)`` are issued for real, then the backend reports an error."""
    if backend == "simulated":
        base_cls = SimulatedSubstrate
    else:
        from repro.substrate.native import NativeSubstrate as base_cls

    class FailingAt(base_cls):
        def _issue_runs(self, vpns, npages, file, file_pages, populate):
            applied, _ = super()._issue_runs(
                vpns[:k], npages[:k], file, file_pages[:k], populate
            )
            return applied, _Planted("planted failure")

    return FailingAt()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_a_plan_failing_at_run_k_books_the_runs_before_it(backend, k):
    sub = _failing_at(backend, k)
    try:
        file = sub.create_file("f", 16)
        base = sub.reserve(12)
        calls = []

        class Spy:
            def on_mmap(self, kind, pages):
                calls.append((kind, pages))

        sub.set_observer(Spy())
        vpns = base + np.array([0, 4, 8], dtype=np.int64)
        npages = np.array([2, 2, 2], dtype=np.int64)
        with pytest.raises(_Planted):
            sub.apply_runs(vpns, npages, file, np.array([1, 5, 9], dtype=np.int64))
        book = sub.address_space
        for i, (vpn, fpage) in enumerate(zip(vpns.tolist(), (1, 5, 9))):
            want = (file, fpage) if i < k else None
            assert book.translate(vpn) == want, i
        assert calls == [("fixed", 2)] * k
        path = sub.file_map_path(file)
        assert sub.maps_line_count(path) == k
        kernel = {e.start_vpn for e in parse_maps(sub.maps_text()) if e.pathname == path}
        if backend == "native":
            assert kernel >= set(vpns[:k].tolist())
            assert not kernel & set(vpns[k:].tolist())
    finally:
        sub.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_read_returns_the_file_pages_of_its_range_only(backend):
    """``read_mapped`` skips the reservation slots wherever the range
    starts, ends or holes, and clips the edge runs to the range."""
    sub = make_substrate(backend)
    try:
        file = sub.create_file("f", 16)
        file.data[:, 0] = np.arange(16) * 10
        base = sub.reserve(10)
        # slots 3-4 map pages 9-10, slots 7-8 pages 2-3; the rest is reserved
        sub.map_runs(base + np.array([3, 7]), np.array([2, 2]), file, np.array([9, 2]))
        for start, npages, pages in [
            (0, 10, [9, 10, 2, 3]),
            (1, 8, [9, 10, 2, 3]),
            (4, 4, [10, 2]),
            (6, 4, [2, 3]),
            (8, 2, [3]),
            (0, 3, []),
        ]:
            headers, values = sub.read_mapped(base + start, npages)
            assert headers.tolist() == pages, (start, npages)
            assert values[:, 0].tolist() == [10 * p for p in pages], (start, npages)
    finally:
        sub.close()
