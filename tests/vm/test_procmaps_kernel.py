"""The maps parsers against genuine kernel ``/proc/self/maps`` output.

The other procmaps tests exercise the text the *simulator* renders; the
native substrate reads the kernel's own output instead, with
:func:`~repro.vm.procmaps.maps_rows`.  These tests pin the
kernel-format oracle ``parse_maps`` (:mod:`tests.vm.snapshot_oracle`)
to that format twice over: against a committed capture from a real
Linux process (with memfd-backed mappings, a pathname containing
spaces, anonymous mappings and the ``[heap]``/``[stack]``/``[vdso]``
pseudo-paths), and — on Linux — against a live read of this very
process.  ``maps_rows`` is then pinned to the oracle on the capture:
the same rows for every choice of files, areas and file filter, and a
line not in maps format refused.
"""

import os
import sys
from pathlib import Path

import pytest

from repro.vm.address_space import AddressSpace
from repro.vm.constants import PAGE_SIZE
from repro.vm.cost import CostModel
from repro.vm.errors import ProcMapsError
from repro.vm.procmaps import maps_rows

from .snapshot_oracle import entries_rows, listed, parse_maps

FIXTURE = Path(__file__).parent / "fixtures" / "proc_self_maps.txt"


@pytest.fixture(scope="module")
def capture() -> str:
    return FIXTURE.read_text()


@pytest.fixture(scope="module")
def entries(capture):
    return parse_maps(capture)


class TestKernelCapture:
    def test_every_line_parses(self, capture, entries):
        assert len(entries) == len(capture.splitlines())

    def test_pseudo_paths(self, entries):
        paths = {e.pathname for e in entries}
        assert "[heap]" in paths
        assert "[stack]" in paths
        assert "[vdso]" in paths
        assert "[vsyscall]" in paths

    def test_memfd_pathname_with_spaces(self, entries):
        """memfd pathnames keep their spaces and '(deleted)' suffix —
        the native substrate matches stores to maps lines by this."""
        matches = [e for e in entries if "t.col with space" in e.pathname]
        assert len(matches) == 1
        entry = matches[0]
        assert entry.pathname == "/memfd:t.col with space (deleted)"
        assert entry.npages == 4
        assert entry.perms == "rw-s"
        assert entry.file_page == 0
        assert not entry.anonymous

    def test_anonymous_mappings(self, entries):
        anonymous = [e for e in entries if e.anonymous]
        assert anonymous
        assert all(e.pathname == "" for e in anonymous)
        assert all(e.inode == 0 for e in anonymous)

    def test_entries_sorted_and_disjoint(self, entries):
        for prev, cur in zip(entries, entries[1:]):
            assert prev.end_vpn <= cur.start_vpn

    def test_file_offsets_are_page_units(self, entries):
        """Kernel offsets are hex bytes; parse_maps exposes file pages."""
        offset_mapped = [e for e in entries if e.file_page > 0]
        assert offset_mapped  # the python binary maps several segments
        python_segments = [
            e for e in entries if e.pathname.endswith("/python3.11")
        ]
        assert len(python_segments) > 1
        assert any(e.file_page > 0 for e in python_segments)

    def test_vsyscall_perms_parse(self, entries):
        vsyscall = next(e for e in entries if e.pathname == "[vsyscall]")
        assert vsyscall.perms == "--xp"

    def test_parse_cost_charged_per_line(self, capture):
        cost = CostModel()
        parse_maps(capture, cost=cost)
        assert cost.ledger.counter("maps_lines_parsed") == len(
            capture.splitlines()
        )


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="needs /proc/self/maps"
)
class TestLiveProcSelfMaps:
    def test_parses_this_process(self):
        with open("/proc/self/maps") as fh:
            text = fh.read()
        entries = parse_maps(text)
        assert len(entries) == len(text.splitlines())
        assert "[stack]" in {e.pathname for e in entries}
        assert any(e.anonymous for e in entries)

    def test_live_memfd_mapping_round_trips(self):
        if not hasattr(os, "memfd_create"):
            pytest.skip("no memfd_create on this kernel")
        import mmap as _mmap

        fd = os.memfd_create("live maps probe")
        try:
            os.ftruncate(fd, 3 * PAGE_SIZE)
            mm = _mmap.mmap(fd, 3 * PAGE_SIZE, _mmap.MAP_SHARED)
            try:
                path = os.readlink(f"/proc/self/fd/{fd}")
                with open("/proc/self/maps") as fh:
                    entries = parse_maps(fh.read())
                ours = [e for e in entries if e.pathname == path]
                assert len(ours) == 1
                assert ours[0].npages == 3
                assert ours[0].inode == os.fstat(fd).st_ino
            finally:
                mm.close()
        finally:
            os.close(fd)


def _book(entries) -> AddressSpace:
    """A page table whose anonymous areas cover exactly ``entries``."""
    book = AddressSpace()
    for e in entries:
        book.add_mapping(e.start_vpn, e.npages)
    return book


def _oracle_rows(entries, paths, book, file_filter=None):
    """The oracle's rows: lines of ``paths``' inodes inside ``book``."""
    kept = [
        e
        for e in entries
        if str(e.inode) in paths
        and book.find_vma(e.start_vpn) is not None
        and book.find_vma(e.end_vpn - 1) is not None
    ]
    return listed(entries_rows(kept, file_filter))


class TestMapsRowsOnTheCapture:
    """``maps_rows``, the native snapshot's row reader, against the
    ``parse_maps`` oracle on the committed kernel capture."""

    @pytest.fixture(scope="class")
    def paths(self, entries):
        """Every file the capture maps, by inode, under its pathname."""
        return {str(e.inode): e.pathname for e in entries if e.inode}

    def test_every_file_inside_every_area(self, capture, entries, paths):
        book = _book(entries)
        rows = listed(maps_rows(capture, paths, book))
        assert rows == _oracle_rows(entries, paths, book)
        names, kept = rows
        assert "/memfd:t.col with space (deleted)" in names
        assert any(row[2] > 0 for row in kept)  # file offsets, in pages
        assert len(kept) == sum(1 for e in entries if e.inode)

    def test_areas_and_inodes_drop_lines(self, capture, entries, paths):
        book = _book(entries[::2])
        memfds = {inode: path for inode, path in paths.items() if "memfd" in path}
        for chosen in (paths, memfds, {}):
            rows = listed(maps_rows(capture, chosen, book))
            assert rows == _oracle_rows(entries, chosen, book)
        assert listed(maps_rows(capture, paths, AddressSpace())) == ([], [])

    def test_file_filter(self, capture, entries, paths):
        book = _book(entries)
        for path in ("/memfd:t.col with space (deleted)", "[heap]", "/nowhere"):
            rows = listed(maps_rows(capture, paths, book, file_filter=path))
            assert rows == _oracle_rows(entries, paths, book, file_filter=path)
        python = next(p for p in paths.values() if p.endswith("/python3.11"))
        names, kept = listed(maps_rows(capture, paths, book, file_filter=python))
        assert names == [python] and len(kept) > 1

    @pytest.mark.parametrize(
        "line",
        [
            "this is not a maps line",
            "00400000-00401000 r-xp",
            "00400000-00401000 r-xp 00000000 08:01 not-an-inode /x",
            "0040z000-00401000 rw-s 00000000 00:01 390 /memfd:x",
            "00400000+00401000 rw-s 00000000 00:01 390 /memfd:x",
            "00400000-00401000 rw-s 00000010 00:01 390 /memfd:x",
            "00401000-00400000 rw-s 00000000 00:01 390 /memfd:x",
        ],
    )
    def test_a_line_not_in_maps_format_is_refused(self, capture, entries, line):
        book = _book(entries)
        book.add_mapping(0x400, 1)
        with pytest.raises(ProcMapsError):
            parse_maps(line)
        with pytest.raises(ProcMapsError):
            maps_rows(capture + line + "\n", {"390": "/memfd:x"}, book)
