"""Unit tests for /proc/PID/maps rendering, parsing and snapshots.

``parse_maps`` is the kernel-format oracle of :mod:`tests.vm.snapshot_oracle`.
"""

import numpy as np
import pytest

from repro.substrate import SimulatedSubstrate
from repro.vm.cost import CostModel
from repro.vm.errors import ProcMapsError
from repro.vm.procmaps import MappingSnapshot, render_maps

from ..oracle_paths import production_paths, reference_paths
from .snapshot_oracle import parse_maps


@pytest.fixture
def file(memory):
    return memory.create_file("db", 64)


class TestRenderAndParse:
    def test_roundtrip(self, substrate, file):
        base = substrate.map_file(4, file, 8)
        substrate.reserve(2)  # anonymous
        text = render_maps(substrate.address_space)
        entries = parse_maps(text)
        assert len(entries) == 2
        backed = next(e for e in entries if not e.anonymous)
        assert backed.start_vpn == base
        assert backed.npages == 4
        assert backed.file_page == 8
        assert backed.pathname == "/dev/shm/db"
        assert backed.inode == file.inode

    def test_kernel_format_fields(self, substrate, file):
        substrate.map_file(1, file, 3)
        line = render_maps(substrate.address_space).splitlines()[0]
        addr, perms, offset, dev, inode, path = line.split()
        assert "-" in addr
        assert perms == "rw-s"
        assert int(offset, 16) == 3 * 4096
        assert dev == "03:0c"
        assert path.startswith("/dev/shm/")

    def test_parse_real_proc_line(self):
        text = (
            "7f2c3a000000-7f2c3a021000 rw-s 00002000 08:01 131072 "
            "/dev/shm/example\n"
            "7f2c3b000000-7f2c3b001000 r-xp 00000000 08:01 999 "
            "/usr/lib/x86_64-linux-gnu/libc.so.6\n"
        )
        entries = parse_maps(text)
        assert entries[0].npages == 0x21
        assert entries[0].file_page == 2
        assert entries[1].perms == "r-xp"

    def test_parse_own_process_maps(self):
        """The parser handles the real kernel file of this process."""
        with open("/proc/self/maps") as f:
            entries = parse_maps(f.read())
        assert len(entries) > 10
        assert all(e.npages > 0 for e in entries)

    def test_parse_garbage_rejected(self):
        with pytest.raises(ProcMapsError):
            parse_maps("this is not a maps line\n")

    def test_parse_unaligned_rejected(self):
        with pytest.raises(ProcMapsError):
            parse_maps("00000001-00001000 rw-s 00000000 03:0c 1 /dev/shm/x\n")

    def test_parse_inverted_rejected(self):
        with pytest.raises(ProcMapsError):
            parse_maps("00002000-00001000 rw-s 00000000 03:0c 1 /dev/shm/x\n")

    def test_parse_charges_per_line(self, substrate, file):
        substrate.map_file(1, file)
        substrate.map_file(1, file, 10)
        text = render_maps(substrate.address_space)
        cost = CostModel()
        parse_maps(text, cost=cost)
        params = cost.params
        lines = len(text.splitlines())
        assert cost.ledger.lane_ns() == pytest.approx(
            params.maps_file_open_ns + lines * params.maps_line_parse_ns
        )

    def test_empty_address_space(self):
        from repro.vm.address_space import AddressSpace

        assert render_maps(AddressSpace()) == ""
        assert parse_maps("") == []

    def test_vma_merging_shrinks_the_file(self, memory, file):
        """Consecutive rewired pages merge into one line — the effect
        behind Figure 7's cheaper parse on clustered data."""
        substrate = SimulatedSubstrate(memory)
        base = substrate.reserve(8)
        for i in range(8):
            substrate.map_fixed(base + i, 1, file, 16 + i)
        scattered = SimulatedSubstrate(memory)
        sbase = scattered.reserve(8)
        for i in range(8):
            scattered.map_fixed(sbase + i, 1, file, 2 * i)
        merged_lines = len(render_maps(substrate.address_space).splitlines())
        scattered_lines = len(render_maps(scattered.address_space).splitlines())
        assert merged_lines == 1
        assert scattered_lines == 8


class TestMappingSnapshot:
    def test_build_from_entries(self, substrate, file):
        base = substrate.map_file(4, file, 8)
        snapshot = substrate.maps_snapshot()
        assert snapshot.physical_of(base + 2) == ("/dev/shm/db", 10)
        assert base + 2 in snapshot.virtuals_of(("/dev/shm/db", 10))

    def test_anonymous_entries_skipped(self, substrate, file):
        substrate.reserve(4)
        substrate.map_file(2, file, 0)
        snapshot = substrate.maps_snapshot()
        assert len(snapshot) == 2

    def test_file_filter(self, substrate, memory, file):
        other = memory.create_file("other", 8)
        substrate.map_file(2, file, 0)
        substrate.map_file(2, other, 0)
        snapshot = substrate.maps_snapshot(file_filter="/dev/shm/db")
        assert len(snapshot) == 2
        assert all(path == "/dev/shm/db" for path, _ in [snapshot.physical_of(v) for v in list(range(0x10000, 0x10100)) if snapshot.physical_of(v)])

    def test_shared_physical_pages(self):
        snapshot = MappingSnapshot()
        snapshot.map(100, ("f", 7))
        snapshot.map(200, ("f", 7))
        assert snapshot.virtuals_of(("f", 7)) == frozenset({100, 200})

    def test_remap_updates_reverse_side(self):
        snapshot = MappingSnapshot()
        snapshot.map(100, ("f", 7))
        snapshot.map(100, ("f", 9))
        assert snapshot.physical_of(100) == ("f", 9)
        assert snapshot.virtuals_of(("f", 7)) == frozenset()

    def test_unmap(self):
        snapshot = MappingSnapshot()
        snapshot.map(100, ("f", 7))
        snapshot.unmap(100)
        assert snapshot.physical_of(100) is None
        assert len(snapshot) == 0
        snapshot.unmap(100)  # idempotent

    def test_snapshot_charges_bimap_ops(self, substrate, file):
        substrate.map_file(4, file, 0)
        cost = CostModel()
        substrate.maps_snapshot(cost=cost)
        assert cost.ledger.counter("bimap_ops") >= 4
        assert cost.ledger.counter("maps_lines_parsed") == 1


class TestMapsCache:
    def _parse_costs(self, substrate, **kwargs):
        cost = CostModel()
        substrate.maps_snapshot(cost=cost, **kwargs)
        return cost.ledger.snapshot()

    def test_cache_hit_charges_the_same_simulated_cost(self, substrate, file):
        with production_paths():
            substrate.map_file(4, file, 0)
            substrate.map_file(3, file, 8)
            miss = self._parse_costs(substrate)
            hit = self._parse_costs(substrate)
        with reference_paths():
            reference = self._parse_costs(substrate)
        assert hit == miss == reference

    def test_snapshots_agree_across_backends(self, substrate, file):
        substrate.map_file(4, file, 0)
        substrate.reserve(2)  # anonymous
        substrate.map_file(3, file, 10)
        base = 0x10000
        with reference_paths():
            reference = substrate.maps_snapshot()
        with production_paths():
            fast = substrate.maps_snapshot()
        assert len(fast) == len(reference)
        for vpn in range(0x10000, 0x10000 + 16):
            assert fast.physical_of(vpn) == reference.physical_of(vpn)
        for fpage in range(12):
            phys = ("/dev/shm/db", fpage)
            assert fast.virtuals_of(phys) == reference.virtuals_of(phys)
        asked = np.arange(-1, 14)  # incl. pages nothing maps
        assert _bulk(fast, "/dev/shm/db", asked) == _bulk(
            reference, "/dev/shm/db", asked
        )
        assert _bulk(fast, "/dev/shm/db", asked)[3] == {base + 2}  # page 2
        assert _bulk(fast, "/dev/shm/other", asked) == _bulk(
            reference, "/dev/shm/other", asked
        )

    def test_array_snapshot_mutations_match_reference(self, substrate, file):
        substrate.map_file(6, file, 0)
        with reference_paths():
            reference = substrate.maps_snapshot()
        with production_paths():
            fast = substrate.maps_snapshot()
        base = 0x10000
        for snapshot in (reference, fast):
            snapshot.unmap(base + 2)
            snapshot.unmap(base + 2)  # idempotent
            snapshot.map(base + 40, ("/dev/shm/db", 2))
            snapshot.map(base + 1, ("/dev/shm/db", 5))  # remap over base
        assert len(fast) == len(reference)
        for vpn in [base + i for i in range(8)] + [base + 40]:
            assert fast.physical_of(vpn) == reference.physical_of(vpn)
        for fpage in range(7):
            phys = ("/dev/shm/db", fpage)
            assert fast.virtuals_of(phys) == reference.virtuals_of(phys)
        # the bulk lookup sees the overlay: unmapped, remapped and added
        asked = np.array([5, 2, 1, 2, 9])  # unordered, with a repeat
        answer = _bulk(fast, "/dev/shm/db", asked)
        assert answer == _bulk(reference, "/dev/shm/db", asked)
        assert answer == {
            0: {base + 1, base + 5},
            1: {base + 40},
            2: set(),
            3: {base + 40},
            4: set(),
        }


def _bulk(snapshot, path, fpages) -> dict[int, set[int]]:
    """``virtuals_of_pages`` as {position in fpages: set of vpns}."""
    which, vpns = snapshot.virtuals_of_pages(path, np.asarray(fpages))
    assert which.shape == vpns.shape
    answer = {i: set() for i in range(len(fpages))}
    for i, vpn in zip(which.tolist(), vpns.tolist()):
        assert vpn not in answer[i]  # each mapping reported once
        answer[i].add(vpn)
    return answer
