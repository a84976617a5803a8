"""Unit and property tests for copy-on-write column snapshots."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.facade import AdaptiveDatabase
from repro.core.snapshot import SnapshotManager
from repro.faults import FaultRule, FaultSchedule, FaultySubstrate
from repro.faults.errors import SubstrateFault
from repro.native import is_supported as native_supported
from repro.substrate import SimulatedSubstrate, make_substrate
from repro.vm.constants import VALUES_PER_PAGE

from ..conftest import build_column


@pytest.fixture
def column():
    return build_column(np.arange(VALUES_PER_PAGE * 8))


@pytest.fixture
def manager(column):
    with SnapshotManager(column) as mgr:
        yield mgr


class TestSnapshotBasics:
    def test_snapshot_sees_creation_state(self, column, manager):
        snap = manager.create_snapshot()
        column.write(0, -99)
        assert snap.read(0) == 0          # snapshot: old value
        assert column.read(0) == -99      # live column: new value

    def test_snapshot_is_initially_shared(self, column, manager):
        snap = manager.create_snapshot()
        assert snap.copied_pages == 0
        assert snap.read(100) == column.read(100)

    def test_copy_on_write_is_per_page(self, column, manager):
        snap = manager.create_snapshot()
        column.write(0, -1)
        column.write(1, -2)  # same page: no second copy
        assert snap.copied_pages == 1
        column.write(VALUES_PER_PAGE, -3)  # second page
        assert snap.copied_pages == 2

    def test_unmodified_rows_follow_nothing(self, column, manager):
        snap = manager.create_snapshot()
        column.write(0, -1)
        # rows on other pages still read through the shared mapping
        assert snap.read(VALUES_PER_PAGE * 3) == VALUES_PER_PAGE * 3

    def test_values_reconstructs_snapshot_state(self, column, manager):
        original = column.values()
        snap = manager.create_snapshot()
        for row in (0, 511, 512, 4000):
            column.write(row, -row - 1)
        assert np.array_equal(snap.values(), original)

    def test_scan_filters_snapshot_state(self, column, manager):
        snap = manager.create_snapshot()
        column.write(10, 10**9)
        rowids, values = snap.scan(0, 20)
        assert rowids.tolist() == list(range(21))
        assert values.tolist() == list(range(21))

    def test_row_bounds(self, manager):
        snap = manager.create_snapshot()
        with pytest.raises(IndexError):
            snap.read(10**9)


class TestMultipleSnapshots:
    def test_each_snapshot_keeps_its_epoch(self, column, manager):
        snap1 = manager.create_snapshot()
        column.write(0, 111)
        snap2 = manager.create_snapshot()
        column.write(0, 222)
        assert snap1.read(0) == 0
        assert snap2.read(0) == 111
        assert column.read(0) == 222

    def test_copies_are_private(self, column, manager):
        snap1 = manager.create_snapshot()
        snap2 = manager.create_snapshot()
        column.write(0, -5)
        assert snap1.copied_pages == 1
        assert snap2.copied_pages == 1


class TestRelease:
    def test_release_frees_mapping_and_copies(self, column, manager):
        snap = manager.create_snapshot()
        column.write(0, -1)
        base = snap.base_vpn
        copy_name = f"{column.file.name}.snap{snap.snapshot_id}"
        snap.release()
        assert column.substrate.address_space.find_vma(base) is None
        from repro.vm.errors import FileError

        with pytest.raises(FileError):
            column.substrate.memory.get_file(copy_name)

    def test_release_idempotent(self, manager):
        snap = manager.create_snapshot()
        snap.release()
        snap.release()

    def test_released_snapshot_rejects_reads(self, manager):
        snap = manager.create_snapshot()
        snap.release()
        with pytest.raises(RuntimeError):
            snap.read(0)
        with pytest.raises(RuntimeError):
            snap.scan(0, 1)

    def test_released_snapshot_stops_copying(self, column, manager):
        snap = manager.create_snapshot()
        snap.release()
        column.write(0, -1)  # must not raise nor copy
        assert snap.copied_pages == 0

    def test_manager_close_detaches_hook(self, column):
        manager = SnapshotManager(column)
        manager.create_snapshot()
        manager.close()
        column.write(0, -1)  # no live hook side effects
        assert column.read(0) == -1

    def test_a_snapshot_outliving_its_manager_stays_copy_on_write(self, column):
        snap = SnapshotManager(column).create_snapshot()
        column.write(0, -1)
        assert snap.read(0) == 0
        assert snap.copied_pages == 1


class TestCostAccounting:
    def test_snapshot_creation_is_one_mmap(self, column, manager):
        before = column.cost.ledger.counter("mmap_calls")
        manager.create_snapshot()
        assert column.cost.ledger.counter("mmap_calls") == before + 1

    def test_preserve_charges_copy_and_remap(self, column, manager):
        manager.create_snapshot()
        cost = column.cost
        copies_before = cost.ledger.counter("snapshot_pages_copied")
        column.write(0, -1)
        assert cost.ledger.counter("snapshot_pages_copied") == copies_before + 1


class TestFaultedPreserve:
    """A copy-on-write whose rewire faults is not recorded, so the
    retried write preserves the page for real."""

    @pytest.mark.parametrize("nth", [1, 2], ids=["first-copy", "second-copy"])
    def test_retried_write_rewires_the_snapshot(self, nth):
        substrate = FaultySubstrate(SimulatedSubstrate())
        with AdaptiveDatabase(backend=substrate) as db:
            db.create_table("t", {"v": np.arange(VALUES_PER_PAGE * 4, dtype=np.int64)})
            snap = db.snapshot("t", "v")
            substrate.schedule = FaultSchedule.nth_call("map_fixed", nth)
            rows = [5, VALUES_PER_PAGE + 5][:nth]
            for row in rows[:-1]:
                db.update("t", "v", row, -1)
            with pytest.raises(SubstrateFault):
                db.update("t", "v", rows[-1], -1)
            db.update("t", "v", rows[-1], -1)  # the retry
            for row in rows:
                page, slot = divmod(row, VALUES_PER_PAGE)
                assert snap.read(row) == row
                assert snap.substrate.read_mapped(snap.base_vpn + page, 1)[1][0, slot] == row
            # the faulted attempt left no copy-file page behind
            copies = substrate.get_file(f"{snap.column.file.name}.snap{snap.snapshot_id}")
            assert copies.num_pages == snap.copied_pages == nth


class TestReleaseUnderFaults:
    """Tear-down is not a fault point: a snapshot released while every
    mapping op is armed to fail still frees its mapping and copy file."""

    @pytest.mark.parametrize(
        "backend",
        [
            "simulated",
            pytest.param(
                "native",
                marks=pytest.mark.skipif(
                    not native_supported(), reason="native rewiring unsupported here"
                ),
            ),
        ],
    )
    def test_release_frees_everything_under_armed_faults(self, backend):
        substrate = FaultySubstrate(make_substrate(backend))
        with AdaptiveDatabase(backend=substrate) as db:
            db.create_table("t", {"v": np.arange(5000, dtype=np.int64)})
            db.query("t", "v", 0, 10)  # the column's full view is mapped
            path = substrate.file_map_path(substrate.get_file("t.v"))
            lines = substrate.maps_line_count(path)
            snap = db.snapshot("t", "v")
            db.update("t", "v", 7, -1)
            db.flush_updates("t", "v")
            assert substrate.maps_line_count(path) > lines
            substrate.schedule = FaultSchedule(
                [
                    FaultRule(
                        ops=("munmap", "release_region", "unmap_slot", "map_fixed"),
                        probability=1.0,
                    )
                ]
            )
            snap.release()
            assert [f.name for f in substrate.files()] == ["t.v"]
            assert substrate.maps_line_count(path) == lines


@pytest.mark.parametrize(
    "backend",
    [
        "simulated",
        pytest.param(
            "native",
            marks=pytest.mark.skipif(
                not native_supported(), reason="native rewiring unsupported here"
            ),
        ),
    ],
)
def test_a_dropped_database_with_a_snapshot_frees_its_column_without_gc(backend):
    """The snapshot manager's pre-write hook holds the manager weakly, so
    a database with a snapshot, dropped without ``close()``, frees its
    column by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        db = AdaptiveDatabase(backend=backend)
        db.create_table("t", {"v": np.arange(8 * VALUES_PER_PAGE, dtype=np.int64)})
        snap = db.snapshot("t", "v")
        column = db.table("t").column("v")
        freed = [weakref.ref(column), weakref.ref(column.file)]
        del column, snap, db
        assert [ref() is None for ref in freed] == [True, True]
    finally:
        gc.enable()


@settings(max_examples=30, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 8 * VALUES_PER_PAGE - 1), st.integers(-100, 100)),
        max_size=50,
    ),
    snapshot_after=st.integers(0, 10),
)
def test_snapshot_isolation_property(writes, snapshot_after):
    """A snapshot taken mid-stream always equals the column state at
    snapshot time, no matter what is written afterwards."""
    column = build_column(np.arange(VALUES_PER_PAGE * 8))
    with SnapshotManager(column) as manager:
        cut = min(snapshot_after, len(writes))
        for row, value in writes[:cut]:
            column.write(row, value)
        frozen = column.values()
        snap = manager.create_snapshot()
        for row, value in writes[cut:]:
            column.write(row, value)
        assert np.array_equal(snap.values(), frozen)
        # spot-check scan consistency
        rowids, values = snap.scan(-100, 100)
        expected = np.nonzero((frozen >= -100) & (frozen <= 100))[0]
        assert np.array_equal(np.sort(rowids), expected)
