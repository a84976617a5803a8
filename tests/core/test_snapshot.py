"""Unit and property tests for copy-on-write column snapshots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.snapshot import SnapshotManager
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
        assert not column.substrate.mapper.address_space.is_mapped(base)
        from repro.vm.errors import FileError

        with pytest.raises(FileError):
            column.substrate.mapper.memory.get_file(copy_name)

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
