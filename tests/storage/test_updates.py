"""Unit and property tests for update batches and compaction."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.updates import UpdateBatch, UpdateRecord
from repro.vm.constants import VALUES_PER_PAGE


class TestUpdateRecord:
    def test_page_derivation(self):
        assert UpdateRecord(row=0, old=1, new=2).page == 0
        assert UpdateRecord(row=VALUES_PER_PAGE, old=1, new=2).page == 1


class TestUpdateBatch:
    def test_append_and_iterate(self):
        batch = UpdateBatch()
        batch.record(1, 10, 20)
        batch.record(2, 30, 40)
        assert len(batch) == 2
        assert batch[0] == UpdateRecord(1, 10, 20)
        assert [u.row for u in batch] == [1, 2]

    def test_compact_keeps_first_old_last_new(self):
        """The paper's example: u0, u1, u2 on one row collapse to
        (row, old_0, new_2)."""
        batch = UpdateBatch(
            [
                UpdateRecord(5, 100, 200),
                UpdateRecord(5, 200, 300),
                UpdateRecord(5, 300, 400),
            ]
        )
        compacted = batch.compact()
        assert len(compacted) == 1
        assert compacted[0] == UpdateRecord(5, 100, 400)

    def test_compact_preserves_distinct_rows(self):
        batch = UpdateBatch([UpdateRecord(1, 10, 11), UpdateRecord(2, 20, 21)])
        assert len(batch.compact()) == 2

    def test_compact_order_follows_first_appearance(self):
        batch = UpdateBatch(
            [UpdateRecord(9, 0, 1), UpdateRecord(3, 0, 1), UpdateRecord(9, 1, 2)]
        )
        assert [u.row for u in batch.compact()] == [9, 3]

    def test_group_by_page(self):
        batch = UpdateBatch(
            [
                UpdateRecord(0, 0, 1),
                UpdateRecord(1, 0, 1),
                UpdateRecord(VALUES_PER_PAGE, 0, 1),
            ]
        )
        groups = batch.group_by_page()
        assert sorted(groups) == [0, 1]
        assert len(groups[0]) == 2

    def test_clear(self):
        batch = UpdateBatch([UpdateRecord(1, 0, 1)])
        batch.clear()
        assert len(batch) == 0


@settings(max_examples=200, deadline=None)
@given(
    updates=st.lists(
        st.tuples(st.integers(0, 20), st.integers(-100, 100)), max_size=80
    )
)
def test_compact_matches_replay(updates):
    """Replaying the raw batch and the compacted batch must produce the
    same final state, and compacted old values must be the original
    pre-batch values."""
    state = {row: row * 7 for row in range(21)}  # initial values
    original = dict(state)

    batch = UpdateBatch()
    for row, new in updates:
        batch.record(row, state[row], new)
        state[row] = new

    compacted = batch.compact()
    rows_touched = {row for row, _ in updates}
    assert {u.row for u in compacted} == rows_touched
    for record in compacted:
        assert record.old == original[record.row]
        assert record.new == state[record.row]
    # at most one record per row
    assert len(compacted) == len(rows_touched)
