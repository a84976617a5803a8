"""Insert rows end to end: column order, the int64 range, old logs.

A binary ``insert`` frame carries its values by *position*, so the
table's column order is part of the log contract: it must survive cold
start, checkpoint + tail, and a log written before the ``create``
record carried an ``"order"`` list.  The one validation step must also
refuse what the frame cannot carry — before the log or the buffer is
touched — and logs in the version-1 format (``v1_codec``), or half one
format and half the other, must recover to the same table.
"""

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.vm.constants import MAX_VALUE, MIN_VALUE
from repro.wal import DurabilityConfig, WriteAheadLog, recover_database, scan_wal
from repro.wal.records import MAX_TABLE_NAME_BYTES

from . import v1_codec

CONFIG = AdaptiveConfig(background_mapping=False)

#: "k" before "b": definition order is not alphabetical order.
INITIAL = {
    "k": np.arange(10, dtype=np.int64),
    "b": np.arange(10, dtype=np.int64) + 1000,
}


def _durable(directory) -> AdaptiveDatabase:
    return AdaptiveDatabase(
        config=CONFIG,
        durable_dir=str(directory),
        durability=DurabilityConfig(fsync="off"),
    )


def _recover(directory) -> AdaptiveDatabase:
    db, _ = recover_database(directory, durability=DurabilityConfig(fsync="off"))
    return db


def _mirror(db, table="t") -> dict[str, list[int]]:
    """Every column by name, staged rows merged in, in row order."""
    db.flush_inserts(table)
    return {
        name: column.values().tolist()
        for name, column in db.table(table).columns.items()
    }


class TestColumnOrder:
    def test_cold_start_keeps_the_definition_order(self, tmp_path):
        db = _durable(tmp_path)
        db.create_table("t", INITIAL)
        db.insert("t", {"k": 100, "b": 200})
        db.flush_inserts("t")
        db.close()
        recovered = _recover(tmp_path)
        try:
            assert recovered.last_recovery.started_cold
            table = recovered.table("t")
            assert table.column_names == ["k", "b"]
            assert table.get_record(10) == (100, 200)
            assert table.get_record(3) == (3, 1003)
        finally:
            recovered.close()

    def test_checkpoint_plus_tail_keeps_the_definition_order(self, tmp_path):
        db = _durable(tmp_path)
        db.create_table("t", INITIAL)
        db.insert("t", {"k": 100, "b": 200})
        db.checkpoint()
        db.insert("t", {"b": 201, "k": 101})  # named out of order
        db.close()
        recovered = _recover(tmp_path)
        try:
            assert not recovered.last_recovery.started_cold
            recovered.flush_inserts("t")
            table = recovered.table("t")
            assert table.column_names == ["k", "b"]
            assert table.get_record(10) == (100, 200)
            assert table.get_record(11) == (101, 201)
        finally:
            recovered.close()

    def test_v1_log_replays_sorted_and_its_new_rows_follow(self, tmp_path):
        """A ``create`` without ``"order"`` replays in sorted-key order
        — what version 1 itself recovered into — and the rows written
        after reopening are positional in *that* order, so a second
        recovery reads them back under the right names."""
        v1_codec.write_segment(
            tmp_path,
            [
                v1_codec.create_v1(1, "t", INITIAL),
                v1_codec.insert_v1(2, "t", {"k": 100, "b": 200}),
            ],
        )
        reopened = _recover(tmp_path)
        assert reopened.table("t").column_names == ["b", "k"]
        reopened.insert("t", {"k": 101, "b": 201})
        reopened.close()
        inserts = [r for r in scan_wal(tmp_path).records if r["type"] == "insert"]
        assert "values" in inserts[0] and inserts[1]["row"] == (201, 101)
        again = _recover(tmp_path)
        try:
            mirror = _mirror(again)
            assert mirror["k"][10:] == [100, 101]
            assert mirror["b"][10:] == [200, 201]
            assert mirror["k"][:10] == INITIAL["k"].tolist()
        finally:
            again.close()


class TestRefusedRows:
    """What the frame cannot carry is refused before anything is touched."""

    @pytest.mark.parametrize("bad", [2**63, -(2**63) - 1])
    def test_out_of_range_value_never_reaches_log_or_buffer(self, tmp_path, bad):
        db = _durable(tmp_path)
        db.create_table("t", INITIAL)
        db.insert("t", {"k": 1, "b": 2})
        before = db.wal_status()
        with pytest.raises(ValueError, match="int64"):
            db.insert("t", {"k": bad, "b": 1})
        after = db.wal_status()
        assert after["lsn"] == before["lsn"]
        assert after["total_bytes"] == before["total_bytes"]
        assert len(db._write_buffers["t"]) == 1
        # The log is not poisoned: ingest, merge, reads and recovery go on.
        assert db.insert("t", {"k": 3, "b": 4}) == 11
        db.flush_inserts("t")
        assert db.query("t", "k", 3, 3).rowids.tolist() == [3, 11]
        db.close()
        recovered = _recover(tmp_path)
        try:
            assert recovered.audit().ok
            assert _mirror(recovered)["k"][10:] == [1, 3]
        finally:
            recovered.close()

    def test_out_of_range_value_refused_without_durability_too(self):
        with AdaptiveDatabase(config=CONFIG) as db:
            db.create_table("t", INITIAL)
            with pytest.raises(ValueError, match="int64"):
                db.insert("t", {"k": 2**63, "b": 1})
            assert not db._write_buffers["t"]
            db.insert("t", {"k": 1, "b": 2})
            assert _mirror(db)["k"][10:] == [1]

    def test_wrong_columns_are_refused_before_the_log(self, tmp_path):
        db = _durable(tmp_path)
        db.create_table("t", INITIAL)
        lsn = db.wal_status()["lsn"]
        for row in ({"k": 1}, {"k": 1, "b": 2, "c": 3}, {"k": 1, "c": 2}, {}):
            with pytest.raises(ValueError, match="exactly the columns"):
                db.insert("t", row)
        assert db.wal_status()["lsn"] == lsn
        assert not db._write_buffers["t"]
        db.close()

    def test_table_name_beyond_the_length_field(self, tmp_path):
        name = "n" * (MAX_TABLE_NAME_BYTES + 1)
        db = _durable(tmp_path)
        db.create_table(name, INITIAL)
        before = db.wal_status()
        with pytest.raises(ValueError, match="table name"):
            db.insert(name, {"k": 1, "b": 2})
        after = db.wal_status()
        assert (after["lsn"], after["total_bytes"]) == (
            before["lsn"],
            before["total_bytes"],
        )
        assert not db._write_buffers[name]
        assert db.audit().ok
        db.close()

    def test_log_refuses_an_unframeable_row_whole(self, tmp_path):
        """Behind the facade's validation the log holds the same line:
        nothing written, no LSN burned, the record left as it came."""
        wal = WriteAheadLog(tmp_path, DurabilityConfig(fsync="off"))
        record = {"type": "insert", "table": "t", "row": (1, 2**63)}
        with pytest.raises(ValueError, match="cannot be framed"):
            wal.append(record)
        assert "lsn" not in record
        assert (wal.lsn, wal.total_bytes) == (0, 0)
        assert wal.append({"type": "insert", "table": "t", "row": (1, 2)}) == 1
        wal.close()
        assert scan_wal(tmp_path).last_lsn == 1

    def test_both_int64_edges_round_trip(self, tmp_path):
        """Through the frame, the replay and the merge."""
        db = _durable(tmp_path)
        db.create_table("t", INITIAL)
        db.insert("t", {"k": MIN_VALUE, "b": MAX_VALUE})
        db.insert("t", {"k": MAX_VALUE, "b": MIN_VALUE})
        db._wal._fh.flush()  # abandoned, not closed: rows are still staged
        recovered = _recover(tmp_path)
        try:
            mirror = _mirror(recovered)
            assert mirror["k"][10:] == [MIN_VALUE, MAX_VALUE]
            assert mirror["b"][10:] == [MAX_VALUE, MIN_VALUE]
            assert recovered.table("t").get_record(10) == (MIN_VALUE, MAX_VALUE)
        finally:
            recovered.close()
        db.close()


class TestFormatsAgree:
    """All-v1, half-v1/half-binary and all-binary logs of one stream."""

    ROWS = [{"k": 500 + i, "b": -i} for i in range(12)]

    def _all_v1(self, directory, rows) -> None:
        frames = [v1_codec.create_v1(1, "t", INITIAL)]
        frames += [
            v1_codec.insert_v1(2 + i, "t", row) for i, row in enumerate(rows)
        ]
        v1_codec.write_segment(directory, frames)

    def test_three_logs_recover_to_one_mirror(self, tmp_path):
        v1_dir, mixed_dir, binary_dir = (
            tmp_path / name for name in ("v1", "mixed", "binary")
        )
        for directory in (v1_dir, mixed_dir):
            directory.mkdir()
        self._all_v1(v1_dir, self.ROWS)
        # Mixed: version 1 wrote the first half; today's code reopened
        # that log and wrote the rest.
        self._all_v1(mixed_dir, self.ROWS[:6])
        reopened = _recover(mixed_dir)
        for row in self.ROWS[6:]:
            reopened.insert("t", row)
        reopened.close()
        db = _durable(binary_dir)
        db.create_table("t", INITIAL)
        for row in self.ROWS:
            db.insert("t", row)
        db.close()

        inserts = {
            directory.name: [
                "row" if "row" in record else "values"
                for record in scan_wal(directory).records
                if record["type"] == "insert"
            ]
            for directory in (v1_dir, mixed_dir, binary_dir)
        }
        assert inserts == {
            "v1": ["values"] * 12,
            "mixed": ["values"] * 6 + ["row"] * 6,
            "binary": ["row"] * 12,
        }

        mirrors = []
        for directory in (v1_dir, mixed_dir, binary_dir):
            recovered = _recover(directory)
            try:
                assert recovered.audit().ok
                mirrors.append(_mirror(recovered))
            finally:
                recovered.close()
        want = {
            name: INITIAL[name].tolist() + [row[name] for row in self.ROWS]
            for name in ("k", "b")
        }
        assert mirrors == [want, want, want]
