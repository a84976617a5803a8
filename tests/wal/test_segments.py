"""Segment bookkeeping: sync before rotation, open without re-encoding,
and the one ledger booking per append."""

import os

import pytest

from repro.vm.cost import MAIN_LANE, CostModel
from repro.wal import DurabilityConfig, WriteAheadLog
from repro.wal.records import encode_record, scan_wal, segment_name

from . import v1_codec


def _row(i: int) -> dict:
    return {"type": "insert", "table": "t", "row": (i, -i)}  # a 35-byte frame


class TestRotationSyncsTheClosedSegment:
    """A closed segment is out of every later fsync's reach."""

    @pytest.fixture
    def fsynced(self, monkeypatch):
        """Inodes handed to ``os.fsync``, in order."""
        seen: list[int] = []
        real = os.fsync

        def recording(fd):
            seen.append(os.fstat(fd).st_ino)
            real(fd)

        monkeypatch.setattr(os, "fsync", recording)
        return seen

    def _fill_two_segments(self, tmp_path, policy: str) -> WriteAheadLog:
        # Two frames fit a segment; the batch threshold is never reached.
        wal = WriteAheadLog(
            tmp_path,
            DurabilityConfig(fsync=policy, segment_bytes=70, batch_bytes=1 << 20),
        )
        for i in range(3):
            wal.append(_row(i))
        assert wal.status()["segments"] == 2
        return wal

    def test_batch_policy_syncs_before_closing(self, tmp_path, fsynced):
        wal = self._fill_two_segments(tmp_path, "batch")
        first = (tmp_path / segment_name(0)).stat().st_ino
        assert fsynced == [first]
        # Only the new segment's one frame is still unsynced.
        assert wal.status()["unsynced_bytes"] == 35
        wal.close()
        assert fsynced == [first, (tmp_path / segment_name(1)).stat().st_ino]

    def test_off_policy_never_syncs(self, tmp_path, fsynced):
        wal = self._fill_two_segments(tmp_path, "off")
        assert fsynced == []
        assert wal.status()["unsynced_bytes"] == 3 * 35
        wal._fh.close()  # not wal.close(): that force-syncs what is left
        assert fsynced == []

    def test_rotation_sync_is_charged_like_any_other(self, tmp_path):
        cost = CostModel()
        wal = WriteAheadLog(
            tmp_path,
            DurabilityConfig(fsync="batch", segment_bytes=70, batch_bytes=1 << 20),
            cost=cost,
        )
        for i in range(3):
            wal.append(_row(i))
        assert cost.ledger.counter("fsyncs") == 1
        wal.close()


class TestOpenWithoutReencoding:
    """Each segment's last LSN comes from the scan that walked it."""

    def _three_segment_mixed_log(self, directory) -> None:
        # Version-1 frames, then binary rows, then both, with JSON
        # records of other types in between: LSNs 1-3 | 4-6 | 7-9.
        v1_codec.write_segment(
            directory,
            [
                v1_codec.insert_v1(1, "t", {"a": 1, "b": 2}),
                v1_codec.insert_v1(2, "t", {"a": 3, "b": 4}),
                v1_codec.encode_v1({"type": "merge", "table": "t", "lsn": 3}),
            ],
            index=0,
        )
        v1_codec.write_segment(
            directory,
            [encode_record({**_row(i), "lsn": i}) for i in (4, 5, 6)],
            index=1,
        )
        v1_codec.write_segment(
            directory,
            [
                v1_codec.insert_v1(7, "t", {"a": 5, "b": 6}),
                encode_record({**_row(8), "lsn": 8}),
                encode_record({"type": "checkpoint", "checkpoint_lsn": 6, "lsn": 9}),
            ],
            index=2,
        )

    def test_scan_reports_the_last_lsn_of_every_segment(self, tmp_path):
        self._three_segment_mixed_log(tmp_path)
        scan = scan_wal(tmp_path)
        assert scan.torn is None
        assert scan.segment_last_lsn == {
            segment_name(0): 3,
            segment_name(1): 6,
            segment_name(2): 9,
        }

    @pytest.mark.parametrize(
        "upto,survivors",
        [(2, [0, 1, 2]), (3, [1, 2]), (5, [1, 2]), (6, [2]), (9, [2])],
    )
    def test_prune_removes_exactly_the_covered_segments(
        self, tmp_path, upto, survivors
    ):
        self._three_segment_mixed_log(tmp_path)
        sizes = [(tmp_path / segment_name(i)).stat().st_size for i in range(3)]
        wal = WriteAheadLog(tmp_path, DurabilityConfig(fsync="off"))
        assert wal.lsn == 9
        assert wal.total_bytes == sum(sizes)
        removed = wal.prune(upto)
        assert removed == sum(sizes[i] for i in range(3) if i not in survivors)
        assert sorted(p.name for p in tmp_path.glob("wal-*.seg")) == [
            segment_name(i) for i in survivors
        ]
        # The active segment is never pruned, and the sequence resumes.
        assert wal.append(_row(10)) == 10
        wal.close()

    def test_torn_middle_segment_keeps_its_trusted_last_lsn(self, tmp_path):
        self._three_segment_mixed_log(tmp_path)
        middle = tmp_path / segment_name(1)
        middle.write_bytes(middle.read_bytes()[:-5])  # tears LSN 6
        wal = WriteAheadLog(tmp_path, DurabilityConfig(fsync="off"))
        assert wal.lsn == 5
        assert wal.status()["segments"] == 2  # the third was past the tear
        assert wal.prune(3) > 0
        assert not (tmp_path / segment_name(0)).exists()
        wal.close()


class TestOneLedgerBooking:
    def test_counters_and_lane_equal_the_per_call_sum(self, tmp_path):
        cost = CostModel()
        wal = WriteAheadLog(tmp_path, DurabilityConfig(fsync="off"), cost=cost)
        records = [_row(i) for i in range(40)]
        records += [
            {"type": "merge", "table": "t"},
            {"type": "checkpoint", "checkpoint_lsn": 1},
        ]
        sizes = []
        for record in records:
            before = wal.total_bytes
            wal.append(record)
            sizes.append(wal.total_bytes - before)
        booked = cost.ledger.snapshot()
        wal.close()
        assert sizes[:40] == [35] * 40
        # What charge() + count() + count() per append would have booked.
        want = CostModel()
        for size in sizes:
            want.ledger.charge(want.params.wal_append_ns, MAIN_LANE)
            want.ledger.count("wal_appends")
            want.ledger.count("wal_bytes", size)
        assert booked == want.ledger.snapshot()
        assert booked[1] == {"wal_appends": len(records), "wal_bytes": sum(sizes)}

    def test_book_refuses_negative_time_like_charge(self):
        ledger = CostModel().ledger
        with pytest.raises(ValueError, match="negative"):
            ledger.book(-1.0, MAIN_LANE, (("wal_appends", 1),))
        assert ledger.snapshot() == ({}, {})
