"""WriteAheadLog unit tests: rotation, caps, faults, live tail repair."""

import pytest

from repro.faults import FaultRule, FaultSchedule, FaultySubstrate
from repro.faults.schedule import FaultKind
from repro.resilience.policy import HealthState
from repro.substrate import make_substrate
from repro.vm.cost import CostModel
from repro.wal import DurabilityConfig, WalFullError, WriteAheadLog
from repro.wal.records import scan_wal


def _record(i: int) -> dict:
    """One two-column row: a 35-byte frame."""
    return {"type": "insert", "table": "t", "row": (i, -i)}


class TestAppend:
    def test_lsns_are_sequential_and_returned(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        assert [wal.append(_record(i)) for i in range(3)] == [1, 2, 3]
        assert wal.lsn == 3
        wal.close()

    def test_append_mutates_record_with_lsn(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        record = _record(0)
        wal.append(record)
        assert record["lsn"] == 1
        wal.close()

    def test_reopen_resumes_lsn_sequence(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for i in range(5):
            wal.append(_record(i))
        wal.close()
        reopened = WriteAheadLog(tmp_path)
        assert reopened.lsn == 5
        assert reopened.append(_record(5)) == 6
        reopened.close()

    def test_cost_model_charges_wal_lane(self, tmp_path):
        cost = CostModel()
        wal = WriteAheadLog(tmp_path, cost=cost)
        wal.append(_record(0))
        _, counters = cost.ledger.snapshot()
        assert counters.get("wal_appends") == 1
        assert counters.get("wal_bytes", 0) > 0
        wal.close()


class TestRotation:
    def test_rotates_at_segment_budget(self, tmp_path):
        wal = WriteAheadLog(tmp_path, DurabilityConfig(segment_bytes=70))
        for i in range(10):
            wal.append(_record(i))
        wal.close()
        assert wal.status()["segments"] > 1
        scan = scan_wal(tmp_path)
        assert scan.last_lsn == 10
        assert len(scan.segments) == wal.status()["segments"]

    def test_reopen_lands_in_last_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path, DurabilityConfig(segment_bytes=70))
        for i in range(10):
            wal.append(_record(i))
        wal.close()
        reopened = WriteAheadLog(
            tmp_path, DurabilityConfig(segment_bytes=70)
        )
        reopened.append(_record(10))
        reopened.close()
        scan = scan_wal(tmp_path)
        assert scan.last_lsn == 11
        assert scan.torn is None


class TestSizeCap:
    def test_full_log_latches_readonly(self, tmp_path):
        wal = WriteAheadLog(tmp_path, DurabilityConfig(max_bytes=88))
        appended = 0
        with pytest.raises(WalFullError):
            for i in range(100):
                wal.append(_record(i))
                appended += 1
        assert appended > 0
        assert wal.status()["full"]
        assert wal.health() is HealthState.READONLY
        # Latched: even a tiny append is refused now.
        with pytest.raises(WalFullError):
            wal.append({"type": "merge", "table": "t"})
        wal.close()

    def test_refused_append_leaves_no_bytes_and_no_lsn(self, tmp_path):
        wal = WriteAheadLog(tmp_path, DurabilityConfig(max_bytes=88))
        with pytest.raises(WalFullError):
            for i in range(100):
                wal.append(_record(i))
        lsn = wal.lsn
        bytes_before = wal.total_bytes
        record = _record(999)
        with pytest.raises(WalFullError):
            wal.append(record)
        assert "lsn" not in record
        assert wal.lsn == lsn
        assert wal.total_bytes == bytes_before
        wal.close()
        assert scan_wal(tmp_path).last_lsn == lsn

    def test_prune_clears_the_latch(self, tmp_path):
        wal = WriteAheadLog(
            tmp_path, DurabilityConfig(segment_bytes=48, max_bytes=220)
        )
        with pytest.raises(WalFullError):
            for i in range(100):
                wal.append(_record(i))
        assert wal.status()["full"]
        wal.prune(wal.lsn)  # a checkpoint at the tip covers everything
        assert not wal.status()["full"]
        assert wal.health() is HealthState.HEALTHY
        assert wal.append(_record(0)) == wal.lsn
        wal.close()


class TestFaults:
    def _faulty(self, rules, seed=0):
        substrate = FaultySubstrate(make_substrate("simulated"))
        substrate.schedule = FaultSchedule(rules, seed=seed)
        return substrate

    def test_wal_append_fault_propagates_and_logs_nothing(self, tmp_path):
        substrate = self._faulty([FaultRule(ops="wal_append", nth=2)])
        wal = WriteAheadLog(tmp_path, substrate=substrate)
        wal.append(_record(0))
        from repro.faults.errors import SubstrateFault

        with pytest.raises(SubstrateFault) as exc:
            wal.append(_record(1))
        assert exc.value.transient  # log-device hiccup: retryable
        assert wal.lsn == 1
        wal.close()
        assert scan_wal(tmp_path).last_lsn == 1

    def test_fsync_fault_absorbed_then_degraded(self, tmp_path):
        substrate = self._faulty(
            [FaultRule(ops="fsync", probability=1.0)]
        )
        wal = WriteAheadLog(
            tmp_path,
            DurabilityConfig(fsync="always", fsync_fail_threshold=3),
            substrate=substrate,
        )
        wal.append(_record(0))
        assert wal.health() is HealthState.HEALTHY
        wal.append(_record(1))
        wal.append(_record(2))
        assert wal.status()["fsync_failures"] == 3
        assert wal.health() is HealthState.DEGRADED
        # Data written is intact regardless: fsync loses only the
        # power-loss guarantee.
        wal.close()
        assert scan_wal(tmp_path).last_lsn == 3

    def test_fsync_success_resets_failure_streak(self, tmp_path):
        substrate = self._faulty(
            [FaultRule(ops="fsync", nth=1), FaultRule(ops="fsync", nth=2)]
        )
        wal = WriteAheadLog(
            tmp_path,
            DurabilityConfig(fsync="always", fsync_fail_threshold=3),
            substrate=substrate,
        )
        wal.append(_record(0))
        wal.append(_record(1))
        assert wal.status()["fsync_failures"] == 2
        wal.append(_record(2))  # third fsync succeeds
        assert wal.status()["fsync_failures"] == 0
        assert wal.health() is HealthState.HEALTHY
        wal.close()

    def test_torn_write_fault_repairs_tail_in_place(self, tmp_path):
        substrate = self._faulty(
            [
                FaultRule(
                    ops="wal_append", nth=2, kind=FaultKind.TORN_WRITE
                )
            ]
        )
        wal = WriteAheadLog(tmp_path, substrate=substrate)
        wal.append(_record(0))
        from repro.faults.errors import SubstrateFault

        with pytest.raises(SubstrateFault) as exc:
            wal.append(_record(1))
        assert not exc.value.transient  # repaired, not retried blindly
        # The live log was truncated back to the last whole frame.
        assert wal.lsn == 1
        scan = scan_wal(tmp_path)
        assert scan.torn is None
        assert scan.last_lsn == 1
        # And the log keeps working after the repair.
        assert wal.append(_record(2)) == 2
        wal.close()
        assert scan_wal(tmp_path).last_lsn == 2


class TestStatus:
    def test_status_shape(self, tmp_path):
        wal = WriteAheadLog(tmp_path, DurabilityConfig(fsync="off"))
        wal.append(_record(0))
        status = wal.status()
        assert status["lsn"] == 1
        assert status["segments"] == 1
        assert status["fsync"] == "off"
        assert status["total_bytes"] > 0
        assert status["full"] is False
        wal.close()

    def test_close_is_idempotent(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(_record(0))
        wal.close()
        wal.close()
        assert wal.closed
