"""Graceful shutdown: drain in-flight statements, flush buffers + WAL."""

import threading

import numpy as np

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.server import DatabaseManager, QueryServer, ServerClient
from repro.wal import DurabilityConfig, recover_database

NUM_ROWS = 256
CONFIG = AdaptiveConfig(background_mapping=False)


def _durable_manager(tmp_path):
    manager = DatabaseManager()
    db = AdaptiveDatabase(
        config=CONFIG,
        durable_dir=str(tmp_path),
        durability=DurabilityConfig(fsync="off"),
    )
    db.create_table("t", {"x": np.arange(NUM_ROWS, dtype=np.int64)})
    manager.add_database("default", db)
    return manager, db


class TestStopFlushes:
    def test_stop_flushes_staged_rows(self, tmp_path):
        manager, db = _durable_manager(tmp_path)
        server = QueryServer(manager=manager)
        server.start()
        with ServerClient(*server.address) as client:
            assert client.query("t", "x", 0, 10).ok
        db.insert("t", {"x": 5_000_000})  # staged in the write buffer
        assert len(db._write_buffers["t"]) > 0
        server.stop()
        # The staged insert was merged into the columns before exit.
        assert not db._write_buffers.get("t")
        assert db.table("t").num_rows == NUM_ROWS + 1
        manager.close()

    def test_acked_writes_survive_stop_then_recovery(self, tmp_path):
        manager, db = _durable_manager(tmp_path)
        server = QueryServer(manager=manager)
        server.start()
        with ServerClient(*server.address) as client:
            assert client.update("t", "x", 3, -5).ok
            assert client.delete("t", "x", 10, 20).ok
        db.insert("t", {"x": 7_000_000})  # staged, unflushed
        server.stop()
        # Abandon the database object without close(): the WAL already
        # holds everything stop() acked.
        recovered, report = recover_database(tmp_path)
        try:
            result = recovered.query("t", "x", -100, 10_000_000)
            values = set(int(v) for v in result.values)
            assert 7_000_000 in values
            assert -5 in values
            assert not values & set(range(10, 21))
            audit = recovered.audit()
            assert audit.ok, audit.render()
        finally:
            recovered.close()
        manager.close()

    def test_stop_without_manager_ownership_keeps_manager_open(self, tmp_path):
        manager, db = _durable_manager(tmp_path)
        server = QueryServer(manager=manager)
        server.start()
        server.stop()
        # The externally-owned manager (and its database) stay usable.
        db.insert("t", {"x": 1})
        manager.close()

    def test_manager_flush_all_reaches_a_sharded_database(self):
        with DatabaseManager() as manager:
            db = manager.create_database("sharded", shards=2, config=CONFIG)
            db.create_table("t", {"x": np.arange(4 * 1024, dtype=np.int64)})
            db.update("t", "x", 3, -5)
            manager.flush_all()
            assert db.column("t", "x").pending_update_count == 0


def _watch_drain(srv):
    """Wrap ``srv.drain``: ``(entered, outcomes)`` — an event set when
    ``stop()`` reaches the drain, and the list its verdicts land in."""
    entered, outcomes = threading.Event(), []
    drain = srv.drain

    def watched(timeout):
        entered.set()
        outcomes.append(drain(timeout))
        return outcomes[-1]

    srv.drain = watched
    return entered, outcomes


class TestDrain:
    def test_stop_waits_for_inflight_request(self, tmp_path):
        manager, _ = _durable_manager(tmp_path)
        server = QueryServer(manager=manager)
        server.start()
        srv = server._server
        srv.request_started()  # a statement is mid-dispatch
        entered, outcomes = _watch_drain(srv)
        stopper = threading.Thread(
            target=server.stop, kwargs={"drain_timeout": 60.0}
        )
        stopper.start()
        assert entered.wait(timeout=30), "stop() never reached the drain"
        # stop() is in the drain now, and the only way out short of the
        # timeout is the in-flight counter reaching zero.
        assert srv._inflight == 1 and not outcomes
        srv.request_finished()
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        assert outcomes == [True], "stop() did not wait for the request"
        manager.close()

    def test_drain_times_out_rather_than_hanging(self, tmp_path):
        manager, _ = _durable_manager(tmp_path)
        server = QueryServer(manager=manager)
        server.start()
        srv = server._server
        srv.request_started()  # never finishes while stop() runs
        _, outcomes = _watch_drain(srv)
        stopper = threading.Thread(
            target=server.stop, kwargs={"drain_timeout": 0.05}
        )
        stopper.start()
        stopper.join(timeout=30)
        assert not stopper.is_alive(), "stop() hung on a stuck request"
        assert outcomes == [False] and srv._inflight == 1
        srv.request_finished()
        manager.close()

    def test_inflight_counter_balances_over_requests(self, tmp_path):
        manager, _ = _durable_manager(tmp_path)
        with QueryServer(manager=manager) as server:
            srv = server._server
            with ServerClient(*server.address) as client:
                for _ in range(3):
                    assert client.query("t", "x", 0, 10).ok
                assert srv._inflight == 0
        manager.close()
