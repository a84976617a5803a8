"""The wire layer: handshake, dispatch, shedding, and the client."""

import json
import socket

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.server import (
    AdmissionPolicy,
    DatabaseManager,
    QueryServer,
    ServerClient,
    SessionOptions,
    SessionShed,
)
from repro.server.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode,
    encode,
)
from repro.vm.constants import VALUES_PER_PAGE

from ..conftest import layer_hooks

NUM_PAGES = 4
NUM_ROWS = NUM_PAGES * VALUES_PER_PAGE


def _values() -> np.ndarray:
    return np.arange(NUM_ROWS, dtype=np.int64)


@pytest.fixture
def server():
    with DatabaseManager() as manager:
        db = manager.create_database(
            config=AdaptiveConfig(background_mapping=False)
        )
        db.create_table("t", {"x": _values()})
        manager.create_database(
            "capped", policy=AdmissionPolicy(max_sessions=1)
        ).create_table("t", {"x": _values()})
        with QueryServer(manager=manager) as srv:
            yield srv


class _RawConnection:
    """A bare socket speaking the line protocol, for handshake tests."""

    def __init__(self, address):
        self._sock = socket.create_connection(address, timeout=10)
        self._file = self._sock.makefile("rwb")

    def send(self, message: dict) -> dict:
        self._file.write(json.dumps(message).encode() + b"\n")
        self._file.flush()
        return json.loads(self._file.readline())

    def send_raw(self, payload: bytes) -> dict:
        self._file.write(payload)
        self._file.flush()
        return json.loads(self._file.readline())

    def close(self) -> None:
        self._file.close()
        self._sock.close()


class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"op": "query", "lo": 1, "hi": 2}
        assert decode(encode(message)) == message

    def test_decode_rejects_non_mapping(self):
        with pytest.raises(ProtocolError):
            decode(b"[1, 2]\n")

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode(b"{not json\n")

    def test_oversized_message_rejected(self):
        with pytest.raises(ProtocolError):
            encode({"blob": "x" * MAX_LINE_BYTES})


class TestHandshake:
    def test_greeting_carries_session_facts(self, server):
        conn = _RawConnection(server.address)
        try:
            greeting = conn.send(
                {"op": "open", "db": "default", "options": {"autocommit": False}}
            )
            assert greeting["ok"] is True
            assert greeting["data"]["protocol"] == PROTOCOL_VERSION
            assert greeting["data"]["db"] == "default"
            assert greeting["data"]["degraded"] is False
            assert greeting["data"]["options"]["autocommit"] is False
            assert greeting["session_id"] > 0
        finally:
            conn.close()

    def test_first_request_must_be_open(self, server):
        conn = _RawConnection(server.address)
        try:
            reply = conn.send({"op": "query", "table": "t"})
            assert reply["ok"] is False
            assert reply["error"] == "first request must be 'open'"
        finally:
            conn.close()

    def test_garbage_first_line_is_a_protocol_error(self, server):
        conn = _RawConnection(server.address)
        try:
            reply = conn.send_raw(b"{not json\n")
            assert reply["ok"] is False
            assert reply["error_details"] == "ProtocolError"
        finally:
            conn.close()

    def test_unknown_database_refused(self, server):
        conn = _RawConnection(server.address)
        try:
            reply = conn.send({"op": "open", "db": "ghost"})
            assert reply["ok"] is False
            assert "ghost" in reply["error"]
        finally:
            conn.close()

    def test_unknown_option_refused(self, server):
        conn = _RawConnection(server.address)
        try:
            reply = conn.send(
                {"op": "open", "options": {"isolation": "serializable"}}
            )
            assert reply["ok"] is False
            assert "unknown session option" in reply["error"]
        finally:
            conn.close()


class TestDispatch:
    @pytest.fixture
    def conn(self, server):
        conn = _RawConnection(server.address)
        assert conn.send({"op": "open"})["ok"]
        yield conn
        conn.close()

    def test_unknown_op_refused(self, conn):
        reply = conn.send({"op": "frobnicate"})
        assert reply["ok"] is False
        assert "unknown operation 'frobnicate'" in reply["error"]

    def test_missing_arguments_refused(self, conn):
        reply = conn.send({"op": "query", "table": "t"})
        assert reply["ok"] is False
        assert "bad request arguments" in reply["error"]

    def test_close_op_ends_the_session(self, conn, server):
        reply = conn.send({"op": "close"})
        assert reply["ok"] is True
        assert reply["message"] == "session closed"
        assert server.manager.admission().status().active == 0


class TestShedGreeting:
    def test_capacity_shed_over_the_wire(self, server):
        host, port = server.address
        holder = ServerClient(host, port, db="capped")
        try:
            conn = _RawConnection(server.address)
            try:
                reply = conn.send({"op": "open", "db": "capped"})
                assert reply["ok"] is False
                assert reply["data"] == {
                    "shed": True,
                    "reason": "capacity",
                    "health": "healthy",
                }
            finally:
                conn.close()
            with pytest.raises(SessionShed) as excinfo:
                ServerClient(host, port, db="capped")
            assert excinfo.value.reason == "capacity"
        finally:
            holder.close()
        # The slot frees on close: the next connection is admitted.
        ServerClient(host, port, db="capped").close()


class TestServerClient:
    def test_structured_round_trip(self, server):
        host, port = server.address
        with ServerClient(host, port) as client:
            assert client.degraded is False
            assert client.admit_reason == "healthy"
            response = client.query("t", "x", 10, 50, include_values=True)
            assert response.ok
            assert response.data["rowids"] == list(range(10, 51))
            assert client.update("t", "x", 0, 424_242).ok
            assert client.query("t", "x", 424_242, 424_242).data["rows"] == 1
            assert client.delete("t", "x", 1, 3).data["deleted"] == 3
            status = client.status().raise_for_error()
            assert status.data["health"] == "healthy"
            assert client.accumulated_sim_ms() > 0

    def test_sql_round_trip(self, server):
        host, port = server.address
        with ServerClient(host, port) as client:
            client.execute("CREATE TABLE s (k, v)").raise_for_error()
            rows = ", ".join(f"({i}, {i * 2})" for i in range(20))
            client.execute(f"INSERT INTO s VALUES {rows}").raise_for_error()
            result = client.execute("SELECT v FROM s WHERE k = 7")
            assert result.rows == [(14,)]
            bad = client.execute("SELECT FROM")
            assert not bad.ok

    def test_snapshot_over_the_wire(self, server):
        host, port = server.address
        with ServerClient(host, port) as reader:
            with ServerClient(host, port) as writer:
                before = reader.query("t", "x", 0, 2_000_000)
                reader.snapshot("t", "x").raise_for_error()
                writer.update("t", "x", 5, 777_777).raise_for_error()
                pinned = reader.query("t", "x", 0, 2_000_000)
                assert pinned.data["snapshot"] is True
                assert pinned.data["checksum"] == before.data["checksum"]
                reader.release_snapshot("t", "x").raise_for_error()
                live = reader.query("t", "x", 0, 2_000_000)
                assert live.data["checksum"] != before.data["checksum"]

    def test_read_only_options_travel(self, server):
        host, port = server.address
        options = SessionOptions(read_only=True)
        with ServerClient(host, port, options=options) as client:
            response = client.update("t", "x", 0, 1)
            assert not response.ok
            assert response.error_details == "ReadOnlySession"

    def test_sessions_share_warmed_views(self, server):
        """Two wire sessions read through the database's one layer per
        column: the second session's identical predicate reuses the
        first's views rather than building a parallel catalog."""
        host, port = server.address
        db = server.manager.database()
        with ServerClient(host, port) as first:
            first.execute("CREATE TABLE w (k, v)").raise_for_error()
            rows = ", ".join(f"({i}, {i})" for i in range(100))
            first.execute(f"INSERT INTO w VALUES {rows}").raise_for_error()
            first.execute("SELECT * FROM w WHERE k BETWEEN 10 AND 20")
            layer = db.layer("w", "k")
            with ServerClient(host, port) as second:
                second.execute("SELECT * FROM w WHERE k BETWEEN 10 AND 20")
            assert [key for key in db._layers if key[0] == "w"] == [("w", "k")]
            assert layer_hooks(db.table("w").column("k")) == [layer._note_write]


class TestLifecycle:
    def test_address_requires_running_server(self):
        server = QueryServer()
        with pytest.raises(RuntimeError):
            server.address
        server.stop()

    def test_owned_manager_round_trip(self):
        with QueryServer() as server:
            host, port = server.address
            with ServerClient(host, port) as client:
                client.execute("CREATE TABLE t (k)").raise_for_error()
                client.execute("INSERT INTO t VALUES (1), (2)")
                assert client.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_double_start_rejected(self):
        with QueryServer() as server:
            with pytest.raises(RuntimeError):
                server.start()
