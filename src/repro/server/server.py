"""The concurrent query server: a thread per connection, one session each.

:class:`QueryServer` listens on TCP, speaks the newline-delimited JSON
protocol of :mod:`repro.server.protocol`, and maps every connection to
one :class:`~repro.server.session.Session` opened through the shared
:class:`~repro.server.manager.DatabaseManager`.  Concurrency control is
the manager's per-database request lock — handler threads do the socket
work in parallel while statements of one database serialize, keeping
the single-threaded cost ledgers and span stacks exact.

Admission control runs at ``open`` time: a shed connection receives one
``{"ok": false, "data": {"shed": true, "reason": ...}}`` response and
is closed, matching the health state machine instead of erroring.
"""

from __future__ import annotations

import socketserver
import threading

from .admission import SessionShed
from .manager import DEFAULT_DB, DatabaseManager
from .options import SessionOptions
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode,
    encode,
    response_to_wire,
)
from .response import Response

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7437


class _Handler(socketserver.StreamRequestHandler):
    """One connection: open handshake, then a request/response loop."""

    def handle(self) -> None:  # noqa: C901 - one dispatch table
        manager: DatabaseManager = self.server.manager  # type: ignore[attr-defined]
        session = None
        try:
            line = self.rfile.readline()
            if not line:
                return
            try:
                request = decode(line)
            except ProtocolError as exc:
                self._send_error("open", str(exc), "ProtocolError")
                return
            if request.get("op") != "open":
                self._send_error(
                    str(request.get("op", "")),
                    "first request must be 'open'",
                    "ProtocolError",
                )
                return
            try:
                options = SessionOptions.from_mapping(request.get("options"))
                session = manager.open_session(
                    request.get("db", DEFAULT_DB), options
                )
            except SessionShed as exc:
                self.wfile.write(
                    encode(
                        response_to_wire(
                            Response.failure(
                                "open",
                                str(exc),
                                error_details="SessionShed",
                                data={"shed": True, "reason": exc.reason,
                                      "health": exc.health.value},
                            )
                        )
                    )
                )
                return
            except (KeyError, ValueError) as exc:
                self._send_error("open", str(exc), type(exc).__name__)
                return
            self.wfile.write(
                encode(
                    response_to_wire(
                        Response(
                            op="open",
                            session_id=session.session_id,
                            message=f"session {session.session_id} open",
                            data={
                                "protocol": PROTOCOL_VERSION,
                                "db": session.db_name,
                                "degraded": session.degraded,
                                "admit_reason": session.admit_reason,
                                "options": session.options.to_mapping(),
                            },
                        )
                    )
                )
            )
            self._serve_session(session)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response
        finally:
            if session is not None:
                session.close()

    def _serve_session(self, session) -> None:
        while True:
            line = self.rfile.readline()
            if not line:
                return
            try:
                request = decode(line)
            except ProtocolError as exc:
                self._send_error("", str(exc), "ProtocolError")
                continue
            op = str(request.get("op", ""))
            if op == "close":
                session.close()
                self.wfile.write(
                    encode(
                        response_to_wire(
                            Response(
                                op="close",
                                session_id=session.session_id,
                                message="session closed",
                            )
                        )
                    )
                )
                return
            self.server.request_started()  # type: ignore[attr-defined]
            try:
                response = _dispatch(session, op, request)
            finally:
                self.server.request_finished()  # type: ignore[attr-defined]
            self.wfile.write(encode(response_to_wire(response)))

    def _send_error(self, op: str, error: str, details: str) -> None:
        self.wfile.write(
            encode(
                response_to_wire(
                    Response.failure(op, error, error_details=details)
                )
            )
        )


def _dispatch(session, op: str, request: dict) -> Response:
    """Route one wire request onto the session's operation surface."""
    try:
        if op == "sql":
            return session.execute(str(request["sql"]))
        if op == "query":
            return session.query(
                str(request["table"]),
                str(request["column"]),
                int(request["lo"]),
                int(request["hi"]),
                include_values=bool(request.get("include_values", False)),
            )
        if op == "update":
            return session.update(
                str(request["table"]),
                str(request["column"]),
                int(request["row"]),
                int(request["value"]),
            )
        if op == "delete":
            return session.delete(
                str(request["table"]),
                str(request["column"]),
                int(request["lo"]),
                int(request["hi"]),
            )
        if op == "flush":
            column = request.get("column")
            return session.flush(
                str(request["table"]),
                None if column is None else str(column),
            )
        if op == "commit":
            return session.commit()
        if op == "snapshot":
            return session.snapshot(
                str(request["table"]), str(request["column"])
            )
        if op == "release_snapshot":
            return session.release_snapshot(
                str(request["table"]), str(request["column"])
            )
        if op == "status":
            return session.status()
    except (KeyError, TypeError, ValueError) as exc:
        return Response.failure(
            op,
            f"bad request arguments: {exc}",
            session_id=session.session_id,
            error_details=type(exc).__name__,
        )
    return Response.failure(
        op,
        f"unknown operation {op!r}",
        session_id=session.session_id,
        error_details="ProtocolError",
    )


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._inflight = 0
        self._inflight_cv = threading.Condition()

    def request_started(self) -> None:
        with self._inflight_cv:
            self._inflight += 1

    def request_finished(self) -> None:
        with self._inflight_cv:
            self._inflight -= 1
            if self._inflight == 0:
                self._inflight_cv.notify_all()

    def drain(self, timeout: float | None) -> bool:
        """Wait until no statement is mid-dispatch; True when drained."""
        with self._inflight_cv:
            return self._inflight_cv.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )


class QueryServer:
    """Lifecycle wrapper: bind, serve on a background thread, stop."""

    def __init__(
        self,
        manager: DatabaseManager | None = None,
        host: str = DEFAULT_HOST,
        port: int = 0,
    ) -> None:
        """``port=0`` binds an ephemeral port (read it from
        :attr:`address` after :meth:`start`).  Without a manager, a
        fresh one with an empty ``default`` database is created and
        owned (closed on :meth:`stop`)."""
        self._owns_manager = manager is None
        if manager is None:
            manager = DatabaseManager()
            manager.create_database(DEFAULT_DB)
        self.manager = manager
        self._host = host
        self._port = port
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) actually bound (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not running")
        return self._server.server_address  # type: ignore[return-value]

    def start(self) -> tuple[str, int]:
        """Bind and serve on a daemon thread; returns (host, port)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = _Server((self._host, self._port), _Handler)
        self._server.manager = self.manager  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-query-server",
            daemon=True,
        )
        self._thread.start()
        return self.address

    def join(self) -> None:
        """Block until the serving thread exits (e.g. on interrupt)."""
        if self._thread is not None:
            self._thread.join()

    def serve_forever(self) -> None:
        """Blocking serve loop (the ``repro serve`` CLI entry point)."""
        if self._server is None:
            self._server = _Server((self._host, self._port), _Handler)
            self._server.manager = self.manager  # type: ignore[attr-defined]
        self._server.serve_forever()

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Graceful shutdown: drain in-flight statements, flush, close.

        Stops accepting connections, waits up to ``drain_timeout``
        seconds for statements already mid-dispatch to finish, flushes
        every database's staged writes (and WAL, when durable) through
        the manager, then closes the manager when owned.
        """
        if self._server is not None:
            self._server.shutdown()
            self._server.drain(drain_timeout)
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.manager.flush_all()
        if self._owns_manager:
            self.manager.close()

    def __enter__(self) -> "QueryServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
