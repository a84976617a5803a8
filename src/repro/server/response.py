"""The uniform response envelope every session operation returns.

A :class:`Response` is what the session layer hands back for every
request, local or remote: either tabular rows (SQL results), a
structured payload in :attr:`data` (range queries, status), or an
error.  The REPL and the wire server both render through
:func:`render_response`, so a statement fails with byte-identical text
whether it ran in-process or across a socket.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Response:
    """Result envelope of one session operation."""

    ok: bool = True
    #: The operation that produced this response (``sql``, ``query``, ...).
    op: str = ""
    session_id: int = 0
    #: Monotonic per-session request counter.
    sequence: int = 0
    #: Tabular payload (SQL results).
    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    #: Informational message (DDL/DML statements).
    message: str = ""
    #: Error text (``ok=False`` only), rendered exactly like the REPL's.
    error: str | None = None
    #: Exception class name backing :attr:`error`.
    error_details: str | None = None
    #: Simulated main-lane nanoseconds this request charged.
    sim_ns: float = 0.0
    #: Structured payload for non-tabular operations.
    data: dict = field(default_factory=dict)

    @classmethod
    def failure(
        cls,
        op: str,
        error: str,
        *,
        session_id: int = 0,
        sequence: int = 0,
        error_details: str | None = None,
        data: dict | None = None,
    ) -> "Response":
        return cls(
            ok=False,
            op=op,
            session_id=session_id,
            sequence=sequence,
            error=error,
            error_details=error_details,
            data=data or {},
        )

    @classmethod
    def from_result(cls, op: str, result) -> "Response":
        """Wrap a :class:`~repro.sql.executor.ResultTable`."""
        return cls(
            op=op,
            columns=list(result.columns),
            rows=list(result.rows),
            message=result.message,
        )

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self):
        """The single value of a 1x1 tabular response."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ValueError("response is not a single scalar")
        return self.rows[0][0]

    def pretty(self) -> str:
        """Render tabular payload as an aligned ASCII table."""
        from ..bench.reporting import format_table

        if not self.columns:
            return self.message
        return format_table(self.columns, [list(row) for row in self.rows])

    def raise_for_error(self) -> "Response":
        """Raise :class:`RuntimeError` when ``ok`` is False; else self."""
        if not self.ok:
            raise RuntimeError(self.error or "request failed")
        return self


def render_response(response: Response, emit=print) -> None:
    """Render a response exactly like the classic REPL rendered results.

    Shared by the interactive shell (local and ``--connect`` modes) so
    error text, tables and row counts never drift between the two.
    """
    if not response.ok:
        emit(f"error: {response.error}")
        return
    if response.columns:
        emit(response.pretty())
        emit(f"({len(response.rows)} rows)")
    elif response.message:
        emit(response.message)


def result_digest(rowids: np.ndarray, values: np.ndarray) -> str:
    """Order-invariant exact digest of a (rowids, values) result set.

    Sorts by rowid and hashes the raw int64 bytes — two results digest
    equal iff they contain exactly the same (rowid, value) pairs.  Used
    by the wire protocol and the serving benchmark's oracle check, where
    shipping full result sets would dominate the measurement.  A result
    whose rowids already ascend — what a scan of one view returns — is
    hashed where it lies.
    """
    rowids = np.ascontiguousarray(rowids, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.int64)
    if not (rowids[1:] > rowids[:-1]).all():
        order = np.argsort(rowids, kind="stable")
        rowids, values = rowids[order], values[order]
    digest = hashlib.blake2b(digest_size=16)
    digest.update(rowids)
    digest.update(values)
    return digest.hexdigest()
