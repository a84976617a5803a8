"""The per-insert journal as it was, kept as the parity oracle.

Before the row frame had its own entry, every journaled ``insert``
built a record dict, framed it with ``encode_record`` (a per-call layout
lookup and a body packed apart from its header), appended it through
``WriteAheadLog.append`` and booked it with ``CostLedger.book``'s
generic loop.  :func:`oracle_append` is that ``append``, protocol and
all, with its own copy of the encoder; :func:`oracle_append_row` is the
facade's old insert journal on top of it (``{"type": "insert", "table":
t, "row": row}``).  ``tests/oracle_paths.py::reference_paths`` patches
both onto :class:`~repro.wal.log.WriteAheadLog`, and
``tests/wal/test_journal_parity.py`` requires segment bytes, LSNs,
lanes and counters ``==`` against the shipped path.
"""

from __future__ import annotations

import binascii
import json
import struct
from functools import lru_cache

from repro.faults.errors import SubstrateFault
from repro.faults.plane import check_fault
from repro.faults.schedule import FaultKind
from repro.vm.cost import MAIN_LANE
from repro.wal.log import WalFullError, WriteAheadLog

HEADER = struct.Struct("<II")
ROW_TAG = 1
MAX_TABLE_NAME_BYTES = 255


@lru_cache(maxsize=64)
def _row_layout(name: bytes, ncols: int) -> struct.Struct:
    if len(name) > MAX_TABLE_NAME_BYTES:
        raise ValueError(
            f"table name is {len(name)} bytes in UTF-8; a row frame "
            f"carries at most {MAX_TABLE_NAME_BYTES}"
        )
    return struct.Struct(f"<BQB{len(name)}s{ncols}q")


def oracle_encode_record(record: dict) -> bytes:
    """``encode_record`` as it was: layout looked up per call, the body
    packed first and the header prepended."""
    row = record.get("row")
    if row is not None and record.get("type") == "insert":
        name = record["table"].encode()
        layout = _row_layout(name, len(row))
        try:
            body = layout.pack(ROW_TAG, record["lsn"], len(name), name, *row)
        except struct.error as exc:
            raise ValueError(f"row cannot be framed: {exc}") from None
    else:
        body = json.dumps(record, separators=(",", ":"), sort_keys=True).encode()
    return HEADER.pack(binascii.crc32(body), len(body)) + body


def _write_frame(wal: WriteAheadLog, frame: bytes) -> None:
    wal._fh.write(frame)
    size = len(frame)
    wal._segment_bytes += size
    wal.total_bytes += size
    wal._unsynced += size
    if wal.cost is not None:
        ledger = wal.cost.ledger
        ledger.charge(wal.cost.params.wal_append_ns, MAIN_LANE)
        ledger.count("wal_appends")
        ledger.count("wal_bytes", size)


def oracle_append(self: WriteAheadLog, record: dict) -> int:
    """``WriteAheadLog.append`` as it was, for every record kind."""
    if self._full:
        raise WalFullError(
            f"wal at {self.total_bytes} bytes exceeds the "
            f"{self.config.max_bytes}-byte cap; checkpoint to prune"
        )
    cp = self.crashpoints
    if cp is not None:
        cp.begin_append()
        cp.check("before_append")
    if self.substrate is not None:
        try:
            check_fault(self.substrate, "wal_append")
        except SubstrateFault as fault:
            if fault.kind == FaultKind.TORN_WRITE.value:
                record["lsn"] = self._lsn + 1
                frame = oracle_encode_record(record)
                self._write_partial(frame)
                self._repair_tail()
                del record["lsn"]
            raise
    lsn = record["lsn"] = self._lsn + 1
    try:
        frame = oracle_encode_record(record)
    except ValueError:
        del record["lsn"]
        raise
    size = len(frame)
    config = self.config
    if config.max_bytes is not None and self.total_bytes + size > config.max_bytes:
        self._full = True
        del record["lsn"]
        raise WalFullError(
            f"appending {size} bytes would exceed the "
            f"{config.max_bytes}-byte cap; checkpoint to prune"
        )
    if self._segment_bytes and self._segment_bytes + size > config.segment_bytes:
        self._rotate()
    if cp is not None and cp.imminent("torn"):
        self._write_partial(frame)
        cp.check("torn")
    observer = self.observer
    if observer is not None:
        with observer.span("wal.append", lsn=lsn):
            _write_frame(self, frame)
    else:
        _write_frame(self, frame)
    if cp is not None:
        cp.check("after_append")
    self._lsn = lsn
    if observer is not None:
        observer.on_wal_append(size)
    if config.fsync == "always" or (
        config.fsync == "batch" and self._unsynced >= config.batch_bytes
    ):
        self._fsync()
    if cp is not None:
        cp.check("after_fsync")
    return lsn


def oracle_append_row(self: WriteAheadLog, table: str, row: tuple[int, ...]) -> int:
    """The facade's old insert journal: a record dict through :func:`oracle_append`."""
    return oracle_append(self, {"type": "insert", "table": table, "row": row})
