"""WAL record framing: CRC32-guarded frames and the tail scanner.

Frame layout (little-endian)::

    +----------+----------+------------------+
    | crc32    | length   | body             |
    | 4 bytes  | 4 bytes  | ``length`` bytes |
    +----------+----------+------------------+

The CRC covers the body only; the length field is implicitly guarded
because a corrupted length either points past EOF (torn) or reframes
the body so the CRC no longer matches.

There are two kinds of body, told apart per frame by the first byte:

* ``{`` (0x7B) — canonical JSON (sorted keys, no whitespace): every
  ``create`` / ``update`` / ``delete`` / ``merge`` / ``checkpoint``
  record, and the ``insert`` records of a log written before the binary
  row existed (named ``"values"``; still read, no longer written).
  Array payloads (``create`` column data) travel as base64 of the int64
  little-endian byte image.  Sorted keys lose the column order of a
  ``create``, so it also carries an ``"order"`` list.
* ``0x01`` — one ``insert`` row in a fixed binary layout::

      tag u8 (=1) | lsn u64 | name length u8 | table name (UTF-8) | int64 × ncols

  ``ncols`` is what is left of ``length``.  The values are *positional*,
  in the table's definition order — the order the ``create`` record's
  ``"order"`` list restores — and decode to ``"row": (v0, v1, ...)``.

Either way a record re-encodes byte-identically.

:func:`scan_wal` reads every segment in order and stops at the *first*
invalid frame — short header, short body, CRC mismatch, undecodable
JSON (``bad json``), or a CRC-valid body that is neither JSON nor a
well-formed row (``bad frame``: unknown tag, a name length overrunning
the body, a remainder that is not whole int64s, a name that is not
UTF-8).  Everything before the tear is trusted (CRC-verified),
everything at and after it is garbage by definition: an append-only log
written by one writer can only be damaged at its tail.
"""

from __future__ import annotations

import base64
import binascii
import json
import os
import re
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

#: ``(crc32, body_length)`` frame header.
HEADER = struct.Struct("<II")

#: First body byte of a binary ``insert`` row.
ROW_TAG = 1

#: Fixed head of a binary row: ``tag u8 | lsn u64 | name length u8``.
_ROW_HEAD = struct.Struct("<BQB")

#: Longest table name (UTF-8 bytes) the one-byte length field carries.
MAX_TABLE_NAME_BYTES = 255

#: WAL segment file name pattern: ``wal-00000000.seg``, ``wal-00000001.seg``, ...
SEGMENT_RE = re.compile(r"^wal-(\d{8})\.seg$")


def segment_name(index: int) -> str:
    """File name of the ``index``-th segment."""
    return f"wal-{index:08d}.seg"


def list_segments(directory: str | os.PathLike[str]) -> list[Path]:
    """All WAL segment files under ``directory``, in log order."""
    root = Path(directory)
    if not root.is_dir():
        return []
    found = [
        (int(m.group(1)), root / name)
        for name in os.listdir(root)
        if (m := SEGMENT_RE.match(name))
    ]
    return [path for _, path in sorted(found)]


@lru_cache(maxsize=64)
def _row_layout(name: bytes, ncols: int) -> tuple[struct.Struct, str]:
    """Whole-body codec of a binary row, and the table name as text.

    Raises :class:`ValueError` for a name the length field cannot carry
    or that is not UTF-8.
    """
    if len(name) > MAX_TABLE_NAME_BYTES:
        raise ValueError(
            f"table name is {len(name)} bytes in UTF-8; a row frame "
            f"carries at most {MAX_TABLE_NAME_BYTES}"
        )
    return struct.Struct(f"<BQB{len(name)}s{ncols}q"), name.decode()


@lru_cache(maxsize=256)
def row_encoder(table: str, ncols: int) -> Callable[[int, tuple[int, ...]], bytes]:
    """The frame encoder of ``table``'s ``ncols``-wide rows.

    ``encoder(lsn, row)`` returns the whole CRC-guarded frame as one
    bytes object; the name bytes, their length and the body's
    :class:`struct.Struct` are bound once per ``(table, ncols)``.  A row
    the frame cannot carry (a value outside int64, a name over
    :data:`MAX_TABLE_NAME_BYTES` bytes) raises :class:`ValueError` from
    the *call*, never from this lookup, so a refusal happens where the
    append protocol encodes.
    """
    try:
        name = table.encode()
        layout, _ = _row_layout(name, ncols)
    except ValueError:

        def refuse(lsn: int, row: tuple[int, ...]) -> bytes:
            _row_layout(table.encode(), ncols)  # raises what it raised here
            raise AssertionError("unreachable")  # pragma: no cover

        return refuse
    pack, head, crc32 = layout.pack, HEADER.pack, binascii.crc32
    name_length, body_length = len(name), layout.size

    def encode(lsn: int, row: tuple[int, ...]) -> bytes:
        try:
            body = pack(ROW_TAG, lsn, name_length, name, *row)
        except struct.error as exc:
            raise ValueError(f"row cannot be framed: {exc}") from None
        return head(crc32(body), body_length) + body

    return encode


def row_frame_bytes(table: str, ncols: int) -> int:
    """Size of every frame :func:`row_encoder` writes for ``table``'s
    ``ncols``-wide rows; :class:`ValueError` where it refuses the name."""
    return HEADER.size + _row_layout(table.encode(), ncols)[0].size


def encode_record(record: dict) -> bytes:
    """Frame one record dict into CRC-guarded bytes.

    An ``insert`` carrying a positional ``"row"`` gets the binary body
    (:func:`row_encoder`), everything else canonical JSON.  Raises
    :class:`ValueError` for a row that cannot be framed (a value outside
    int64, an oversized table name).
    """
    row = record.get("row")
    if row is not None and record.get("type") == "insert":
        return row_encoder(record["table"], len(row))(record["lsn"], row)
    body = json.dumps(record, separators=(",", ":"), sort_keys=True).encode()
    return HEADER.pack(binascii.crc32(body), len(body)) + body


def _decode_row(body: bytes) -> dict:
    """Inverse of the binary branch of :func:`encode_record`.

    Raises :class:`ValueError` for a malformed body.
    """
    if len(body) < _ROW_HEAD.size:
        raise ValueError("shorter than a row's fixed head")
    tag, lsn, name_length = _ROW_HEAD.unpack_from(body)
    if tag != ROW_TAG:
        raise ValueError(f"unknown body tag {tag}")
    name_end = _ROW_HEAD.size + name_length
    ncols, ragged = divmod(len(body) - name_end, 8)
    if ncols < 0 or ragged:
        raise ValueError("name or values overrun the body")
    layout, table = _row_layout(body[_ROW_HEAD.size : name_end], ncols)
    return {"type": "insert", "lsn": lsn, "table": table, "row": layout.unpack(body)[4:]}


def encode_array(values: np.ndarray) -> str:
    """Base64 image of an int64 array (the JSON-safe payload form)."""
    return base64.b64encode(
        np.ascontiguousarray(values, dtype=np.int64).tobytes()
    ).decode("ascii")


def decode_array(payload: str) -> np.ndarray:
    """Inverse of :func:`encode_array`."""
    raw = base64.b64decode(payload.encode("ascii"))
    return np.frombuffer(raw, dtype=np.int64).copy()


@dataclass(frozen=True)
class TornRecord:
    """Where and why the scan stopped trusting the log."""

    #: Segment file containing the tear.
    segment: str
    #: Byte offset of the first untrusted byte within that segment.
    offset: int
    #: Human-readable reason (short header / short body / crc mismatch /
    #: bad json / bad frame).
    reason: str


@dataclass
class WalScan:
    """Result of :func:`scan_wal`: the trusted prefix of the log."""

    #: Every valid record, in append order.
    records: list[dict] = field(default_factory=list)
    #: The tear that ended the scan, or None for a clean log.
    torn: TornRecord | None = None
    #: Trusted bytes per segment file name.
    valid_end: dict[str, int] = field(default_factory=dict)
    #: LSN of the last trusted record at or before the end of each
    #: segment, per segment file name (what ``prune`` compares).
    segment_last_lsn: dict[str, int] = field(default_factory=dict)
    #: Segment paths in log order.
    segments: list[Path] = field(default_factory=list)
    #: Bytes discarded at and after the tear (across all segments).
    truncated_bytes: int = 0

    @property
    def last_lsn(self) -> int:
        """LSN of the last trusted record (0 for an empty log)."""
        return int(self.records[-1]["lsn"]) if self.records else 0


def scan_wal(directory: str | os.PathLike[str]) -> WalScan:
    """Read all segments, stopping at the first invalid frame.

    A tear in segment N discards the tail of N *and* every later
    segment: records after a tear were appended after the torn one and
    must not survive it (replay order would otherwise skip an op).
    """
    scan = WalScan(segments=list_segments(directory))
    torn_at: int | None = None
    for seg_index, path in enumerate(scan.segments):
        data = path.read_bytes()
        if torn_at is not None:
            # Everything after a tear is discarded wholesale.
            scan.valid_end[path.name] = 0
            scan.truncated_bytes += len(data)
            continue
        offset = 0
        while offset < len(data):
            reason = None
            if offset + HEADER.size > len(data):
                reason = "short header"
            else:
                crc, length = HEADER.unpack_from(data, offset)
                body = data[offset + HEADER.size : offset + HEADER.size + length]
                if len(body) < length:
                    reason = "short body"
                elif binascii.crc32(body) != crc:
                    reason = "crc mismatch"
                elif body.startswith(b"{"):
                    try:
                        record = json.loads(body)
                    except ValueError:
                        reason = "bad json"
                else:
                    try:
                        record = _decode_row(body)
                    except ValueError:
                        reason = "bad frame"
            if reason is not None:
                scan.torn = TornRecord(
                    segment=path.name, offset=offset, reason=reason
                )
                scan.truncated_bytes += len(data) - offset
                torn_at = seg_index
                break
            scan.records.append(record)
            offset += HEADER.size + length
        scan.valid_end[path.name] = offset if torn_at is not None else len(data)
        scan.segment_last_lsn[path.name] = scan.last_lsn
    return scan


def truncate_torn(directory: str | os.PathLike[str], scan: WalScan) -> int:
    """Physically repair the tear found by ``scan``.

    Truncates the torn segment back to its trusted prefix and deletes
    every later segment.  Returns the number of bytes removed.  No-op
    on a clean scan.
    """
    if scan.torn is None:
        return 0
    removed = 0
    past_tear = False
    for path in scan.segments:
        if path.name == scan.torn.segment:
            keep = scan.valid_end[path.name]
            size = path.stat().st_size
            if size > keep:
                with open(path, "rb+") as fh:
                    fh.truncate(keep)
                removed += size - keep
            past_tear = True
        elif past_tear:
            removed += path.stat().st_size
            path.unlink()
    return removed
