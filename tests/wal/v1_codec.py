"""The version-1 log format, frozen: every record as canonical JSON.

Until the binary row frame, ``repro.wal.records.encode_record`` framed
*every* record — ``insert`` included, its values named — as
``crc32 | length | sorted-key JSON``, and a ``create`` record carried
no ``"order"`` list.  Logs written that way are a supported input, so
the encoder lives on here as the tests' oracle: it writes v1 and mixed
logs that today's scanner and recovery must read.
"""

import binascii
import json
import struct

import numpy as np

from repro.wal.records import encode_array, segment_name

HEADER = struct.Struct("<II")


def encode_v1(record: dict) -> bytes:
    """Frame one record the way version 1 framed all of them."""
    body = json.dumps(record, separators=(",", ":"), sort_keys=True).encode()
    return HEADER.pack(binascii.crc32(body) & 0xFFFFFFFF, len(body)) + body


def create_v1(lsn: int, table: str, data: dict[str, np.ndarray]) -> bytes:
    """A v1 ``create`` frame: no ``"order"``; sorted keys lose it."""
    return encode_v1(
        {
            "type": "create",
            "lsn": lsn,
            "table": table,
            "columns": {name: encode_array(values) for name, values in data.items()},
        }
    )


def insert_v1(lsn: int, table: str, values: dict[str, int]) -> bytes:
    """A v1 ``insert`` frame: the row's values by column name."""
    return encode_v1(
        {"type": "insert", "lsn": lsn, "table": table, "values": values}
    )


def write_segment(directory, frames: list[bytes], index: int = 0) -> None:
    """Write ``frames`` back to back as segment ``index``."""
    (directory / segment_name(index)).write_bytes(b"".join(frames))
