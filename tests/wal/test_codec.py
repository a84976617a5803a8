"""The frame codec as a contract: round trip, golden bytes, every tear.

``encode_record`` frames an ``insert`` row as a fixed binary body and
everything else as canonical JSON; ``scan_wal`` tells the two apart by
the body's first byte.  These tests pin the bytes (so a format change
cannot happen by accident), the round trip over the whole value space,
and the scanner's behaviour on every possible truncation and single-byte
corruption of a binary frame — it stops there, it never raises, and it
never yields a record from a damaged frame.
"""

import binascii
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vm.constants import MAX_VALUE, MIN_VALUE
from repro.wal.records import (
    HEADER,
    MAX_TABLE_NAME_BYTES,
    encode_record,
    scan_wal,
    segment_name,
    truncate_torn,
)


#: {"type": "insert", "table": "t", "row": (1, -2), "lsn": 3}, by hand:
#: crc32 | length 27 | tag 1 | lsn 3 | name length 1 | "t" | 1 | -2.
GOLDEN_ROW_FRAME = bytes.fromhex(
    "2d6aeb58" "1b000000"
    "01" "0300000000000000" "01" "74"
    "0100000000000000" "feffffffffffffff"
)
GOLDEN_ROW = {"type": "insert", "table": "t", "row": (1, -2), "lsn": 3}

#: The same kind of row as version 1 wrote it (sorted-key JSON, named values).
GOLDEN_V1_FRAME = bytes.fromhex(
    "8614d7b6" "3d000000"
    "7b226c736e223a342c227461626c65223a2274222c2274797065223a22696e73"
    "657274222c2276616c756573223a7b2261223a312c2262223a2d327d7d"
)
GOLDEN_V1 = {"type": "insert", "table": "t", "values": {"a": 1, "b": -2}, "lsn": 4}


def _frame(body: bytes) -> bytes:
    """A CRC-valid frame around an arbitrary body."""
    return HEADER.pack(binascii.crc32(body), len(body)) + body


def _scan_bytes(directory: Path, data: bytes):
    (directory / segment_name(0)).write_bytes(data)
    return scan_wal(directory)


class TestGoldenBytes:
    def test_encoder_reproduces_the_35_byte_row_frame(self):
        assert len(GOLDEN_ROW_FRAME) == 35
        assert encode_record(dict(GOLDEN_ROW)) == GOLDEN_ROW_FRAME

    def test_scanner_decodes_both_body_kinds(self, tmp_path):
        scan = _scan_bytes(tmp_path, GOLDEN_V1_FRAME + GOLDEN_ROW_FRAME)
        assert scan.torn is None
        assert scan.records == [GOLDEN_V1, GOLDEN_ROW]

    def test_only_a_positional_insert_is_binary(self):
        """Every other record type — and an insert without a row —
        keeps the JSON body, which always opens with ``{``."""
        for record in (
            {"type": "update", "table": "t", "column": "a", "row": 3, "value": 9},
            {"type": "delete", "table": "t", "rowids": [1, 2]},
            {"type": "merge", "table": "t"},
            {"type": "checkpoint", "checkpoint_lsn": 7},
            {"type": "insert"},
        ):
            frame = encode_record({**record, "lsn": 1})
            assert frame[HEADER.size : HEADER.size + 1] == b"{"


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(
        table=st.text(max_size=60),
        row=st.lists(
            st.integers(MIN_VALUE, MAX_VALUE), min_size=1, max_size=8
        ).map(tuple),
        lsn=st.integers(0, 2**64 - 1),
    )
    def test_any_row_round_trips_byte_identically(self, table, row, lsn):
        record = {"type": "insert", "table": table, "row": row, "lsn": lsn}
        frame = encode_record(dict(record))
        assert len(frame) == HEADER.size + 10 + len(table.encode()) + 8 * len(row)
        with tempfile.TemporaryDirectory() as directory:
            scan = _scan_bytes(Path(directory), frame)
        assert scan.torn is None
        assert scan.records == [record]
        assert scan.last_lsn == lsn
        assert encode_record(scan.records[0]) == frame

    def test_longest_table_name_fits_and_one_more_byte_does_not(self, tmp_path):
        name = "n" * MAX_TABLE_NAME_BYTES
        record = {"type": "insert", "table": name, "row": (5,), "lsn": 1}
        assert _scan_bytes(tmp_path, encode_record(dict(record))).records == [record]
        with pytest.raises(ValueError, match="table name"):
            encode_record({**record, "table": name + "n"})
        with pytest.raises(ValueError, match="table name"):
            # 128 two-byte characters: 256 bytes of UTF-8.
            encode_record({**record, "table": "é" * 128})

    @pytest.mark.parametrize("value", [MIN_VALUE - 1, MAX_VALUE + 1, 1.5])
    def test_a_value_the_frame_cannot_carry_is_a_value_error(self, value):
        with pytest.raises(ValueError, match="cannot be framed"):
            encode_record(
                {"type": "insert", "table": "t", "row": (0, value), "lsn": 1}
            )


class TestEveryTear:
    """One binary frame behind a trusted prefix, damaged every way."""

    PREFIX = encode_record({"type": "merge", "table": "t", "lsn": 1}) + encode_record(
        {"type": "insert", "table": "t", "row": (10, 20), "lsn": 2}
    )
    VICTIM = encode_record(
        {"type": "insert", "table": "t", "row": (MIN_VALUE, MAX_VALUE), "lsn": 3}
    )
    #: A whole, valid frame *after* the victim: it must never be trusted.
    LATER = encode_record({"type": "insert", "table": "t", "row": (1, 2), "lsn": 4})

    def _assert_stops_at_victim(self, scan, reasons):
        assert [r["lsn"] for r in scan.records] == [1, 2]
        assert scan.torn is not None
        assert scan.torn.offset == len(self.PREFIX)
        assert scan.torn.reason in reasons
        assert scan.valid_end[segment_name(0)] == len(self.PREFIX)

    def test_truncation_at_every_byte_offset(self, tmp_path):
        for cut in range(1, len(self.VICTIM)):
            scan = _scan_bytes(tmp_path, self.PREFIX + self.VICTIM[:cut])
            want = "short header" if cut < HEADER.size else "short body"
            self._assert_stops_at_victim(scan, {want})
            assert scan.truncated_bytes == cut

    @pytest.mark.parametrize("later", [b"", LATER], ids=["at-tail", "mid-log"])
    def test_every_single_byte_flip(self, tmp_path, later):
        for position in range(len(self.VICTIM)):
            damaged = bytearray(self.VICTIM)
            damaged[position] ^= 0xFF
            scan = _scan_bytes(tmp_path, self.PREFIX + bytes(damaged) + later)
            self._assert_stops_at_victim(
                scan, {"short header", "short body", "crc mismatch"}
            )

    #: The victim's body: tag | lsn (8) | name length | "t" | two int64s.
    BODY = VICTIM[HEADER.size :]

    @pytest.mark.parametrize(
        "body",
        [
            b"",
            b"\x01\x00",
            b"\x02" + BODY[1:],
            BODY[:9] + b"\xc8" + BODY[10:],  # name length 200
            BODY[:-1],  # 15 value bytes
            BODY[:10] + b"\xff" + BODY[11:],
        ],
        ids=[
            "empty",
            "shorter-than-the-head",
            "unknown-tag",
            "name-overruns-the-body",
            "values-not-whole-int64s",
            "name-not-utf8",
        ],
    )
    def test_crc_valid_malformed_body_is_a_bad_frame(self, tmp_path, body):
        scan = _scan_bytes(tmp_path, self.PREFIX + _frame(body) + self.LATER)
        self._assert_stops_at_victim(scan, {"bad frame"})
        # ... and is repaired like any other tear.
        removed = truncate_torn(tmp_path, scan)
        assert removed == len(_frame(body)) + len(self.LATER)
        rescanned = scan_wal(tmp_path)
        assert rescanned.torn is None
        assert rescanned.last_lsn == 2
