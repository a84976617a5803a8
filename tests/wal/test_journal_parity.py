"""The durable insert path writes and books what the per-insert journal did.

Two contracts, both against :mod:`tests.wal.journal_oracle`:

* a property over table names (1–255 UTF-8 bytes), widths and the int64
  edges: a live ``insert`` lands exactly ``encode_record``'s frame, and
  a row the frame cannot carry is refused the same way by both entries
  — same exception, no bytes, no LSN burned;
* a seeded durable stream (inserts, reads, an update, a delete, a
  checkpoint, a crash copy and its recovery), optionally under a
  ``wal_append`` fault schedule with torn writes, run under
  ``production_paths()`` and ``reference_paths()``: segment bytes, LSNs,
  ledger lanes and counters, fault journals and the recovered table are
  ``==``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.faults import FaultKind, FaultRule, FaultSchedule, FaultySubstrate
from repro.faults.errors import SubstrateFault
from repro.substrate import make_substrate
from repro.vm.constants import MAX_VALUE, MIN_VALUE
from repro.wal import DurabilityConfig, WriteAheadLog, recover_database
from repro.wal.records import MAX_TABLE_NAME_BYTES, encode_record

from ..oracle_paths import production_paths, reference_paths

CONFIG = AdaptiveConfig(background_mapping=False)

#: Table names of 1..255 UTF-8 bytes (surrogates cannot be encoded).
NAMES = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=255
).filter(lambda name: len(name.encode()) <= MAX_TABLE_NAME_BYTES)

EDGES = st.sampled_from([MIN_VALUE, MIN_VALUE + 1, -1, 0, 1, MAX_VALUE - 1, MAX_VALUE])
VALUES = st.one_of(EDGES, st.integers(MIN_VALUE, MAX_VALUE))


def _segments(directory) -> dict[str, bytes]:
    return {
        path.name: path.read_bytes() for path in sorted(Path(directory).glob("wal-*.seg"))
    }


class TestLiveFrame:
    @settings(max_examples=60, deadline=None)
    @given(
        name=NAMES,
        row=st.integers(1, 6).flatmap(
            lambda width: st.lists(VALUES, min_size=width, max_size=width)
        ),
    )
    def test_a_live_insert_writes_exactly_encode_records_frame(self, name, row):
        columns = [f"c{i}" for i in range(len(row))][::-1]  # not alphabetical
        with tempfile.TemporaryDirectory() as directory:
            db = AdaptiveDatabase(
                config=CONFIG,
                durable_dir=directory,
                durability=DurabilityConfig(fsync="off"),
            )
            try:
                db.create_table(name, {c: np.arange(4, dtype=np.int64) for c in columns})
                before = sum(map(len, _segments(directory).values()))
                db.insert(name, dict(zip(columns, row)))
                lsn = db._wal.lsn
                written = b"".join(_segments(directory).values())[before:]
            finally:
                db.close()
        want = encode_record({"type": "insert", "table": name, "row": tuple(row), "lsn": lsn})
        assert written == want

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.one_of(NAMES, st.text(min_size=128, max_size=300).filter(
            lambda name: len(name.encode()) > MAX_TABLE_NAME_BYTES
        )),
        row=st.lists(
            st.one_of(VALUES, st.sampled_from([MIN_VALUE - 1, MAX_VALUE + 1, 2**64])),
            min_size=1,
            max_size=4,
        ).map(tuple),
    )
    def test_both_entries_refuse_the_same_rows_the_same_way(self, name, row):
        outcomes = []
        with tempfile.TemporaryDirectory() as directory:
            for entry in ("append", "append_row"):
                wal = WriteAheadLog(
                    os.path.join(directory, entry), DurabilityConfig(fsync="off")
                )
                try:
                    if entry == "append":
                        record = {"type": "insert", "table": name, "row": row}
                        result = wal.append(record)
                        assert record["lsn"] == result
                    else:
                        result = wal.append_row(name, row)
                except ValueError as exc:
                    result = (type(exc), str(exc))
                outcomes.append((result, wal.lsn, wal.total_bytes))
                wal.close()
                outcomes[-1] += (_segments(os.path.join(directory, entry)),)
        assert outcomes[0] == outcomes[1]
        if isinstance(outcomes[0][0], tuple):  # refused: nothing written
            assert outcomes[0][1:3] == (0, 0)


# -- the seeded durable stream -------------------------------------------------


def _crash_copy(db: AdaptiveDatabase, source: str, target: str) -> None:
    """Copy ``source`` as a power cut would leave it: the unsynced tail goes."""
    discard = db.wal_status()["unsynced_bytes"]
    shutil.copytree(source, target)
    for segment in sorted(Path(target).glob("wal-*.seg"), reverse=True):
        if discard <= 0:
            break
        size = segment.stat().st_size
        cut = min(size, discard)
        os.truncate(segment, size - cut)
        discard -= cut


def _mirror(db: AdaptiveDatabase) -> dict:
    """Physical columns, staged rows and tombstones, as they stand."""
    table = db.table("t")
    buffer = db._write_buffers.get("t")
    mask = table.tombstones.mask()
    return {
        "columns": {n: c.values().tolist() for n, c in table.columns.items()},
        "staged": list(buffer._rows) if buffer is not None else [],
        "deleted": [] if mask is None else np.flatnonzero(mask).tolist(),
    }


def _stream(seed: int, root: str, faulty: bool) -> dict:
    rng = np.random.default_rng(seed)
    live, copy = os.path.join(root, "live"), os.path.join(root, "copy")
    substrate = FaultySubstrate(make_substrate("simulated")) if faulty else "simulated"
    db = AdaptiveDatabase(
        config=CONFIG,
        backend=substrate,
        durable_dir=live,
        durability=DurabilityConfig(fsync="batch", segment_bytes=4096, batch_bytes=700),
    )
    out: dict = {"acks": [], "refused": [], "answers": []}
    db.create_table(
        "t",
        {
            "k": rng.integers(0, 1000, 3000, dtype=np.int64),
            "b": rng.integers(0, 1000, 3000, dtype=np.int64),
        },
    )
    if faulty:
        substrate.schedule = FaultSchedule(
            [
                FaultRule(ops="wal_append", probability=0.01),
                FaultRule(ops="wal_append", probability=0.005, kind=FaultKind.TORN_WRITE),
                FaultRule(ops="fsync", probability=0.1),
            ],
            seed=seed,
        )
    inserts = 2400
    edges = np.array([MIN_VALUE, MAX_VALUE, 0, -1], dtype=np.int64)
    for i in range(inserts):
        k, b = (int(v) for v in rng.integers(0, 1000, 2))
        if i % 97 == 0:
            k, b = int(edges[i % 4]), int(edges[(i + 1) % 4])
        try:
            out["acks"].append((db.insert("t", {"b": b, "k": k}), db._last_acked_lsn))
            if i == 700:
                db.update("t", "k", 5, 777)
            if i == 900:
                db.delete_rows("t", np.array([3, 3001, 3002], dtype=np.int64))
        except SubstrateFault as fault:  # refused: the stream goes on
            out["refused"].append((i, fault.kind))
        if i % 150 == 0:
            result = db.query("t", "k", 100, 300)
            out["answers"].append(sorted(result.rowids.tolist()))
        if i == inserts // 2:
            db.checkpoint()
        if i == inserts * 3 // 4:
            _crash_copy(db, live, copy)
    out["segments"] = _segments(live)
    out["lsn"] = db._wal.lsn
    out["ledger"] = db.cost.ledger.snapshot()
    out["journal"] = list(substrate.journal) if faulty else []
    out["mirror"] = _mirror(db)
    db.close()
    recovered, report = recover_database(copy, durability=DurabilityConfig(fsync="off"))
    try:
        out["recovered"] = _mirror(recovered)
        out["recovered_ledger"] = recovered.cost.ledger.snapshot()
        out["report"] = (report.replayed_records, report.replayed_ops, report.wal_lsn)
    finally:
        recovered.close()
    return out


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("seed", range(5))
def test_seeded_stream_is_bit_identical_to_the_per_insert_journal(seed, faulty, tmp_path):
    with production_paths():
        shipped = _stream(seed, str(tmp_path / "shipped"), faulty)
    with reference_paths():
        oracle = _stream(seed, str(tmp_path / "oracle"), faulty)
    assert shipped["acks"], "the stream acknowledged nothing"
    if faulty:
        assert shipped["refused"], "the schedule never fired"
    for key in oracle:
        assert shipped[key] == oracle[key], key
