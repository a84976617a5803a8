"""Crash-consistent recovery: latest checkpoint + WAL tail replay.

:func:`recover_database` rebuilds an :class:`~repro.core.facade.
AdaptiveDatabase` from a durable directory after any kind of death —
clean close, ``SIGKILL``, simulated crash point, torn power-loss tail:

1. load ``checkpoint.npz`` if present (tables, tombstones, warm views,
   and the ``wal_lsn`` watermark the archive is consistent with) —
   otherwise start cold from an empty database;
2. opening the database's log scans it once for the trusted record
   prefix, stopping at the first torn/invalid frame, and then
   physically truncates the torn tail, so the repaired log continues
   from the last trusted record;
3. replay every record of that scan with ``lsn > wal_lsn`` in log
   order, with the facade's journaling suppressed so replay never
   re-appends.

The replay applies *logical* ops — create/insert/update/delete — and
honours ``merge`` markers for physical layout.  It goes through the
facade's own write steps: a run of consecutive binary ``insert`` rows of
one table is staged at once by the live insert's staging step, and a
delete is :meth:`~repro.core.facade.AdaptiveDatabase.delete_rows`, which
merges staged rows first — so a delete behind a merge marker dropped on
a full log still finds its rows.  Content, not layout, is the recovery
contract.

Tiered columns come back through the normal ``create_table`` path:
placement starts afresh (the initial placement demotes down to budget),
and governor debt starts at zero — the persistent tier owes nothing for
work the dead process did.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import groupby
from typing import TYPE_CHECKING

import numpy as np

from .records import TornRecord, decode_array

if TYPE_CHECKING:  # pragma: no cover - annotations only (import cycle:
    # core.facade imports the wal package, so the real import is lazy)
    from ..core.facade import AdaptiveDatabase


@dataclass(frozen=True)
class RecoveryReport:
    """What one recovery did."""

    #: The watermark the checkpoint was consistent with (0 = no
    #: checkpoint, cold start).
    checkpoint_lsn: int
    #: LSN of the last trusted record in the repaired log.
    wal_lsn: int
    #: Records replayed after the checkpoint (all types).
    replayed_records: int
    #: Logical write ops among them (create/insert/update/delete) —
    #: the count the acked-prefix oracle bounds.
    replayed_ops: int
    #: Bytes discarded at the torn tail (0 for a clean log).
    truncated_bytes: int
    #: The tear that ended the trusted prefix, or None.
    torn: TornRecord | None
    #: Whether recovery started from an empty database (no checkpoint).
    started_cold: bool

    def describe(self) -> str:
        """One human-readable line."""
        origin = "cold start" if self.started_cold else (
            f"checkpoint@{self.checkpoint_lsn}"
        )
        tail = (
            f", truncated {self.truncated_bytes} torn bytes"
            if self.truncated_bytes
            else ""
        )
        return (
            f"recovered from {origin}: replayed {self.replayed_ops} ops "
            f"({self.replayed_records} records) up to lsn {self.wal_lsn}{tail}"
        )


def _row_run(record: dict) -> str | None:
    """The table of a binary ``insert`` row, None for any other record:
    consecutive rows of one table share a key and replay as one run."""
    if record["type"] == "insert" and "row" in record:
        return record["table"]
    return None


def _check_widths(rows: list[tuple[int, ...]], names: list[str]) -> None:
    """Refuse a logged row that is not exactly one value per column: a
    frame carries its values by position, so its width is all there is
    to check (the values are int64 by construction)."""
    width = len(names)
    for row in rows:
        if len(row) != width:
            raise ValueError(
                f"logged row has {len(row)} values; table has the columns {tuple(names)}"
            )


def _replay(db: AdaptiveDatabase, record: dict) -> int:
    """Apply one record that is not part of a row run; returns the
    logical write ops it counts as (create/insert/update/delete)."""
    kind = record["type"]
    if kind == "create":
        columns = record["columns"]
        # A log from before the "order" list replays in the
        # sorted-key order its own writer recovered into.
        db.create_table(
            record["table"],
            {
                column: decode_array(columns[column])
                for column in record.get("order", columns)
            },
        )
        return 1
    if kind == "insert":  # named values: a pre-binary log
        db.insert(record["table"], record["values"])
        return 1
    if kind == "update":
        db.update(
            record["table"],
            record["column"],
            int(record["row"]),
            int(record["value"]),
        )
        return 1
    if kind == "delete":
        db.delete_rows(record["table"], np.asarray(record["rowids"], dtype=np.int64))
        return 1
    if kind == "merge":
        db.flush_inserts(record["table"])
    elif kind != "checkpoint":  # a checkpoint is a watermark: nothing to apply
        raise ValueError(f"unknown WAL record type: {kind!r}")
    return 0


def recover_database(
    durable_dir: str | os.PathLike[str],
    backend: str | object = "simulated",
    durability=None,
    **db_kwargs,
) -> tuple[AdaptiveDatabase, RecoveryReport]:
    """Reopen ``durable_dir`` crash-consistently.

    Returns the recovered database (journaling new writes to the same,
    repaired log) and a :class:`RecoveryReport`.  Extra keyword
    arguments pass through to the :class:`AdaptiveDatabase`
    constructor (``tiering=``, ``observe=``, ``resilience=``, ...).
    """
    from ..core.checkpoint import load_database
    from ..core.facade import CHECKPOINT_FILE, AdaptiveDatabase

    durable_dir = os.fspath(durable_dir)
    checkpoint_path = os.path.join(durable_dir, CHECKPOINT_FILE)
    started_cold = not os.path.exists(checkpoint_path)
    if started_cold:
        db = AdaptiveDatabase(
            backend=backend,
            durable_dir=durable_dir,
            durability=durability,
            **db_kwargs,
        )
        checkpoint_lsn = 0
    else:
        db = load_database(
            checkpoint_path,
            backend=backend,
            durable_dir=durable_dir,
            durability=durability,
            **db_kwargs,
        )
        checkpoint_lsn = db._checkpoint_wal_lsn
    # Opening the facade's WAL scanned the log once, read-only, and then
    # truncated the torn tail: its scan is the trusted prefix to replay.
    scan = db._wal.opening_scan
    records = [r for r in scan.records if int(r["lsn"]) > checkpoint_lsn]
    replayed_ops = 0
    db._replaying = True
    try:
        for table_name, run in groupby(records, key=_row_run):
            if table_name is not None:
                # A run of binary insert rows of one table: staged at
                # once by the write buffer step a live insert stages with.
                table = db.table(table_name)
                rows = [record["row"] for record in run]
                _check_widths(rows, table.column_names)
                db._write_buffer(table).stage(rows)
                replayed_ops += len(rows)
                continue
            for record in run:
                replayed_ops += _replay(db, record)
    finally:
        db._replaying = False
    db._last_acked_lsn = db._wal.lsn
    report = RecoveryReport(
        checkpoint_lsn=checkpoint_lsn,
        wal_lsn=db._wal.lsn,
        replayed_records=len(records),
        replayed_ops=replayed_ops,
        truncated_bytes=scan.truncated_bytes,
        torn=scan.torn,
        started_cold=started_cold,
    )
    if db.observer is not None:
        db.observer.on_recovery()
    db.last_recovery = report
    return db, report
