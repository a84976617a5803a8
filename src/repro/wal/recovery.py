"""Crash-consistent recovery: latest checkpoint + WAL tail replay.

:func:`recover_database` rebuilds an :class:`~repro.core.facade.
AdaptiveDatabase` from a durable directory after any kind of death —
clean close, ``SIGKILL``, simulated crash point, torn power-loss tail:

1. scan the log (read-only) for the trusted record prefix, stopping at
   the first torn/invalid frame;
2. load ``checkpoint.npz`` if present (tables, tombstones, warm views,
   and the ``wal_lsn`` watermark the archive is consistent with) —
   otherwise start cold from an empty database;
3. replay every record with ``lsn > wal_lsn`` in log order, with the
   facade's journaling suppressed so replay never re-appends;
4. physically truncate the torn tail (the facade's WAL open does this)
   so the repaired log continues from the last trusted record.

The replay applies *logical* ops — create/insert/update/delete — and
honours ``merge`` markers for physical layout.  A delete whose rowids
outrun the table (possible only when a merge marker was dropped on a
full log) forces the merge first; content, not layout, is the recovery
contract.

Tiered columns come back through the normal ``create_table`` path: the
spill file is rebuilt from scratch (or started cold when the replayed
placement never demotes), and governor debt starts at zero — the
persistent tier owes nothing for work the dead process did.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .records import TornRecord, decode_array, scan_wal

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
    scan = scan_wal(durable_dir)
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
    # Opening the facade's WAL already truncated the torn tail.
    records = [r for r in scan.records if int(r["lsn"]) > checkpoint_lsn]
    replayed_ops = 0
    db._replaying = True
    try:
        for record in records:
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
                replayed_ops += 1
            elif kind == "insert":
                values = record.get("values")  # named: a pre-binary log
                if values is None:
                    names = db.table(record["table"]).column_names
                    values = dict(zip(names, record["row"], strict=True))
                db.insert(record["table"], values)
                replayed_ops += 1
            elif kind == "update":
                db.update(
                    record["table"],
                    record["column"],
                    int(record["row"]),
                    int(record["value"]),
                )
                replayed_ops += 1
            elif kind == "delete":
                rowids = [int(row) for row in record["rowids"]]
                table = db.table(record["table"])
                if rowids and max(rowids) >= table.num_rows:
                    # A merge marker was dropped (full log): force the
                    # merge the original session performed implicitly.
                    db.flush_inserts(record["table"])
                if rowids:
                    table.delete_rows(np.asarray(rowids, dtype=np.int64))
                replayed_ops += 1
            elif kind == "merge":
                db.flush_inserts(record["table"])
            elif kind == "checkpoint":
                pass  # watermark marker; nothing to apply
            else:
                raise ValueError(f"unknown WAL record type: {kind!r}")
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
        db.observer.on_recovery(
            replayed=report.replayed_ops,
            truncated_bytes=report.truncated_bytes,
            checkpoint_lsn=report.checkpoint_lsn,
            wal_lsn=report.wal_lsn,
        )
    db.last_recovery = report
    return db, report
