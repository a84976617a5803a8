"""The append-only write-ahead log.

:class:`WriteAheadLog` owns a directory of CRC32-framed segment files
(see :mod:`repro.wal.records`) and offers exactly the operations the
facade's journal-before-ack protocol needs: ``append`` a record,
``sync`` the active segment, ``record_checkpoint`` a marker, ``prune``
segments made obsolete by a checkpoint, and report ``health``.

Segments are opened unbuffered (``buffering=0``), so every byte handed
to ``append`` is in the OS page cache before the call returns — a
process kill (SIGKILL) at any later point loses nothing.  The fsync
policy (:class:`~repro.wal.config.DurabilityConfig`) only decides
*power-loss* durability, which the fault plane models as
``torn_write``.

Three failure surfaces thread through ``append``:

* the fault plane (``wal_append`` / ``fsync`` ops, ``torn_write``
  kind) via :func:`~repro.faults.plane.check_fault` when the owning
  substrate carries one;
* the crash-point schedule (:mod:`repro.wal.crashpoint`) when a test
  arms one, which raises :class:`SimulatedCrash` mid-protocol;
* the size cap: an append that would exceed ``max_bytes`` raises
  :class:`WalFullError` and latches the log read-only until a
  checkpoint prunes it back under budget.
"""

from __future__ import annotations

import os
from pathlib import Path

from ..faults.errors import SubstrateFault
from ..faults.plane import check_fault
from ..faults.schedule import FaultKind
from .config import DurabilityConfig
from .crashpoint import CrashPointSchedule
from .records import (
    WalScan,
    encode_record,
    scan_wal,
    segment_name,
    truncate_torn,
)


class WalFullError(RuntimeError):
    """The log hit ``max_bytes``; writes are refused until a checkpoint."""


class WriteAheadLog:
    """An append-only, CRC-framed, segment-rotated write-ahead log."""

    def __init__(
        self,
        directory: str | os.PathLike[str],
        config: DurabilityConfig | None = None,
        substrate=None,
        cost=None,
        observer=None,
    ) -> None:
        """Open (or create) the log under ``directory``.

        Opening scans the existing segments, physically truncates any
        torn tail, and resumes the LSN sequence from the last trusted
        record — so re-opening after a crash is itself the first half
        of recovery.
        """
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.config = config or DurabilityConfig()
        self.substrate = substrate
        self.cost = cost
        self.observer = observer
        #: Armed by the crash-point fuzz plane; None in production.
        self.crashpoints: CrashPointSchedule | None = None

        scan = scan_wal(self.directory)
        self.opening_scan: WalScan = scan
        truncate_torn(self.directory, scan)
        self._lsn = scan.last_lsn

        survivors = [path for path in scan.segments if path.exists()]
        #: Closed segments as ``(path, last_lsn_in_segment)``.
        self._closed = [
            (path, scan.segment_last_lsn[path.name]) for path in survivors[:-1]
        ]
        self.total_bytes = sum(path.stat().st_size for path in survivors)
        if survivors:
            active = survivors[-1]
            self._segment_index = int(active.stem.split("-")[1])
            self._segment_bytes = active.stat().st_size
        else:
            self._segment_index = 0
            self._segment_bytes = 0
            active = self.directory / segment_name(0)
        self._active_path = active
        self._fh = open(active, "ab", buffering=0)
        self._unsynced = 0
        self._fsync_failures = 0
        self._full = False

    # -- introspection ---------------------------------------------------

    @property
    def lsn(self) -> int:
        """LSN of the last appended (or scanned) record."""
        return self._lsn

    @property
    def closed(self) -> bool:
        """Whether the active segment handle has been closed."""
        return self._fh.closed

    def status(self) -> dict:
        """Counters and policy, for ``wal_status()`` / the CLI."""
        return {
            "lsn": self._lsn,
            "total_bytes": self.total_bytes,
            "segments": len(self._closed) + 1,
            "active_segment": self._active_path.name,
            "fsync": self.config.fsync,
            "unsynced_bytes": self._unsynced,
            "fsync_failures": self._fsync_failures,
            "full": self._full,
        }

    def health(self):
        """HEALTHY / DEGRADED (fsyncs failing) / READONLY (log full)."""
        from ..resilience.policy import HealthState

        if self._full:
            return HealthState.READONLY
        if self._fsync_failures >= self.config.fsync_fail_threshold:
            return HealthState.DEGRADED
        return HealthState.HEALTHY

    # -- the append protocol ---------------------------------------------

    def append(self, record: dict) -> int:
        """Frame, journal, and (per policy) sync one record.

        Returns the assigned LSN.  The record dict is *mutated* to
        carry its LSN so callers can journal and remember it in one
        step.  A refused append — :class:`WalFullError`, or
        :class:`ValueError` for a row the frame cannot carry — writes
        nothing, burns no LSN and leaves the record without one.
        """
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
                    # Model the short write for real: a prefix of the
                    # frame lands, then the tail is repaired in place so
                    # the live log stays clean (recovery-by-truncation,
                    # just without the restart).
                    record["lsn"] = self._lsn + 1
                    frame = encode_record(record)
                    self._write_partial(frame)
                    self._repair_tail()
                    del record["lsn"]
                raise
        lsn = record["lsn"] = self._lsn + 1
        try:
            frame = encode_record(record)
        except ValueError:  # a row the frame cannot carry: refused whole
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
            cp.check("torn")  # raises SimulatedCrash, tail stays torn
        observer = self.observer
        if observer is not None:
            with observer.span("wal.append", lsn=lsn):
                self._write_frame(frame)
        else:
            self._write_frame(frame)
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

    def _write_frame(self, frame: bytes) -> None:
        self._fh.write(frame)
        size = len(frame)
        self._segment_bytes += size
        self.total_bytes += size
        self._unsynced += size
        if self.cost is not None:
            self.cost.wal_append(size)

    def _write_partial(self, frame: bytes) -> None:
        """Land a torn prefix of ``frame`` (short-write modelling)."""
        cut = max(1, len(frame) // 2)
        self._fh.write(frame[:cut])
        self._segment_bytes += cut
        self.total_bytes += cut
        self._unsynced += cut

    def _repair_tail(self) -> None:
        """Truncate the active segment back to its last whole frame."""
        scan = scan_wal(self.directory)
        removed = truncate_torn(self.directory, scan)
        if removed:
            self._fh.close()
            self._segment_bytes = self._active_path.stat().st_size
            self.total_bytes -= removed
            self._unsynced = max(0, self._unsynced - removed)
            self._fh = open(self._active_path, "ab", buffering=0)

    def _rotate(self) -> None:
        """Close the full active segment and start a fresh one.

        Under a syncing policy the closing segment's unsynced tail is
        synced first: once closed, no later fsync reaches it.
        """
        if self.config.fsync != "off" and self._unsynced:
            self._fsync()
        self._fh.close()
        self._closed.append((self._active_path, self._lsn))
        self._segment_index += 1
        self._active_path = self.directory / segment_name(self._segment_index)
        self._fh = open(self._active_path, "ab", buffering=0)
        self._segment_bytes = 0

    # -- syncing ---------------------------------------------------------

    def _fsync(self) -> None:
        """fsync the active segment; absorb injected fsync faults.

        A failed fsync loses no *written* data (it is all in the page
        cache) — it loses the power-loss guarantee, which the health
        machine surfaces as DEGRADED once failures persist.
        """
        if self.substrate is not None:
            try:
                check_fault(self.substrate, "fsync")
            except SubstrateFault:
                self._fsync_failures += 1
                return
        if self.observer is not None:
            with self.observer.span("wal.fsync", bytes=self._unsynced):
                os.fsync(self._fh.fileno())
        else:
            os.fsync(self._fh.fileno())
        if self.cost is not None:
            self.cost.fsync()
        if self.observer is not None:
            self.observer.on_wal_fsync()
        self._unsynced = 0
        self._fsync_failures = 0

    def sync(self) -> None:
        """Force-flush the active segment regardless of policy."""
        if self.config.fsync != "off" or self._unsynced:
            self._fsync()

    # -- checkpointing ---------------------------------------------------

    def record_checkpoint(self, checkpoint_lsn: int) -> int:
        """Append a checkpoint marker and sync it down."""
        lsn = self.append({"type": "checkpoint", "checkpoint_lsn": checkpoint_lsn})
        self.sync()
        return lsn

    def prune(self, upto_lsn: int) -> int:
        """Delete closed segments fully covered by a checkpoint.

        A segment is prunable when its last record's LSN is at or below
        ``upto_lsn`` (the LSN captured at checkpoint save).  Pruning can
        clear the size-cap latch, lifting READONLY.
        """
        kept: list[tuple[Path, int]] = []
        removed = 0
        for path, last_lsn in self._closed:
            if last_lsn <= upto_lsn and path.exists():
                removed += path.stat().st_size
                path.unlink()
            else:
                kept.append((path, last_lsn))
        self._closed = kept
        self.total_bytes -= removed
        if self._full and (
            self.config.max_bytes is None or self.total_bytes < self.config.max_bytes
        ):
            self._full = False
        return removed

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Flush and close the active segment."""
        if self._fh.closed:
            return
        self.sync()
        self._fh.close()
