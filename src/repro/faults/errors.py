"""Typed faults surfaced by the fault-injection plane.

:class:`SubstrateFault` is what an injected failure looks like to the
layers above the substrate: a typed error carrying the operation it hit
and the kind of fault that fired, so rollback code can react uniformly
without string-matching backend-specific exceptions (the simulated
``OutOfMemoryError`` vs. the native ``OSError(ENOMEM)``).

The error deliberately does *not* subclass :class:`~repro.vm.errors.VmError`:
a substrate fault is an injected (or real) resource failure of the
backend, not a programming error against the VM API, and the hardened
core paths treat the two differently (faults degrade gracefully, VM
errors still crash loudly in fault-free code).
"""

from __future__ import annotations


class SubstrateFault(RuntimeError):
    """A substrate operation failed (injected or real resource failure).

    ``kind`` is the :class:`~repro.faults.schedule.FaultKind` value that
    fired (a plain string to keep this module dependency-free), ``op``
    the substrate operation that raised, ``call_index`` the 1-based
    per-operation call count at which the schedule triggered, and
    ``transient`` whether the failure is classified as recoverable by
    retrying (resource exhaustion is permanent; a lost mapping race or
    torn maps read clears on its own).  ``run_index`` is, for a fault
    inside a mapping plan (``apply_runs`` / ``map_runs``), the run that
    failed: the runs before it were applied, it and the ones after it
    were not.
    """

    def __init__(
        self,
        op: str,
        kind: str,
        call_index: int | None = None,
        transient: bool = False,
        run_index: int = 0,
    ) -> None:
        detail = f" (call #{call_index})" if call_index is not None else ""
        grade = "transient" if transient else "permanent"
        super().__init__(
            f"substrate fault: {kind} ({grade}) during {op}{detail}"
        )
        self.op = op
        self.kind = kind
        self.call_index = call_index
        self.transient = transient
        self.run_index = run_index


class TornSnapshotError(SubstrateFault):
    """A maps snapshot disagrees with the view catalog.

    Raised by the hardened maintenance path when the per-page "is this
    physical page indexed by this view?" answer from the bimap snapshot
    contradicts the view's own bookkeeping — the signature of a stale or
    torn snapshot (:data:`~repro.faults.schedule.FaultKind.STALE_MAPS`).
    Never fires in fault-free operation.
    """

    def __init__(self, op: str, fpage: int) -> None:
        super().__init__(op, kind="torn_snapshot")
        self.fpage = fpage
