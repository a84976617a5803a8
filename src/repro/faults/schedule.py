"""Programmable, seeded fault schedules.

A :class:`FaultSchedule` decides, deterministically, which substrate
calls fail.  It is driven by :class:`FaultRule` entries — each matching
a set of substrate operations and firing either on the *n*-th matching
call or with a seeded per-call probability — and keeps a journal of
every injected fault, so a failing fuzz run can be replayed exactly
from its seed.

Determinism contract: given the same rules, the same seed and the same
sequence of ``check`` calls, the schedule fires identically.  Every
probability rule draws from the generator on *every* matching call
(even when an earlier rule already fired for that call), so firing one
rule never shifts another rule's random stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class FaultKind(str, Enum):
    """What failure an injected fault models."""

    #: Allocation failure (ENOMEM) on ``reserve`` / ``map_file``.
    ENOMEM = "enomem"

    #: ``mmap(MAP_FIXED)`` failure mid-rewire.
    MAP_FIXED_FAIL = "map_fixed_fail"

    #: Failure while pointing a slot back at reservation memory.
    UNMAP_FAIL = "unmap_fail"

    #: :class:`~repro.substrate.interface.PageStore` capacity exhaustion
    #: (``create_file`` / ``resize``).
    CAPACITY = "capacity"

    #: The maps source could not be read/parsed.
    MAPS_ERROR = "maps_error"

    #: The maps source returns a delayed (stale) snapshot instead of the
    #: current one.  The only kind that does not raise: the wrapper
    #: hands back the *previous* snapshot of the same file filter.
    STALE_MAPS = "stale_maps"

    #: Reading a page back from the cold tier failed (far-tier / spill
    #: device read error).
    COLD_READ_FAIL = "cold_read_fail"

    #: Spilling a page to the cold tier failed (far-tier / spill device
    #: write error).
    COLD_WRITE_FAIL = "cold_write_fail"

    #: Appending a framed record to the write-ahead log failed (log
    #: device I/O error before any byte of the frame landed).
    WAL_APPEND_FAIL = "wal_append_fail"

    #: fsync() of the active WAL segment failed; appended bytes stay in
    #: the OS page cache but have no power-loss durability.
    FSYNC_FAIL = "fsync_fail"

    #: Short write: only a prefix of the frame reached the log, leaving
    #: a torn record at the tail (the classic power-loss signature).
    TORN_WRITE = "torn_write"


#: Default fault kind per substrate operation (what failing that call
#: naturally looks like).
DEFAULT_KINDS: dict[str, FaultKind] = {
    "reserve": FaultKind.ENOMEM,
    "map_file": FaultKind.ENOMEM,
    "map_fixed": FaultKind.MAP_FIXED_FAIL,
    "unmap_slot": FaultKind.UNMAP_FAIL,
    "create_file": FaultKind.CAPACITY,
    "resize": FaultKind.CAPACITY,
    "maps_snapshot": FaultKind.MAPS_ERROR,
    "cold_read": FaultKind.COLD_READ_FAIL,
    "cold_write": FaultKind.COLD_WRITE_FAIL,
    "wal_append": FaultKind.WAL_APPEND_FAIL,
    "fsync": FaultKind.FSYNC_FAIL,
}


def default_kind(op: str) -> FaultKind:
    """The natural :class:`FaultKind` for failing operation ``op``."""
    return DEFAULT_KINDS.get(op, FaultKind.ENOMEM)


#: Default transience per fault kind.  Transient faults model conditions
#: that clear on their own (a torn maps read, a racing rewire losing to
#: ``mmap(MAP_FIXED)`` contention) and are worth retrying; permanent
#: faults model exhausted resources (ENOMEM, store capacity) where a
#: retry would just fail again.
DEFAULT_TRANSIENT: dict[FaultKind, bool] = {
    FaultKind.ENOMEM: False,
    FaultKind.MAP_FIXED_FAIL: True,
    FaultKind.UNMAP_FAIL: True,
    FaultKind.CAPACITY: False,
    FaultKind.MAPS_ERROR: True,
    FaultKind.STALE_MAPS: True,
    # Spill I/O errors model a congested or briefly unreachable far
    # tier: the device comes back, so retries are the right response.
    FaultKind.COLD_READ_FAIL: True,
    FaultKind.COLD_WRITE_FAIL: True,
    # Log-device hiccups clear like spill-device ones do; a torn write
    # is not retried — the WAL repairs its tail by truncation instead.
    FaultKind.WAL_APPEND_FAIL: True,
    FaultKind.FSYNC_FAIL: True,
    FaultKind.TORN_WRITE: False,
}


def default_transient(kind: FaultKind | str) -> bool:
    """Whether faults of ``kind`` are retryable by default.

    Unknown kinds (e.g. the derived ``torn_snapshot``) classify as
    permanent — the conservative answer for a failure the taxonomy does
    not know how to wait out.
    """
    try:
        kind = FaultKind(kind)
    except ValueError:
        return False
    return DEFAULT_TRANSIENT.get(kind, False)


@dataclass
class FaultRule:
    """One trigger: fail matching calls on a count or a probability.

    Exactly one of ``nth`` (fire on the n-th matching call, 1-based)
    and ``probability`` (fire each matching call with probability ``p``)
    must be set.  ``max_fires`` caps how often a probability rule fires
    (``nth`` rules fire at most once by construction); ``after`` skips
    the first ``after`` matching calls before a probability rule starts
    drawing.
    """

    #: Substrate operation name(s) this rule matches.
    ops: str | tuple[str, ...]
    #: The failure to inject; defaults to the op's natural kind.
    kind: FaultKind | None = None
    #: Fire on the n-th matching call (1-based).
    nth: int | None = None
    #: Fire each matching call with this probability.
    probability: float | None = None
    #: Maximum number of fires (None = unlimited, for probability rules).
    max_fires: int | None = None
    #: Matching calls to skip before a probability rule starts drawing.
    after: int = 0
    #: Whether the injected fault is recoverable by retrying (None =
    #: classify by the fired kind via :func:`default_transient`).
    transient: bool | None = None

    def __post_init__(self) -> None:
        if isinstance(self.ops, str):
            self.ops = (self.ops,)
        else:
            self.ops = tuple(self.ops)
        if not self.ops:
            raise ValueError("a fault rule needs at least one operation")
        if (self.nth is None) == (self.probability is None):
            raise ValueError(
                "set exactly one of nth and probability on a fault rule"
            )
        if self.nth is not None and self.nth < 1:
            raise ValueError("nth is 1-based and must be positive")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        if self.after < 0:
            raise ValueError("after must be non-negative")

    def kind_for(self, op: str) -> FaultKind:
        """The fault kind this rule injects for operation ``op``."""
        return self.kind if self.kind is not None else default_kind(op)

    def transient_for(self, op: str) -> bool:
        """Whether this rule's fault on ``op`` is retryable."""
        if self.transient is not None:
            return self.transient
        return default_transient(self.kind_for(op))


@dataclass(frozen=True)
class InjectedFault:
    """Journal record of one fired fault."""

    #: Index of the rule that fired (position in the schedule's rules).
    rule: int
    #: The substrate operation that failed.
    op: str
    #: The injected fault kind.
    kind: FaultKind
    #: 1-based call count of ``op`` at which the fault fired.
    call_index: int
    #: 1-based count across all checked calls of any operation.
    global_index: int
    #: Whether the fault is classified as recoverable by retrying.
    transient: bool = False

    def describe(self) -> str:
        """One human-readable line."""
        grade = "transient" if self.transient else "permanent"
        return (
            f"rule {self.rule}: {self.kind.value} ({grade}) on {self.op} "
            f"call #{self.call_index} (global #{self.global_index})"
        )


@dataclass
class _RuleState:
    """Mutable per-rule bookkeeping."""

    rule: FaultRule
    rng: np.random.Generator
    matched: int = 0
    fires: int = 0

    def exhausted(self) -> bool:
        if self.rule.nth is not None:
            return self.fires >= 1
        if self.rule.max_fires is not None:
            return self.fires >= self.rule.max_fires
        return False


class FaultSchedule:
    """A seeded, deterministic program of substrate failures."""

    def __init__(self, rules: list[FaultRule], seed: int = 0) -> None:
        self.rules = list(rules)
        self.seed = seed
        # One independent generator per rule, derived from the schedule
        # seed: adding or removing a rule never perturbs the streams of
        # the remaining rules.
        self._states = [
            _RuleState(rule=rule, rng=np.random.default_rng([seed, i]))
            for i, rule in enumerate(self.rules)
        ]
        #: Per-operation call counts seen so far.
        self.counters: dict[str, int] = {}
        #: Calls checked across all operations.
        self.total_calls = 0
        #: Every fault fired so far, in firing order.
        self.journal: list[InjectedFault] = []

    # -- convenience constructors ---------------------------------------

    @classmethod
    def nth_call(
        cls,
        op: str,
        n: int,
        kind: FaultKind | None = None,
        seed: int = 0,
    ) -> "FaultSchedule":
        """Fail the ``n``-th call of ``op`` (the precise-strike schedule)."""
        return cls([FaultRule(ops=op, nth=n, kind=kind)], seed=seed)

    @classmethod
    def probabilistic(
        cls,
        ops: tuple[str, ...],
        probability: float,
        seed: int = 0,
        max_fires: int | None = None,
    ) -> "FaultSchedule":
        """Fail each listed op independently with ``probability``."""
        return cls(
            [
                FaultRule(ops=op, probability=probability, max_fires=max_fires)
                for op in ops
            ],
            seed=seed,
        )

    # -- the decision ----------------------------------------------------

    def check(self, op: str) -> InjectedFault | None:
        """Advance the schedule by one call of ``op``.

        Returns the fault to inject, or None when the call succeeds.
        The first matching rule that fires wins; later probability rules
        still draw, so streams stay independent of firing order.
        """
        self.total_calls += 1
        call_index = self.counters.get(op, 0) + 1
        self.counters[op] = call_index

        fired: _RuleState | None = None
        for state in self._states:
            rule = state.rule
            if op not in rule.ops:
                continue
            state.matched += 1
            if rule.nth is not None:
                fires = state.matched == rule.nth
            else:
                if state.matched <= rule.after:
                    continue
                # Draw unconditionally to keep the stream call-aligned.
                draw = state.rng.random()
                fires = draw < rule.probability
            if fires and fired is None and not state.exhausted():
                fired = state

        if fired is None:
            return None
        fired.fires += 1
        fault = InjectedFault(
            rule=self._states.index(fired),
            op=op,
            kind=fired.rule.kind_for(op),
            call_index=call_index,
            global_index=self.total_calls,
            transient=fired.rule.transient_for(op),
        )
        self.journal.append(fault)
        return fault

    def describe(self) -> str:
        """Multi-line journal dump (diagnostics)."""
        if not self.journal:
            return "no faults fired"
        return "\n".join(fault.describe() for fault in self.journal)
