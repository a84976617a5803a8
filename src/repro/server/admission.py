"""Admission control: who gets a session, and at which planner tier.

The controller reuses the resilience layer's health state machine
(:class:`~repro.resilience.policy.HealthState`, derived from the
mapping-budget governor and fault history) to gate the serving layer:

- **HEALTHY** — sessions and view-creating (adaptive) queries admitted.
- **DEGRADED** — new sessions admitted but downgraded to the full-scan
  planner tier; the adaptive side-work that would create more mappings
  is refused until pressure recedes.
- **READONLY** — new sessions are shed (existing ones keep running,
  themselves downgraded per query).

Every decision is journaled (bounded ring) so an operator can replay
why a connection was refused; denials also surface as events/metrics
through the observer.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from ..obs.observer import NULL_OBSERVER
from ..resilience.policy import HealthState


class AdmissionDecision(enum.Enum):
    """Outcome of one admission check."""

    ADMIT = "admit"
    DEGRADE = "degrade"
    SHED = "shed"


class SessionShed(RuntimeError):
    """Raised when admission control refuses a session outright."""

    def __init__(self, reason: str, health: HealthState) -> None:
        super().__init__(
            f"session shed ({reason}; health={health.value})"
        )
        self.reason = reason
        self.health = health


@dataclass(frozen=True)
class AdmissionPolicy:
    """Static admission configuration of one served database."""

    #: Hard cap on concurrently open sessions (None = unbounded).
    max_sessions: int | None = None
    #: Downgrade adaptive queries to full scans while DEGRADED.
    degrade_when_degraded: bool = True
    #: Refuse new sessions while READONLY.
    shed_when_readonly: bool = True
    #: Ring size of the decision journal.
    journal_capacity: int = 256

    def __post_init__(self) -> None:
        if self.max_sessions is not None and self.max_sessions < 1:
            raise ValueError("max_sessions must be positive when set")
        if self.journal_capacity < 1:
            raise ValueError("journal_capacity must be positive")


@dataclass(frozen=True)
class AdmissionRecord:
    """One journaled admission decision."""

    sequence: int
    #: What was being admitted: ``session`` or ``query``.
    kind: str
    decision: AdmissionDecision
    reason: str
    health: HealthState
    session_id: int


@dataclass
class AdmissionStatus:
    """Counters snapshot for ``status`` responses."""

    active: int
    admitted_total: int
    downgraded_total: int
    shed_total: int
    max_sessions: int | None
    health: str

    def to_dict(self) -> dict:
        return {
            "active": self.active,
            "admitted_total": self.admitted_total,
            "downgraded_total": self.downgraded_total,
            "shed_total": self.shed_total,
            "max_sessions": self.max_sessions,
            "health": self.health,
        }


class AdmissionController:
    """Per-database gatekeeper over sessions and query tiers.

    All methods run under the owning database's request lock (the
    manager serializes statement execution per database), so plain
    counters and sets suffice.
    """

    def __init__(self, db, policy: AdmissionPolicy | None = None, observer=None) -> None:
        self.db = db
        self.policy = policy or AdmissionPolicy()
        self.observer = observer or NULL_OBSERVER
        self._active: set[int] = set()
        self._journal: deque[AdmissionRecord] = deque(
            maxlen=self.policy.journal_capacity
        )
        self._sequence = 0
        self.admitted_total = 0
        self.downgraded_total = 0
        self.shed_total = 0

    # -- decisions ------------------------------------------------------

    def _health(self) -> HealthState:
        return self.db.health()

    def _journal_decision(
        self,
        kind: str,
        decision: AdmissionDecision,
        reason: str,
        health: HealthState,
        session_id: int,
    ) -> AdmissionRecord:
        self._sequence += 1
        record = AdmissionRecord(
            sequence=self._sequence,
            kind=kind,
            decision=decision,
            reason=reason,
            health=health,
            session_id=session_id,
        )
        self._journal.append(record)
        return record

    def decide_session(self) -> tuple[AdmissionDecision, str, HealthState]:
        """Classify an incoming session without committing it."""
        health = self._health()
        capacity = self.policy.max_sessions
        if capacity is not None and len(self._active) >= capacity:
            return AdmissionDecision.SHED, "capacity", health
        if health is HealthState.READONLY and self.policy.shed_when_readonly:
            return AdmissionDecision.SHED, "readonly", health
        if health is HealthState.DEGRADED and self.policy.degrade_when_degraded:
            return AdmissionDecision.DEGRADE, "degraded", health
        return AdmissionDecision.ADMIT, "healthy", health

    def admit_session(self, session_id: int) -> tuple[AdmissionDecision, str]:
        """Admit (possibly downgraded) or shed one session.

        Journals the decision either way; raises :class:`SessionShed`
        on refusal.
        """
        decision, reason, health = self.decide_session()
        self._journal_decision("session", decision, reason, health, session_id)
        if decision is AdmissionDecision.SHED:
            self.shed_total += 1
            self.observer.on_session_shed(reason)
            raise SessionShed(reason, health)
        self._active.add(session_id)
        self.admitted_total += 1
        if decision is AdmissionDecision.DEGRADE:
            self.downgraded_total += 1
        self.observer.on_session_open(
            session_id, decision.value, len(self._active)
        )
        return decision, reason

    def release_session(self, session_id: int) -> None:
        """Forget a closed session."""
        if session_id in self._active:
            self._active.discard(session_id)
            self.observer.on_session_close(session_id, len(self._active))

    def decide_query(
        self, session_degraded: bool, session_id: int
    ) -> AdmissionDecision:
        """Tier one query: ADMIT (adaptive) or DEGRADE (full scan only).

        A session admitted under DEGRADED stays latched to the full-scan
        tier; otherwise the current health decides, so an admitted
        session degrades the moment the governor tightens mid-flight.
        """
        if session_degraded:
            return AdmissionDecision.DEGRADE
        health = self._health()
        if health is not HealthState.HEALTHY and self.policy.degrade_when_degraded:
            self._journal_decision(
                "query", AdmissionDecision.DEGRADE, health.value, health, session_id
            )
            self.downgraded_total += 1
            return AdmissionDecision.DEGRADE
        return AdmissionDecision.ADMIT

    # -- introspection --------------------------------------------------

    def journal(self) -> list[AdmissionRecord]:
        """The retained decision history, oldest first."""
        return list(self._journal)

    def status(self) -> AdmissionStatus:
        return AdmissionStatus(
            active=len(self._active),
            admitted_total=self.admitted_total,
            downgraded_total=self.downgraded_total,
            shed_total=self.shed_total,
            max_sessions=self.policy.max_sessions,
            health=self._health().value,
        )
