"""Resilience policy: configuration knobs and the health vocabulary.

This module is deliberately dependency-free (stdlib only) so every other
layer — core, faults, obs, CLI — can import the config and the health
states without risking an import cycle.  The mechanisms that *act* on
the policy live next door (:mod:`repro.resilience.retry`,
:mod:`repro.resilience.controller`, :mod:`repro.resilience.quarantine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable


class HealthState(Enum):
    """The facade-visible health of one adaptive layer.

    The state machine only ever degrades the *adaptive* machinery —
    queries stay correct in every state because the full view always
    exists and always covers every page (the full-scan fallback):

    * ``HEALTHY`` — retries, rebuilds and the mapping budget are all
      quiet; candidates are generated normally.
    * ``DEGRADED`` — recoverable trouble: views sit in quarantine
      awaiting rebuild, recent permanent faults occurred, or mapping
      budget utilization crossed the watermark.  Candidates are still
      generated (under admission control).
    * ``READONLY`` — the layer stopped adapting: repeated permanent
      faults or an unreachable mapping budget.  No new candidates and
      no automatic rebuilds; explicit :meth:`repair` is still allowed
      and clears the latch when it converges.
    """

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    READONLY = "readonly"

    @property
    def severity(self) -> int:
        """Ordering key: 0 healthy, 1 degraded, 2 readonly."""
        return _SEVERITY[self]


_SEVERITY = {
    HealthState.HEALTHY: 0,
    HealthState.DEGRADED: 1,
    HealthState.READONLY: 2,
}

#: Numeric encoding of each state for the health gauge.
HEALTH_GAUGE_VALUES = {state.value: state.severity for state in HealthState}


def worst_health(states: Iterable[HealthState]) -> HealthState:
    """The most degraded state of a collection (HEALTHY when empty)."""
    worst = HealthState.HEALTHY
    for state in states:
        if state.severity > worst.severity:
            worst = state
    return worst


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the self-healing layer (immutable, like AdaptiveConfig).

    Passing no config at all disarms every mechanism: no retries, no
    quarantine, no governor — the stack behaves exactly like it did
    before the resilience layer existed, bit-identical in simulated
    cost.
    """

    #: Retry attempts after the initial failure of a transient fault.
    max_attempts: int = 3

    #: First backoff wait in simulated nanoseconds.
    backoff_base_ns: float = 20_000.0

    #: Exponential growth factor between consecutive backoff waits.
    backoff_multiplier: float = 2.0

    #: Jitter fraction: each wait is scaled by ``1 + jitter * u`` with
    #: ``u`` drawn from a generator seeded via ``repro.seeds`` — random
    #: enough to decorrelate, deterministic enough to replay.
    jitter: float = 0.25

    #: Maps-line budget for the column's file (None = unlimited).  The
    #: layer's :class:`~repro.budget.Budget` keeps ``maps_line_count(column_path)`` at or under this
    #: by admission control and utility-based eviction.
    mapping_budget: int | None = None

    #: Budget utilization at which health degrades (fraction of budget).
    degraded_watermark: float = 0.85

    #: Consecutive permanent candidate faults before the layer latches
    #: READONLY and stops adapting.
    readonly_fault_threshold: int = 8

    #: Rebuild attempts per quarantined range before it is abandoned.
    rebuild_max_attempts: int = 3

    #: Seed for the retry jitter stream (None = ``REPRO_SEED``).
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_ns < 0:
            raise ValueError("backoff_base_ns must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must lie in [0, 1]")
        if self.mapping_budget is not None and self.mapping_budget < 1:
            raise ValueError("mapping_budget must be positive")
        if not 0.0 < self.degraded_watermark <= 1.0:
            raise ValueError("degraded_watermark must lie in (0, 1]")
        if self.readonly_fault_threshold < 1:
            raise ValueError("readonly_fault_threshold must be at least 1")
        if self.rebuild_max_attempts < 1:
            raise ValueError("rebuild_max_attempts must be at least 1")
