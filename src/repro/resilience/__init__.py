"""Self-healing resilience: retry, quarantine-and-rebuild, a maps-line budget.

The adaptive view catalog is a side product of query processing, so any
fault or resource ceiling silently erodes the index the system depends
on.  This package repairs it: transient substrate faults are retried
with deterministic simulated backoff (:class:`RetryPolicy`), views lost
to permanent faults are quarantined and rebuilt from physical pages
(:class:`ViewRebuilder`), and a :class:`~repro.budget.Budget` keeps the
maps-line footprint under a configurable budget with cost-aware
eviction.  A health state machine (``HEALTHY → DEGRADED → READONLY``)
summarizes it all on the facade.  See ``docs/robustness.md``.
"""

from .controller import ResilienceController
from .policy import (
    HEALTH_GAUGE_VALUES,
    HealthState,
    ResilienceConfig,
    worst_health,
)
from .quarantine import ABANDONED, DEFERRED, REBUILT, ViewRebuilder, mapping_runs
from .retry import RetryPolicy

__all__ = [
    "ABANDONED",
    "DEFERRED",
    "HEALTH_GAUGE_VALUES",
    "HealthState",
    "REBUILT",
    "ResilienceConfig",
    "ResilienceController",
    "RetryPolicy",
    "ViewRebuilder",
    "mapping_runs",
    "worst_health",
]
