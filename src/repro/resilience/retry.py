"""Deterministic retry with backoff charged in simulated time.

:class:`RetryPolicy` turns a *transient* :class:`SubstrateFault` into a
bounded sequence of re-attempts instead of an immediate view drop.  Two
properties keep retried runs replayable:

1. **Backoff waits are simulated.**  Each retry charges an exponential
   backoff (plus seeded jitter from :mod:`repro.seeds`) to the cost
   ledger via :meth:`~repro.vm.cost.CostModel.backoff_wait`, so a
   faulted-and-healed run has a deterministic ledger, not a wall-clock
   dependent one.
2. **Re-attempts run under fault suppression.**  The retried call is
   issued inside :func:`~repro.faults.plane.suppress_faults`, so it
   neither fires new scheduled faults nor advances the schedule's call
   counters — the fault stream the rest of the workload sees is exactly
   the stream of first attempts, and arming retries never shifts which
   later calls fault.

Permanent faults (ENOMEM, capacity, torn snapshots) are re-raised
untouched: retrying exhausted resources just fails again.
"""

from __future__ import annotations

from typing import Callable, TypeVar

import numpy as np

from ..faults.errors import SubstrateFault
from ..faults.plane import suppress_faults
from ..obs.observer import NULL_OBSERVER, NullObserver
from ..seeds import resolve_seed
from ..substrate.interface import Substrate
from ..vm.cost import MAIN_LANE, CostModel
from .policy import ResilienceConfig

T = TypeVar("T")

#: Stream index of the jitter generator (derived with the session seed,
#: like the fault schedules derive per-rule streams).
_JITTER_STREAM = 0x52455452  # "RETR"


class RetryPolicy:
    """Classify faults and retry the transient ones deterministically."""

    def __init__(
        self,
        substrate: Substrate,
        cost: CostModel,
        config: ResilienceConfig | None = None,
        observer: NullObserver | None = None,
    ) -> None:
        self.substrate = substrate
        self.cost = cost
        self.config = config or ResilienceConfig()
        self.observer = observer or NULL_OBSERVER
        self._rng = np.random.default_rng(
            [resolve_seed(self.config.seed), _JITTER_STREAM]
        )
        #: Retry attempts issued (each backoff wait counts one).
        self.retries = 0
        #: Faults healed by a successful re-attempt.
        self.recovered = 0
        #: Transient faults that survived every allowed attempt.
        self.exhausted = 0

    def backoff_ns(self, attempt: int) -> float:
        """The simulated wait before retry ``attempt`` (1-based).

        Exponential in the attempt number, scaled by seeded jitter so
        concurrent retriers decorrelate while staying replayable.
        """
        base = self.config.backoff_base_ns * (
            self.config.backoff_multiplier ** (attempt - 1)
        )
        return base * (1.0 + self.config.jitter * float(self._rng.random()))

    def run(self, op: str, fn: Callable[[], T], lane: str = MAIN_LANE) -> T:
        """Invoke ``fn``; retry transient substrate faults with backoff.

        The first attempt runs unsuppressed (scheduled faults fire and
        advance normally); only the re-attempts are suppressed.  Raises
        the original fault for permanent failures and the last fault
        when every attempt is exhausted.
        """
        try:
            return fn()
        except SubstrateFault as fault:
            return self.resume(op, fault, fn, lane)

    def resume(
        self,
        op: str,
        fault: SubstrateFault,
        fn: Callable[[], T],
        lane: str = MAIN_LANE,
    ) -> T:
        """Continue retrying after a first attempt that already failed.

        This is the :class:`~repro.core.creation.BackgroundMapper` entry
        point: the mapper thread took the first attempt and parked the
        fault; ``flush`` hands it here to heal before surfacing.
        """
        if not getattr(fault, "transient", False):
            raise fault
        last = fault
        for attempt in range(1, self.config.max_attempts + 1):
            self.cost.backoff_wait(self.backoff_ns(attempt), lane)
            self.retries += 1
            self.observer.on_retry(op, last.kind)
            try:
                with suppress_faults(self.substrate):
                    result = fn()
            except SubstrateFault as exc:
                # Real (non-injected) faults can still fail suppressed
                # attempts on the native backend; keep trying.
                last = exc
                continue
            self.recovered += 1
            return result
        self.exhausted += 1
        raise last
