"""Per-layer resilience controller: retry, quarantine, budget, health.

One :class:`ResilienceController` is attached to each
:class:`~repro.core.adaptive.AdaptiveStorageLayer` when resilience is
armed.  It owns the three mechanisms — retry, quarantine-and-rebuild,
and a :class:`~repro.budget.Budget` on the column file's maps lines
(its ``governor``) — and runs the health state machine
(``HEALTHY → DEGRADED → READONLY``) the facade exposes.  All of its
bookkeeping is free of cost-ledger charges except for the work it
actually performs (backoff waits, rebuild scans, eviction unmaps), so a
controller that never engages leaves simulated time untouched.
"""

from __future__ import annotations

from ..budget import Budget
from ..core.stats import ViewEvent, view_utility
from ..core.view_index import ViewIndex
from ..core.view import VirtualView
from ..obs.observer import NULL_OBSERVER, NullObserver
from ..storage.column import PhysicalColumn
from ..vm.cost import MAIN_LANE
from .policy import HealthState, ResilienceConfig
from .quarantine import REBUILT, ViewRebuilder, mapping_runs
from .retry import RetryPolicy


def _maps_line_budget(
    config: ResilienceConfig,
    column: PhysicalColumn,
    view_index: ViewIndex,
    observer: NullObserver,
) -> Budget:
    """The column file's maps lines under ``config.mapping_budget``.

    Usage is the substrate's ``maps_line_count`` of the file: its lines
    in the page table both backends keep, read without parsing the maps
    source and never charged.  Victims are the partial views, lowest
    :func:`~repro.core.stats.view_utility` first, ties least recently
    used; the full view is never one, so its projected runs are the
    floor and every query keeps its full-scan fallback.
    """
    substrate = column.substrate
    path = substrate.file_map_path(column.file)

    def victims() -> list[VirtualView]:
        return sorted(
            view_index.partial_views,
            key=lambda v: (
                view_utility(view_index.use_count(v), v.num_pages),
                view_index.last_used(v),
            ),
        )

    def evict(view: VirtualView, cost, lane: str) -> bool:
        view_index.record_decision(view, ViewEvent.EVICTED_BUDGET)
        view_index.drop(view, lane)
        observer.on_governor_eviction()
        return True

    return Budget(
        "maps_lines",
        config.mapping_budget,
        usage=lambda: substrate.maps_line_count(path),
        victims=victims,
        release=evict,
        floor=lambda: mapping_runs(view_index.full_view.mapped_fpages()),
    )


class ResilienceController:
    """Wires retry, governor and rebuilder to one adaptive layer."""

    def __init__(
        self,
        column: PhysicalColumn,
        view_index: ViewIndex,
        config: ResilienceConfig | None = None,
        observer: NullObserver | None = None,
    ) -> None:
        self.config = config or ResilienceConfig()
        self.column = column
        self.view_index = view_index
        self.observer = observer or NULL_OBSERVER
        self.retry = RetryPolicy(
            column.substrate, column.cost, self.config, observer=self.observer
        )
        self.governor = _maps_line_budget(
            self.config, column, view_index, self.observer
        )
        self.rebuilder = ViewRebuilder(
            self.config,
            column,
            view_index,
            retry=self.retry,
            governor=self.governor,
            observer=self.observer,
        )
        self._consecutive_permanent = 0
        self._readonly = False
        self._last_health: HealthState | None = None

    # -- the health state machine -----------------------------------------

    def health(self) -> HealthState:
        """The layer's current health (re-derived on every call).

        READONLY latches on repeated permanent faults, and holds while
        the maps-line budget is in debt; DEGRADED reflects recoverable
        trouble (quarantine backlog, a recent permanent fault, budget
        watermark).  Queries are correct in every state — the full view
        always exists.
        """
        if self._readonly or self.governor.debt > 0:
            state = HealthState.READONLY
        else:
            utilization = self.governor.utilization()
            tier = self.column.tier
            degraded = (
                bool(self.view_index.quarantine)
                or self._consecutive_permanent > 0
                or (
                    utilization is not None
                    and utilization >= self.config.degraded_watermark
                )
                # Tiered storage feeds the state machine: a thrashing
                # (or over-budget) tier degrades the layer.
                or (tier is not None and tier.tier_state() != "healthy")
            )
            state = HealthState.DEGRADED if degraded else HealthState.HEALTHY
        if state is not self._last_health:
            self._last_health = state
            self.observer.on_health(state.value)
        return state

    def allow_candidate(self) -> bool:
        """Whether the layer may build new candidate views right now."""
        return self.health() is not HealthState.READONLY

    def note_success(self) -> None:
        """A candidate materialized cleanly; clear the fault streak."""
        self._consecutive_permanent = 0

    # -- fault intake ------------------------------------------------------

    def on_candidate_fault(self, fault, lo: int, hi: int) -> None:
        """A candidate was lost to a fault that retries could not heal.

        Quarantines the extended range for rebuild; enough consecutive
        losses latch the layer READONLY (adaptation keeps failing, stop
        burning work on it until an explicit repair).
        """
        self._consecutive_permanent += 1
        if self._consecutive_permanent >= self.config.readonly_fault_threshold:
            self._readonly = True
        self.view_index.quarantine_range(lo, hi, reason=str(fault.kind))

    def on_views_dropped(self, views: list[VirtualView]) -> None:
        """Maintenance dropped these views; queue them for rebuild."""
        for view in views:
            self.view_index.quarantine_range(
                view.lo, view.hi, reason="maintenance"
            )

    # -- periodic and on-demand recovery -----------------------------------

    def admit_candidate(
        self, qualifying_fpages, lo: int, hi: int, lane: str = MAIN_LANE
    ) -> bool:
        """Budget admission for the candidate built alongside a query."""
        runs = mapping_runs(qualifying_fpages)
        if runs == 0 or self.governor.admit(runs, lane=lane):
            return True
        self.view_index.record_range_event(ViewEvent.DENIED_BUDGET, lo, hi)
        return False

    def maintenance_cycle(
        self, lane: str = MAIN_LANE, check_semantics: bool = True
    ) -> dict:
        """Post-alignment housekeeping: enforce the budget, drain
        quarantine (unless READONLY — then only an explicit repair
        restarts rebuilds)."""
        evicted = self.governor.enforce(lane=lane)
        rebuilt = 0
        if not self._readonly:
            rebuilt = self._drain_quarantine(lane, check_semantics)
        self.health()
        return {"evicted": evicted, "rebuilt": rebuilt}

    def _drain_quarantine(self, lane: str, check_semantics: bool) -> int:
        rebuilt = 0
        for entry in list(self.view_index.quarantine):
            if self.rebuilder.rebuild_entry(
                entry, lane=lane, check_semantics=check_semantics
            ) == REBUILT:
                rebuilt += 1
        return rebuilt

    def repair(self, lane: str = MAIN_LANE) -> bool:
        """On-demand recovery, allowed even when READONLY.

        Enforces the budget (which re-derives its debt), rebuilds every
        quarantined range, and — when the quarantine list converges to
        empty — clears the fault latch and the fault streak.  Returns
        True when the quarantine is empty afterwards.
        """
        self.governor.enforce(lane=lane)
        self._drain_quarantine(lane, check_semantics=True)
        converged = not self.view_index.quarantine
        if converged:
            self._readonly = False
            self._consecutive_permanent = 0
        self.health()
        return converged

    # -- introspection -----------------------------------------------------

    def status(self) -> dict:
        """Counters and state for the CLI / facade status surface."""
        if self.column.tier is not None:
            return {**self._base_status(), "tier": self.column.tier.tier_status()}
        return self._base_status()

    def _base_status(self) -> dict:
        return {
            "health": self.health().value,
            "retries": self.retry.retries,
            "retries_recovered": self.retry.recovered,
            "retries_exhausted": self.retry.exhausted,
            "views_rebuilt": self.rebuilder.rebuilt,
            "rebuilds_abandoned": self.rebuilder.abandoned,
            "quarantined": len(self.view_index.quarantine),
            "governor_evictions": self.governor.released,
            "governor_denials": self.governor.denials,
            "mapping_budget": self.governor.budget,
            "maps_lines": self.governor.usage(),
        }
