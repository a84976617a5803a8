"""One budget over one resource: admission, victim-ordered release, debt.

Two resources in the stack are capped the same way.  Every coalesced
run of a view's pages is one maps-file line (the kernel caps them with
``vm.max_map_count``), so the resilience plane keeps each column's maps
lines under ``ResilienceConfig.mapping_budget`` by evicting views.  The
tier keeps each column's resident pages under ``TierConfig.hot_budget``
by demoting them.  A :class:`Budget` is that mechanism once; its owner
supplies the parts that differ:

* a **usage** reader — the column file's lines in the substrate's page
  table (``maps_line_count``), or the store's hot-page count;
* a **floor** — the part of usage no victim holds (the full view's
  projected runs; no hot page is exempt, so 0), which makes a request
  that can never fit a denial with nothing released;
* a **victim order** — lowest ``(view_utility, last_used)`` first, or
  hot pages coldest-first;
* a **release** callback that evicts or demotes one victim and returns
  False when it fails (a demotion whose spill failed).

Victims are ordered once, and only when something must go: releasing
one victim changes no other victim's key, so a stable sort gives the
order a fresh ``min`` per release would.  What enforcement cannot
release is :attr:`Budget.debt`; it is re-derived at every enforcement.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .vm.cost import MAIN_LANE, CostModel


def _no_floor() -> int:
    return 0


class Budget:
    """A capacity on one resource, kept by releasing victims in order."""

    def __init__(
        self,
        resource: str,
        capacity: int | None,
        usage: Callable[[], int],
        victims: Callable[[], Iterable],
        release: Callable[[object, CostModel | None, str], bool],
        floor: Callable[[], int] = _no_floor,
    ) -> None:
        #: What the budget counts; names the usage in journal entries.
        self.resource = resource
        #: The capacity (None = unlimited: admit everything, release nothing).
        self.budget = capacity
        #: Reads the current usage (free: never charged to a ledger).
        self.usage = usage
        self._victims = victims
        self._release = release
        self._floor = floor
        #: Victims released to make room or to enforce the capacity.
        self.released = 0
        #: Requests refused (they could not fit even after releases).
        self.denials = 0
        #: Usage over the capacity that releasing could not remove
        #: (failed releases, or no victim left).  Every enforcement
        #: re-derives it, so one that finds usage within capacity
        #: clears it.
        self.debt = 0
        #: Journal of refusals (diagnostics / introspection).
        self.journal: list[dict[str, object]] = []

    def utilization(self) -> float | None:
        """Usage as a fraction of the capacity, or None when unlimited."""
        if self.budget is None:
            return None
        return self.usage() / self.budget

    def victims(self) -> Iterable:
        """The victims, first to go first."""
        return self._victims()

    def _release_until(
        self, usage: int, target: int, cost: CostModel | None, lane: str
    ) -> int:
        """Release victims in order until usage is at most ``target``.

        A victim whose release fails is skipped.  Returns the usage left.
        """
        if usage > target:
            for victim in self.victims():
                if self._release(victim, cost, lane):
                    self.released += 1
                    usage = self.usage()
                    if usage <= target:
                        break
        return usage

    def deny(self, amount: int) -> None:
        """Count and journal one refused request for ``amount`` units."""
        self.denials += 1
        self.journal.append(
            {"action": "deny", "requested": amount, self.resource: self.usage()}
        )

    def admit(
        self, amount: int, cost: CostModel | None = None, lane: str = MAIN_LANE
    ) -> bool:
        """May ``amount`` more units be taken?

        Releases victims in order until the request fits.  A request
        that cannot fit even with every victim gone (``floor + amount``
        over capacity) is denied before anything is released; a denial
        is journaled and the caller must not take the units.
        """
        if self.budget is None:
            return True
        target = self.budget - amount
        usage = self.usage()
        if usage > target and (
            self._floor() > target
            or self._release_until(usage, target, cost, lane) > target
        ):
            self.deny(amount)
            return False
        self.debt = 0
        return True

    def enforce(self, cost: CostModel | None = None, lane: str = MAIN_LANE) -> int:
        """Release victims until usage is within capacity; returns releases.

        Whatever excess remains afterwards is :attr:`debt`, retried at
        the next enforcement.
        """
        if self.budget is None:
            return 0
        before = self.released
        usage = self._release_until(self.usage(), self.budget, cost, lane)
        self.debt = max(0, usage - self.budget)
        return self.released - before

    def _sync_debt(self) -> None:
        """Recompute the debt from current usage (after an outside change)."""
        if self.budget is None:
            self.debt = 0
        else:
            self.debt = max(0, self.usage() - self.budget)
