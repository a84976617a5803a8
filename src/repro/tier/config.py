"""Configuration of the tiered page store."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TierConfig:
    """Placement policy knobs of one tiered database.

    Passing a ``TierConfig`` to :class:`~repro.core.facade.AdaptiveDatabase`
    arms tiering for every column the database creates; the default
    (``tiering=None``) leaves storage untiered and bit-identical in
    simulated cost to pre-tiering behaviour.
    """

    #: Maximum number of hot (resident) pages per column.  ``None``
    #: disables the budget: every page stays hot and the governor never
    #: demotes.
    hot_budget: int | None = None

    #: Decayed hit count at which a cold page becomes a promotion
    #: candidate (it enters free room, or swaps with a hot page that
    #: has strictly fewer hits).
    promote_after: float = 2.0

    #: Multiplicative decay applied to every page's hit counter at each
    #: maintenance cycle (0 forgets instantly, 1 never forgets).
    decay: float = 0.5

    #: Promotions + demotions per maintenance window at which the tier
    #: is considered thrashing (health degrades) — provided the window
    #: also moved at least as many pages as it served hot.  ``None``
    #: disables the check.
    thrash_threshold: int | None = 16

    #: Staged rows at which the write buffer auto-merges into the
    #: columns (a merge also happens at every explicit flush).
    write_buffer_rows: int = 1024

    #: Retries against transient spill-I/O faults before a cold read
    #: falls back to the resident copy / a demotion is abandoned.
    spill_retries: int = 3

    def __post_init__(self) -> None:
        if self.hot_budget is not None and self.hot_budget < 1:
            raise ValueError(
                f"hot_budget must be positive or None, got {self.hot_budget}"
            )
        if self.promote_after < 1:
            raise ValueError(
                f"promote_after must be at least 1, got {self.promote_after}"
            )
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError(f"decay must lie in [0, 1], got {self.decay}")
        if self.thrash_threshold is not None and self.thrash_threshold < 1:
            raise ValueError(
                "thrash_threshold must be positive or None, got "
                f"{self.thrash_threshold}"
            )
        if self.write_buffer_rows < 1:
            raise ValueError(
                f"write_buffer_rows must be positive, got {self.write_buffer_rows}"
            )
        if self.spill_retries < 0:
            raise ValueError(
                f"spill_retries must be non-negative, got {self.spill_retries}"
            )
