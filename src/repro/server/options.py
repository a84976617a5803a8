"""Session options: the per-connection knobs of the serving layer.

A :class:`SessionOptions` travels with every session — locally (the
REPL and embedded callers construct one directly) and over the wire
(the ``open`` message carries a mapping the server validates through
:meth:`SessionOptions.from_mapping`).  Options are frozen: a session's
discipline is fixed at admission time, which is also when admission
control inspects it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from ..sql.executor import PLANNER_TIERS

#: Answer predicates through the adaptive view layer (default), or pin
#: every predicate to the full-view scan — the degraded tier.
PLANNER_ADAPTIVE, PLANNER_FULLSCAN = PLANNER_TIERS


@dataclass(frozen=True)
class SessionOptions:
    """Immutable per-session configuration.

    ``read_only``
        Reject every write (UPDATE / DELETE / flush) with an error
        response instead of executing it.
    ``autocommit``
        Flush discipline for structured writes: ``True`` realigns the
        written column's views after every write call; ``False`` lets
        writes batch in the pending-update log until an explicit
        ``commit``/``flush`` (reads see the writes at once but realign
        nothing).
    ``observe``
        Whether the session's requests emit spans/metrics when the
        underlying database carries an observer.  ``False`` silences
        per-request observation for this session only.
    ``planner``
        Requested planner tier (:data:`PLANNER_ADAPTIVE` or
        :data:`PLANNER_FULLSCAN`).  Admission control may downgrade an
        adaptive session to the full-scan tier; it never upgrades one.
    """

    read_only: bool = False
    autocommit: bool = True
    observe: bool = True
    planner: str = PLANNER_ADAPTIVE

    def __post_init__(self) -> None:
        if self.planner not in PLANNER_TIERS:
            raise ValueError(
                f"unknown planner {self.planner!r}; expected one of {PLANNER_TIERS}"
            )
        for flag in ("read_only", "autocommit", "observe"):
            if not isinstance(getattr(self, flag), bool):
                raise ValueError(f"option {flag!r} must be a bool")

    @classmethod
    def from_mapping(cls, mapping: dict | None) -> "SessionOptions":
        """Build options from a wire-level mapping, rejecting unknown keys."""
        if mapping is None:
            return cls()
        if not isinstance(mapping, dict):
            raise ValueError(f"options must be a mapping, got {mapping!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(
                f"unknown session option(s): {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**mapping)

    def to_mapping(self) -> dict:
        """The wire-level mapping form (inverse of :meth:`from_mapping`)."""
        return asdict(self)
