"""Hierarchical trace spans over the simulated cost ledger.

A :class:`Span` covers one phase of work (``query``, ``route``,
``scan-view``, ``maps-parse``, ...).  Its duration is *simulated* time:
on entry and exit the :class:`Tracer` snapshots the shared
:class:`~repro.vm.cost.CostLedger`, so a span's duration is exactly the
nanoseconds charged to its lane while it was open — the same quantity
:class:`~repro.vm.cost.Region` reports.  Opening a span never charges
the ledger, so tracing cannot perturb the measurements it observes.

Spans nest through a stack: a span opened while another is open becomes
its child.  Finished spans are kept in two bounded ring buffers (flat
finish-order for JSONL export, root spans for tree rendering); once a
buffer is full the oldest entries are dropped and counted.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from ..vm.cost import MAIN_LANE, CostLedger

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..substrate.interface import WallClockLedger

#: Default ring-buffer capacity (finished spans / finished roots).
DEFAULT_CAPACITY = 4096


@dataclass
class Span:
    """One phase of work, timed in simulated nanoseconds."""

    #: Phase name (``query``, ``route``, ``scan-view``, ...).
    name: str
    #: Unique id within the tracer (1-based, allocation order).
    span_id: int
    #: Id of the enclosing span (None for roots).
    parent_id: int | None
    #: Nesting depth (0 for roots).
    depth: int
    #: Free-form attributes attached at open or via :meth:`set`.
    attrs: dict[str, object] = field(default_factory=dict)
    #: Lane whose charged time defines :attr:`duration_ns`.
    lane: str = MAIN_LANE
    #: Ledger reading of :attr:`lane` when the span opened.
    start_ns: float = 0.0
    #: Simulated nanoseconds charged to :attr:`lane` while open.
    duration_ns: float = 0.0
    #: Charged time per lane while open (non-zero lanes only).
    lane_deltas: dict[str, float] = field(default_factory=dict)
    #: Ledger operation-counter deltas while open (non-zero only).
    counter_deltas: dict[str, int] = field(default_factory=dict)
    #: Child spans, in finish order.
    children: list["Span"] = field(default_factory=list)
    #: Whether the span has been closed.
    finished: bool = False
    #: Measured wall-clock nanoseconds while open (0.0 unless the tracer
    #: was built with wall-clock timing, i.e. on the native backend).
    wall_ns: float = 0.0
    #: Measured wall-clock nanoseconds the substrate's
    #: :class:`~repro.substrate.interface.WallClockLedger` accumulated
    #: while open — the syscall share of :attr:`wall_ns`.
    wall_substrate_ns: float = 0.0

    def set(self, **attrs: object) -> "Span":
        """Attach attributes to the span; returns the span for chaining."""
        self.attrs.update(attrs)
        return self

    @property
    def duration_ms(self) -> float:
        """Span duration in simulated milliseconds."""
        return self.duration_ns / 1e6

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, object]:
        """Flat JSON-friendly record (children referenced by parent_id).

        Wall-clock fields appear only when the span was timed against
        real time (native-backend tracing), so simulated captures stay
        byte-deterministic.
        """
        record: dict[str, object] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "depth": self.depth,
            "duration_ns": self.duration_ns,
            "lanes": dict(self.lane_deltas),
            "counters": dict(self.counter_deltas),
            "attrs": dict(self.attrs),
        }
        if self.wall_ns:
            record["wall_ns"] = self.wall_ns
            record["wall_substrate_ns"] = self.wall_substrate_ns
        return record


class Tracer:
    """Produces nested spans timed against one cost ledger.

    Spans opened on the same tracer nest via a stack, so the tracer is
    meant to be driven from the simulated query-processing thread (the
    adaptive layer serializes queries with a lock already).
    """

    def __init__(
        self,
        ledger: CostLedger,
        capacity: int = DEFAULT_CAPACITY,
        lane: str = MAIN_LANE,
        wall: "WallClockLedger | None" = None,
    ) -> None:
        """``wall`` opts spans into real-time measurement: each span then
        additionally records elapsed ``perf_counter`` nanoseconds and the
        wall nanoseconds the substrate ledger accumulated while it was
        open.  Off by default — wall readings are nondeterministic, so
        simulated captures never carry them."""
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.ledger = ledger
        self.lane = lane
        self.capacity = capacity
        self.wall = wall
        self._stack: list[Span] = []
        self._finished: deque[Span] = deque(maxlen=capacity)
        self._roots: deque[Span] = deque(maxlen=capacity)
        #: Spans ever finished (survives ring-buffer truncation).
        self.total_spans = 0
        #: Finished spans dropped from the flat ring buffer.
        self.dropped_spans = 0
        #: Finished root spans dropped from the root ring buffer.
        self.dropped_roots = 0
        self._next_id = 1

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Open a span covering the ``with`` body."""
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            depth=parent.depth + 1 if parent is not None else 0,
            attrs=dict(attrs),
            lane=self.lane,
        )
        self._next_id += 1
        lanes_start, counters_start = self.ledger.snapshot()
        span.start_ns = lanes_start.get(self.lane, 0.0)
        wall = self.wall
        if wall is not None:
            wall_substrate_start = wall.total_ns()
            wall_start = time.perf_counter_ns()
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            if wall is not None:
                span.wall_ns = float(time.perf_counter_ns() - wall_start)
                span.wall_substrate_ns = wall.total_ns() - wall_substrate_start
            lanes_end, counters_end = self.ledger.snapshot()
            span.lane_deltas = {
                lane: delta
                for lane in set(lanes_start) | set(lanes_end)
                if (delta := lanes_end.get(lane, 0.0) - lanes_start.get(lane, 0.0))
            }
            span.counter_deltas = {
                cnt: delta
                for cnt in set(counters_start) | set(counters_end)
                if (delta := counters_end.get(cnt, 0) - counters_start.get(cnt, 0))
            }
            span.duration_ns = lanes_end.get(self.lane, 0.0) - span.start_ns
            span.finished = True
            self.total_spans += 1
            if parent is not None:
                parent.children.append(span)
            else:
                if len(self._roots) == self._roots.maxlen:
                    self.dropped_roots += 1
                self._roots.append(span)
            if len(self._finished) == self._finished.maxlen:
                self.dropped_spans += 1
            self._finished.append(span)

    def finished_spans(self) -> list[Span]:
        """Finished spans still in the ring buffer, in finish order."""
        return list(self._finished)

    def roots(self) -> list[Span]:
        """Finished root spans still in the ring buffer."""
        return list(self._roots)

    def clear(self) -> None:
        """Drop all buffered spans (open spans are unaffected)."""
        self._finished.clear()
        self._roots.clear()
