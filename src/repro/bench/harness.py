"""Shared experiment infrastructure.

Every experiment gets a *fresh* simulated process (own physical memory,
address space and cost ledger) so simulated timings never leak between
runs.  Column sizes are scaled down from the paper's 1M pages (3.9 GB)
by :data:`DEFAULT_DIVISOR`; set the ``REPRO_SCALE`` environment variable
to a value > 1 to run closer to paper scale (e.g. ``REPRO_SCALE=16``
multiplies all page counts by 16).

Per-page behaviour is scale-free, so the *shapes* of all figures are
preserved; simulated times scale linearly with the page count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ..baselines.full_scan import FullScanBaseline
from ..core.adaptive import AdaptiveStorageLayer
from ..core.stats import QueryStats, SequenceStats
from ..storage.column import PhysicalColumn
from ..storage.updates import UpdateBatch, UpdateRecord
from ..seeds import base_seed, derive_seed
from ..vm.cost import CostModel
from ..substrate.simulated import SimulatedSubstrate
from ..vm.physical import PhysicalMemory
from ..workloads.queries import QuerySequence

#: Column size of the paper's main experiments: 1M pages of 4 KiB.
PAPER_COLUMN_PAGES = 1_000_000

#: Default down-scaling: 1M pages / 256 ≈ 3.9k pages ≈ 15 MiB per column.
DEFAULT_DIVISOR = 256


def scale_factor() -> int:
    """User-requested scale multiplier (``REPRO_SCALE``, default 1).

    The single place where ``REPRO_SCALE`` is read and validated: it
    must be a positive integer (page counts are integral, and fractional
    multipliers would silently distort the scaled experiments).
    """
    raw = os.environ.get("REPRO_SCALE", "1")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SCALE must be a positive integer, got {raw!r}"
        ) from None
    if value <= 0:
        raise ValueError(f"REPRO_SCALE must be a positive integer, got {raw!r}")
    return value


def scaled_pages(paper_pages: int = PAPER_COLUMN_PAGES) -> int:
    """Scaled-down page count for a paper-scale column size."""
    return max(int(paper_pages / DEFAULT_DIVISOR * scale_factor()), 64)


def session_seed(shard: int | None = None) -> int:
    """User-requested session seed (``REPRO_SEED``, default 0).

    The companion knob to ``REPRO_SCALE``: read and validated in one
    place (:func:`repro.seeds.base_seed`), consumed by the workload
    generators and the fault-schedule fuzz suite, so any stochastic run
    is reproducible from its environment alone.

    With ``shard`` set, returns that shard's derived sub-seed
    (:func:`repro.seeds.derive_seed`): per-shard workload streams stay
    deterministic *and* decorrelated from one another and from the
    whole-session seed, which ``shard=None`` keeps.
    """
    if shard is None:
        return base_seed()
    if shard < 0:
        raise ValueError(f"shard index must be non-negative, got {shard}")
    return derive_seed(shard)


def scale_divisor(num_pages: int, paper_pages: int = PAPER_COLUMN_PAGES) -> float:
    """Factor by which the experiment runs smaller than the paper."""
    return paper_pages / num_pages


def fresh_column(
    values: np.ndarray, name: str = "col", record_bytes: int = 8
) -> PhysicalColumn:
    """Materialize ``values`` in a brand-new simulated process."""
    substrate = SimulatedSubstrate(memory=PhysicalMemory(cost=CostModel()))
    return PhysicalColumn.create(substrate, name, values, record_bytes=record_bytes)


def make_update_batch(
    column: PhysicalColumn,
    num_updates: int,
    value_lo: int,
    value_hi: int,
    seed: int = 0,
    apply_to_column: bool = True,
) -> UpdateBatch:
    """Generate and (optionally) apply uniform random updates.

    Rows are drawn uniformly; new values are drawn uniformly from
    ``[value_lo, value_hi]``, matching the paper's update workloads.
    """
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, column.num_rows, size=num_updates)
    new_values = rng.integers(value_lo, value_hi, endpoint=True, size=num_updates)
    batch = UpdateBatch()
    for row, new in zip(rows.tolist(), new_values.tolist()):
        if apply_to_column:
            old = column.write(row, new)
        else:
            old = column.read(row)
        batch.append(UpdateRecord(row=row, old=old, new=new))
    return batch


@dataclass
class SequenceRun:
    """Result of replaying one query sequence through one engine."""

    #: Label of the engine ("adaptive", "full_scan", ...).
    engine: str
    #: Per-query measurements, in firing order.
    stats: SequenceStats = field(default_factory=SequenceStats)
    #: Row-count checksum, used to cross-validate engines.
    total_rows: int = 0
    #: Metrics-registry snapshot taken after the run, when the layer was
    #: observed (see :mod:`repro.obs`); None otherwise.
    metrics: dict[str, object] | None = None

    @property
    def accumulated_seconds(self) -> float:
        """Accumulated simulated response time (Table 1's metric)."""
        return self.stats.accumulated_seconds


def run_adaptive_sequence(
    layer: AdaptiveStorageLayer, queries: QuerySequence
) -> SequenceRun:
    """Fire a query sequence at an adaptive storage layer.

    If the layer carries a live observer, the run's :attr:`metrics`
    holds a snapshot of its metrics registry afterwards, so benchmark
    reports can show substrate-level counters next to the timings.
    """
    run = SequenceRun(engine="adaptive")
    for query in queries:
        result = layer.answer_query(query.lo, query.hi)
        run.stats.append(result.stats)
        run.total_rows += len(result)
    observer = getattr(layer, "observer", None)
    if observer is not None and observer.enabled:
        run.metrics = observer.metrics.snapshot()
    return run


def run_full_scan_sequence(
    column: PhysicalColumn, queries: QuerySequence
) -> SequenceRun:
    """Fire a query sequence answered exclusively by full scans."""
    baseline = FullScanBaseline(column)
    run = SequenceRun(engine="full_scan")
    for query in queries:
        _, values, stats = baseline.query(query.lo, query.hi)
        run.stats.append(stats)
        run.total_rows += int(values.size)
    return run


def verify_runs_agree(*runs: SequenceRun) -> None:
    """Assert that engines returned the same result cardinalities."""
    totals = {run.total_rows for run in runs}
    if len(totals) != 1:
        raise AssertionError(
            "engines disagree on result rows: "
            + ", ".join(f"{r.engine}={r.total_rows}" for r in runs)
        )


def moving_average(series: list[float], window: int = 10) -> list[float]:
    """Smoothed copy of a per-query series (for readable reports)."""
    if window <= 1 or not series:
        return list(series)
    out = []
    acc = 0.0
    from collections import deque

    buf: deque[float] = deque(maxlen=window)
    for value in series:
        if len(buf) == buf.maxlen:
            acc -= buf[0]
        buf.append(value)
        acc += value
        out.append(acc / len(buf))
    return out


def phase_means(queries: list[QueryStats], phases: int = 5) -> list[float]:
    """Mean simulated ms per equal-sized phase of the query sequence.

    Condenses Figure 4/5's per-query curves into a handful of numbers
    that still show the adaptive warm-up behaviour.
    """
    if not queries:
        return []
    chunk = max(len(queries) // phases, 1)
    means = []
    for start in range(0, len(queries), chunk):
        part = queries[start : start + chunk]
        means.append(sum(q.sim_ms for q in part) / len(part))
    return means[:phases]
