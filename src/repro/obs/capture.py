"""Observed workload runner behind ``python -m repro trace/metrics``.

Builds a fresh simulated process around one column of a named data
distribution, attaches an :class:`~repro.obs.observer.Observer` to every
layer (memory mapper, view index, adaptive storage layer), fires a
selectivity-sweep query sequence and finally applies one update batch so
the capture contains query spans *and* a maintenance span tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bench.harness import (
    SequenceRun,
    make_update_batch,
    run_adaptive_sequence,
    scaled_pages,
)
from ..core.adaptive import AdaptiveStorageLayer
from ..core.config import AdaptiveConfig
from ..core.stats import MaintenanceStats
from ..storage.column import PhysicalColumn
from ..substrate import Substrate, make_substrate
from ..workloads.distributions import DEFAULT_DOMAIN, DISTRIBUTIONS, generate
from ..workloads.queries import selectivity_sweep
from .observer import Observer

#: Experiments ``trace``/``metrics`` accept: the paper's distributions.
EXPERIMENTS = tuple(sorted(DISTRIBUTIONS))


@dataclass
class ObservedRun:
    """Everything captured while running one observed workload."""

    #: Distribution the column was filled with.
    experiment: str
    #: The observed column (still alive; spans reference its views).
    column: PhysicalColumn
    #: The observer holding spans and metrics.
    observer: Observer
    #: Query-sequence measurements.
    run: SequenceRun
    #: Measurements of the final update-batch realignment (None when the
    #: workload ran without updates).
    maintenance: MaintenanceStats | None


def run_observed_workload(
    experiment: str = "sine",
    num_pages: int | None = None,
    num_queries: int = 32,
    updates: int | None = None,
    max_spans: int = 4096,
    seed: int = 0,
    backend: str | Substrate = "simulated",
) -> ObservedRun:
    """Run one fully observed workload and return the capture.

    ``updates=None`` derives a small update batch from the query count;
    ``updates=0`` skips the maintenance phase entirely.  ``backend``
    selects the substrate the session runs on; on a backend with a
    wall-clock ledger (native) every span additionally records measured
    wall time — the raw material of :mod:`repro.obs.calibration`.
    """
    if experiment not in DISTRIBUTIONS:
        raise ValueError(
            f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}"
        )
    num_pages = num_pages or scaled_pages()
    values = generate(experiment, num_pages, seed=seed)
    substrate = make_substrate(backend)
    column = PhysicalColumn.create(substrate, experiment, values)

    observer = Observer(
        column.cost.ledger, max_spans=max_spans, wall=substrate.wall
    )
    column.substrate.set_observer(observer)
    layer = AdaptiveStorageLayer(column, AdaptiveConfig(), observer=observer)

    queries = selectivity_sweep(num_queries=num_queries, seed=seed)
    run = run_adaptive_sequence(layer, queries)

    maintenance = None
    if updates is None:
        updates = max(num_queries, 16)
    if updates:
        batch = make_update_batch(column, updates, *DEFAULT_DOMAIN, seed=seed)
        maintenance = layer.apply_updates(batch)

    layer.shutdown()
    observer.sync_ledger()
    return ObservedRun(
        experiment=experiment,
        column=column,
        observer=observer,
        run=run,
        maintenance=maintenance,
    )
