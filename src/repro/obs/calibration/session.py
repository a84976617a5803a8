"""Calibration sessions behind ``python -m repro calibrate``.

Runs one seeded observed workload (queries plus an update batch, the
same shape ``python -m repro trace`` captures) on the chosen backend,
pairs every wall-timed span with its simulated charge, and returns the
:class:`~repro.obs.calibration.report.CalibrationReport` the CLI renders
and writes to ``BENCH_calibration.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...seeds import resolve_seed
from ..capture import ObservedRun, run_observed_workload
from .model import DEFAULT_THRESHOLD, CalibrationModel
from .report import CalibrationReport, build_report

#: Default column size: large enough for stable syscall timings, small
#: enough for CI smoke runs (the CI job runs exactly this size).
DEFAULT_CALIBRATION_PAGES = 4096


@dataclass
class CalibrationRun:
    """Everything one calibration session produced."""

    #: The assembled calibration report.
    report: CalibrationReport
    #: The underlying observed workload (spans and metrics).
    observed: ObservedRun
    #: The populated pairing model.
    model: CalibrationModel
    #: Wall-timed spans that were paired.
    paired_spans: int


def run_calibration_session(
    num_pages: int = DEFAULT_CALIBRATION_PAGES,
    num_queries: int = 32,
    backend: str = "native",
    experiment: str = "sine",
    seed: int | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    max_spans: int = 65_536,
) -> CalibrationRun:
    """One seeded calibration session on ``backend``.

    On the native backend every span carries measured wall time and the
    report holds per-kind predicted-vs-measured ratios; on the simulated
    backend there is nothing to pair against and the report is empty
    (the CLI warns).  Either way the simulated side of the payload is a
    pure function of the seed — the determinism the byte-identity test
    pins down.
    """
    seed = resolve_seed(seed)
    observed = run_observed_workload(
        experiment,
        num_pages=num_pages,
        num_queries=num_queries,
        seed=seed,
        max_spans=max_spans,
        backend=backend,
    )
    observer = observed.observer
    model = CalibrationModel(observed.column.cost.params)
    paired = model.ingest(observer.tracer)
    for span in observer.tracer.finished_spans():
        if span.wall_ns:
            observer.record_span_wall(span.name, span.wall_ns)
    model.publish(observer, threshold)

    substrate = observed.column.substrate
    wall = substrate.wall
    report = build_report(
        model,
        backend=getattr(observed.column.substrate, "backend", str(backend)),
        threshold=threshold,
        wall_ops=wall.snapshot() if wall is not None else {},
        meta={
            "experiment": experiment,
            "pages": num_pages,
            "queries": num_queries,
            "seed": seed,
            "wall_paired_spans": paired,
            "total_spans": observer.tracer.total_spans,
        },
    )
    # Release backend resources (real mappings and fds on native) so
    # consecutive in-process sessions see the same /proc/self/maps
    # baseline — the native maps-parse charge counts real kernel lines,
    # and leaked mappings would make identically-seeded sessions drift.
    substrate.close()
    return CalibrationRun(
        report=report, observed=observed, model=model, paired_spans=paired
    )
