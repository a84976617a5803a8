"""The cost-model calibration observatory.

The simulated :class:`~repro.vm.cost.CostModel` asserts nanosecond
constants; the native backend measures real time in a
:class:`~repro.substrate.interface.WallClockLedger`.  This package pairs
the two *per span kind* (``scan``, ``map-pages``, ``maps-parse``,
``align-views``, ...), maintains online ratios/regressions, and raises
structured drift findings — with confidence scores and suggested
constant corrections — whenever predicted and measured cost diverge
beyond a threshold.

Entry points:

* :func:`~repro.obs.calibration.session.run_calibration_session` — one
  seeded observed workload on the chosen backend, spans paired and
  reported (``python -m repro calibrate``, writes
  ``BENCH_calibration.json``);
* :meth:`repro.core.facade.AdaptiveDatabase.calibration_report` — the
  same pairing over whatever an observed database session has traced so
  far;
* :func:`~repro.obs.calibration.explain.explain_range_query` — the
  ``EXPLAIN [ANALYZE]`` engine behind ``db.explain(...)`` and the SQL
  layer.
"""

from .explain import ExplainReport, explain_range_query
from .model import CalibrationModel, DriftFinding, KindStats
from .report import (
    DEFAULT_JSON_PATH,
    CalibrationReport,
    build_report,
    strip_wall_fields,
    write_calibration_json,
)
from .session import (
    DEFAULT_CALIBRATION_PAGES,
    CalibrationRun,
    run_calibration_session,
)

__all__ = [
    "DEFAULT_CALIBRATION_PAGES",
    "DEFAULT_JSON_PATH",
    "CalibrationModel",
    "CalibrationReport",
    "CalibrationRun",
    "DriftFinding",
    "ExplainReport",
    "KindStats",
    "build_report",
    "explain_range_query",
    "run_calibration_session",
    "strip_wall_fields",
    "write_calibration_json",
]
