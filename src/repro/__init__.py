"""repro — Adaptive Storage Views in Virtual Memory (CIDR 2023).

A full reproduction of Schuhknecht & Henneberg's adaptive storage layer:
a columnar in-memory store whose indexing is fused into the storage layer
via virtual-memory views created by page rewiring.  The Linux facilities
the paper builds on (tmpfs main-memory files, ``mmap(MAP_FIXED)``,
``/proc/PID/maps``) are provided by a deterministic simulated
virtual-memory subsystem with a calibrated cost model; an optional ctypes
backend (:mod:`repro.native`) demonstrates the real mechanism.

Quickstart::

    import numpy as np
    from repro import AdaptiveDatabase

    db = AdaptiveDatabase()
    db.create_table("readings", {"temp": np.random.default_rng(0)
                                  .integers(0, 100_000_000, 1_000_000)})
    result = db.query("readings", "temp", 1_000, 2_000)
    print(len(result), "rows,", result.stats.pages_scanned, "pages scanned")
"""

from .core import (
    AdaptiveConfig,
    AdaptiveDatabase,
    AdaptiveStorageLayer,
    AggregateResult,
    ColumnSnapshot,
    MaintenanceStats,
    QueryEngine,
    QueryResult,
    QueryStats,
    RecordSet,
    RoutingMode,
    SequenceStats,
    SnapshotManager,
    ViewEvent,
    ViewIndex,
    VirtualView,
    inspect_view_index,
    render_index_report,
)
from .obs import (
    MetricsRegistry,
    Observer,
    Tracer,
    render_metrics_json,
    render_prometheus,
    render_trace_tree,
)
from .shard import (
    ShardedColumn,
    ShardedDatabase,
    ShardRouter,
    ShardSpec,
    plan_partition,
)
from .storage import Catalog, PhysicalColumn, Table, UpdateBatch, UpdateRecord
from .substrate import (
    SimulatedSubstrate,
    Substrate,
    WallClockLedger,
    make_substrate,
)
from .vm import (
    CostModel,
    CostParameters,
    PhysicalMemory,
    PAGE_SIZE,
    VALUES_PER_PAGE,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveConfig",
    "AdaptiveDatabase",
    "AdaptiveStorageLayer",
    "AggregateResult",
    "Catalog",
    "ColumnSnapshot",
    "inspect_view_index",
    "QueryEngine",
    "RecordSet",
    "render_index_report",
    "SnapshotManager",
    "CostModel",
    "CostParameters",
    "MaintenanceStats",
    "MetricsRegistry",
    "Observer",
    "PAGE_SIZE",
    "PhysicalColumn",
    "PhysicalMemory",
    "QueryResult",
    "QueryStats",
    "RoutingMode",
    "SequenceStats",
    "ShardRouter",
    "ShardSpec",
    "ShardedColumn",
    "ShardedDatabase",
    "SimulatedSubstrate",
    "Substrate",
    "plan_partition",
    "Table",
    "Tracer",
    "WallClockLedger",
    "make_substrate",
    "render_metrics_json",
    "render_prometheus",
    "render_trace_tree",
    "UpdateBatch",
    "UpdateRecord",
    "VALUES_PER_PAGE",
    "ViewEvent",
    "ViewIndex",
    "VirtualView",
    "__version__",
]
