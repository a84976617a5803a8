"""The paper's contribution: adaptive virtual-view storage."""

from .adaptive import AdaptiveStorageLayer, QueryResult
from .advisor import AdvisedView, ViewAdvisor
from .config import AdaptiveConfig, EvictionPolicy, RoutingMode
from .creation import (
    BackgroundMapper,
    CreationReport,
    create_partial_view,
    materialize_pages,
)
from .checkpoint import load_database, save_database
from .facade import AdaptiveDatabase
from .introspect import IndexReport, ViewSummary, inspect_view_index, render_index_report
from .maintenance import align_partial_views, rebuild_partial_views
from .query import AggregateResult, QueryEngine, RecordSet
from .snapshot import ColumnSnapshot, SnapshotManager
from .routing import RoutedScan, scan_views
from .scan import NO_ABOVE, NO_BELOW, BatchScanResult, batch_scan
from .stats import (
    MaintenanceStats,
    QueryStats,
    SequenceStats,
    ViewEvent,
    ViewLifecycleEvent,
    view_utility,
)
from .view import MapPlan, VirtualView
from .view_index import QuarantineEntry, ViewIndex

__all__ = [
    "AdaptiveConfig",
    "AdaptiveDatabase",
    "AdaptiveStorageLayer",
    "AdvisedView",
    "AggregateResult",
    "ViewAdvisor",
    "align_partial_views",
    "ColumnSnapshot",
    "IndexReport",
    "inspect_view_index",
    "load_database",
    "save_database",
    "QueryEngine",
    "RecordSet",
    "render_index_report",
    "SnapshotManager",
    "ViewSummary",
    "BackgroundMapper",
    "batch_scan",
    "BatchScanResult",
    "create_partial_view",
    "CreationReport",
    "EvictionPolicy",
    "MaintenanceStats",
    "MapPlan",
    "materialize_pages",
    "NO_ABOVE",
    "NO_BELOW",
    "QuarantineEntry",
    "QueryResult",
    "QueryStats",
    "view_utility",
    "rebuild_partial_views",
    "RoutedScan",
    "RoutingMode",
    "scan_views",
    "SequenceStats",
    "ViewEvent",
    "ViewIndex",
    "ViewLifecycleEvent",
    "VirtualView",
]
