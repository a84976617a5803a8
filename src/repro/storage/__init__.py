"""Columnar storage engine substrate (physical columns, tables, updates)."""

from .column import PhysicalColumn
from .layout import (
    pages_for_rows,
    row_to_page,
    row_to_slot,
    rows_in_page,
)
from .page import PageScanResult, clamp_range, scan_and_filter
from .statistics import ColumnHistogram, SelectivityEstimate
from .table import Catalog, Table
from .updates import UpdateBatch, UpdateRecord

__all__ = [
    "Catalog",
    "clamp_range",
    "ColumnHistogram",
    "SelectivityEstimate",
    "PageScanResult",
    "pages_for_rows",
    "PhysicalColumn",
    "row_to_page",
    "row_to_slot",
    "rows_in_page",
    "scan_and_filter",
    "Table",
    "UpdateBatch",
    "UpdateRecord",
]
