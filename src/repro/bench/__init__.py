"""Benchmark harness: one runner per paper table/figure plus ablations."""

from .experiments import (
    FullSuite,
    build_table1,
    run_all,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_max_views_ablation,
    run_routing_ablation,
    run_table1,
    run_tolerance_ablation,
)
from .harness import (
    DEFAULT_DIVISOR,
    PAPER_COLUMN_PAGES,
    fresh_column,
    make_update_batch,
    run_adaptive_sequence,
    run_full_scan_sequence,
    scaled_pages,
)
from .reporting import format_phases, format_table, sparkline

__all__ = [
    "build_table1",
    "DEFAULT_DIVISOR",
    "format_phases",
    "format_table",
    "fresh_column",
    "FullSuite",
    "make_update_batch",
    "PAPER_COLUMN_PAGES",
    "run_adaptive_sequence",
    "run_all",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_full_scan_sequence",
    "run_max_views_ablation",
    "run_routing_ablation",
    "run_table1",
    "run_tolerance_ablation",
    "scaled_pages",
    "sparkline",
]
