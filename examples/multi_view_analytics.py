"""Multi-view analytics: answering one query from several views.

Fixed-selectivity analytics (e.g. "always aggregate a 1% revenue band")
is the paper's motivation for multi-view mode: the chance that ONE view
covers a fresh query range is small, but several overlapping views
together often do.  Shared physical pages are scanned once thanks to
the processed-pages bitvector.

Run:  python examples/multi_view_analytics.py
"""

from repro import AdaptiveConfig, AdaptiveDatabase, RoutingMode
from repro.workloads.distributions import sine
from repro.workloads.queries import fixed_selectivity

NUM_PAGES = 4_000
DOMAIN = (0, 100_000_000)


def run_mode(mode: RoutingMode, queries) -> dict:
    db = AdaptiveDatabase(AdaptiveConfig(max_views=120, mode=mode))
    db.create_table("sales", {"revenue": sine(NUM_PAGES, *DOMAIN, seed=3)})
    views_used = []
    total_pages = 0
    for query in queries:
        result = db.query("sales", "revenue", query.lo, query.hi)
        views_used.append(result.stats.views_used)
        total_pages += result.stats.pages_scanned
    summary = {
        "total_sim_s": db.cost.ledger.lane_ns() / 1e9,
        "max_views_used": max(views_used),
        "multi_view_queries": sum(1 for v in views_used if v > 1),
        "total_pages": total_pages,
        "partials": db.layer("sales", "revenue").view_index.num_partials,
    }
    db.close()
    return summary


def main() -> None:
    queries = fixed_selectivity(0.01, num_queries=150, domain=DOMAIN, seed=11)
    print(f"workload: {len(queries)} queries, each selecting 1% of the domain\n")

    for mode in (RoutingMode.SINGLE, RoutingMode.MULTI):
        summary = run_mode(mode, queries)
        print(f"== {mode.value}-view routing ==")
        print(f"  accumulated simulated time : {summary['total_sim_s']:.3f} s")
        print(f"  partial views created      : {summary['partials']}")
        print(f"  max views used per query   : {summary['max_views_used']}")
        print(f"  queries answered multi-view: {summary['multi_view_queries']}")
        print(f"  physical pages scanned     : {summary['total_pages']:,}")
        print()

    print(
        "multi-view mode answers far more queries from partial views —\n"
        "a single view rarely covers a fresh 1% range, but overlapping\n"
        "views jointly do (the paper's Figure 5)."
    )


if __name__ == "__main__":
    main()
