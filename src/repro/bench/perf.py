"""Wall-clock microbenchmarks for the substrate fast paths.

``python -m repro perf`` times the hot substrate operations — scans,
maintenance batches and maps snapshot builds — once with
the fast paths enabled and once on the per-page reference paths, and
writes the speedups to ``BENCH_perf.json``.  Unlike every other command
in the CLI, this one measures *wall-clock* time: the simulated costs are
bit-identical in both modes (that is the fast-path contract, enforced by
``tests/core/test_fastpath_parity.py``), so the only thing left to
measure is how fast the simulator itself runs.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .. import fastpath
from ..core.creation import create_partial_view
from ..core.maintenance import align_partial_views
from ..core.routing import scan_views
from ..core.view import VirtualView
from ..workloads.distributions import DEFAULT_DOMAIN, linear, uniform
from .harness import fresh_column, make_update_batch, session_seed

#: Default column size: the ISSUE's "64k+ pages" wall-clock regime.
DEFAULT_PERF_PAGES = 65_536

#: Snapshots taken per timed maps-snapshot call (shows the cache effect).
SNAPSHOTS_PER_CALL = 4

#: Shard counts the sharded-scan benchmark sweeps by default.
DEFAULT_SHARD_COUNTS = (1, 2, 4, 8)

#: Column size of the sharded-scan acceptance run (256k pages ≈ 1 GB of
#: int64 slots on the native backend).
DEFAULT_SHARDED_PAGES = 262_144

#: The paper's main-experiment column: 1M pages ≈ 3.9 GB of records.
PAPER_SCALE_PAGES = 1_048_576

#: Queries per timed sharded-scan call.
SHARDED_QUERIES = 16

#: Width of each sharded-scan predicate as a fraction of the domain.
#: Narrow predicates on the nearly-sorted ("linear") distribution are
#: what partition pruning accelerates: each routes to ~1 of N shards.
SHARDED_SELECTIVITY = 0.02


@dataclass
class PerfResult:
    """One microbenchmark: best-of-N wall-clock in both modes."""

    #: Benchmark name ("scan", "maps_snapshot", ...).
    name: str
    #: What one unit of :attr:`throughput` means ("pages/s", ...).
    unit: str
    #: Work items processed per timed call (pages, batches, ...).
    items: int
    #: Column size in pages.
    pages: int
    #: Timed calls per mode (the best one counts).
    iterations: int
    #: Best wall-clock seconds on the reference (per-page) paths.
    reference_s: float
    #: Best wall-clock seconds with the fast paths enabled.
    fast_s: float
    #: ``reference_s / fast_s``.
    speedup: float
    #: Fast-path throughput, ``items / fast_s``.
    throughput: float


def _best_of(calls: list, iterations: int) -> float:
    """Best (minimum) wall-clock seconds over the timed calls.

    ``calls`` holds one closure per iteration so benchmarks can consume
    per-iteration inputs (e.g. a fresh update batch per call).
    """
    best = float("inf")
    for i in range(iterations):
        fn = calls[i % len(calls)]
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _run_modes(make_calls, iterations: int) -> tuple[float, float]:
    """Time a benchmark on the reference paths, then on the fast paths.

    ``make_calls`` builds a fresh benchmark state and returns the list of
    timed closures; it runs once per mode so the two measurements never
    share mutable state.
    """
    with fastpath.reference_paths():
        reference_s = _best_of(make_calls(), iterations)
    with fastpath.fast_paths():
        fast_s = _best_of(make_calls(), iterations)
    return reference_s, fast_s


def _result(
    name: str,
    unit: str,
    items: int,
    num_pages: int,
    iterations: int,
    reference_s: float,
    fast_s: float,
) -> PerfResult:
    return PerfResult(
        name=name,
        unit=unit,
        items=items,
        pages=num_pages,
        iterations=iterations,
        reference_s=reference_s,
        fast_s=fast_s,
        speedup=reference_s / fast_s if fast_s > 0 else float("inf"),
        throughput=items / fast_s if fast_s > 0 else float("inf"),
    )


def bench_scan(num_pages: int, iterations: int) -> PerfResult:
    """Scan-and-filter throughput through the full view (pages/s)."""
    lo, hi = DEFAULT_DOMAIN[0], DEFAULT_DOMAIN[1] // 2

    def make_calls():
        column = fresh_column(linear(num_pages, seed=7), name="perf_scan")
        full = VirtualView.full_view(column)
        return [lambda: scan_views(column, [full], lo, hi)]

    reference_s, fast_s = _run_modes(make_calls, iterations)
    return _result(
        "scan", "pages/s", num_pages, num_pages, iterations, reference_s, fast_s
    )


def bench_maintenance(
    num_pages: int, iterations: int, batch_size: int = 1000
) -> PerfResult:
    """Update-alignment batches per second across four partial views.

    Both modes run the same alignment kernel; what differs between them
    is the maps snapshot (columns off the VMA list vs. rendered and
    parsed text).  The reference/fast ratio of this benchmark therefore
    shows the snapshot only — the committed ``BENCH_perf.json`` row was
    measured when alignment itself still had two branches.
    """
    domain_lo, domain_hi = DEFAULT_DOMAIN
    quarter = (domain_hi - domain_lo) // 4

    def make_calls():
        column = fresh_column(uniform(num_pages, seed=7), name="perf_maint")
        full = VirtualView.full_view(column)
        views = [full]
        for i in range(4):
            lo = domain_lo + i * quarter
            hi = lo + quarter // 2
            views.append(create_partial_view(column, [full], lo, hi).view)
        batches = [
            make_update_batch(column, batch_size, domain_lo, domain_hi, seed=i)
            for i in range(iterations)
        ]
        return [
            (lambda b=batch: align_partial_views(column, views, b))
            for batch in batches
        ]

    reference_s, fast_s = _run_modes(make_calls, iterations)
    return _result(
        "maintenance_batch",
        "batches/s",
        1,
        num_pages,
        iterations,
        reference_s,
        fast_s,
    )


def bench_maps_snapshot(num_pages: int, iterations: int) -> PerfResult:
    """Maps snapshot builds per second.

    Each timed call takes several back-to-back snapshots of an unchanged
    address space.  The reference path renders the maps text, parses it
    and fills the bimap page by page every time; the fast path reads the
    entries' columns off the VMA list and expands them to pages.
    """
    lo, hi = DEFAULT_DOMAIN[0], DEFAULT_DOMAIN[1] // 2

    def make_calls():
        column = fresh_column(linear(num_pages, seed=7), name="perf_maps")
        full = VirtualView.full_view(column)
        create_partial_view(column, [full], lo, hi)
        substrate = column.substrate
        cost = column.cost
        path = substrate.file_map_path(column.file)

        def call():
            for _ in range(SNAPSHOTS_PER_CALL):
                substrate.maps_snapshot(cost=cost, file_filter=path)

        return [call]

    reference_s, fast_s = _run_modes(make_calls, iterations)
    return _result(
        "maps_snapshot",
        "snapshots/s",
        SNAPSHOTS_PER_CALL,
        num_pages,
        iterations,
        reference_s,
        fast_s,
    )


def _sharded_backend() -> str:
    """Backend the sharded benchmarks run on (native when available)."""
    from ..native import is_supported

    return "native" if is_supported() else "simulated"


def _sharded_workload(queries: int) -> list[tuple[int, int]]:
    """The seeded narrow-predicate workload every shard count replays.

    Seeded through :func:`~repro.bench.harness.session_seed`, so
    ``REPRO_SEED`` makes the sweep reproducible from the environment.
    """
    rng = np.random.default_rng(session_seed())
    domain_lo, domain_hi = DEFAULT_DOMAIN
    width = int((domain_hi - domain_lo) * SHARDED_SELECTIVITY)
    starts = rng.integers(domain_lo, domain_hi - width, size=queries)
    return [(int(start), int(start) + width) for start in starts]


def bench_sharded_scan(
    num_pages: int,
    iterations: int,
    shard_counts: tuple[int, ...] = DEFAULT_SHARD_COUNTS,
    backend: str | None = None,
    queries: int = SHARDED_QUERIES,
) -> dict:
    """Wall-clock the routed scatter-gather scan across shard counts.

    One nearly-sorted column, one seeded narrow-predicate workload,
    replayed at every shard count: the router prunes each query down to
    the shards whose value bounds intersect it, so more shards mean
    fewer pages scanned per query (and, on multi-core machines with the
    native backend, genuinely parallel shard scans on top).  Row counts
    are cross-checked between shard counts — pruning must never change
    results.  Returns the ``sharded_scan`` payload section.
    """
    from ..shard import ShardedColumn

    backend = backend or _sharded_backend()
    values = linear(num_pages, seed=7)
    ranges = _sharded_workload(queries)
    entries: list[dict] = []
    baseline_s: float | None = None
    expected_rows: int | None = None
    for num_shards in shard_counts:
        if num_shards > num_pages:
            continue
        column = ShardedColumn.build(
            "perf_sharded", values, num_shards, backend=backend
        )
        try:

            def run() -> tuple[int, int]:
                rows = 0
                pages = 0
                for lo, hi in ranges:
                    result = column.scan(lo, hi)
                    rows += result.stats.result_rows
                    pages += result.stats.pages_scanned
                return rows, pages

            rows, pages_scanned = run()  # warm-up: first-touch faults
            if expected_rows is None:
                expected_rows = rows
            elif rows != expected_rows:
                raise AssertionError(
                    f"sharded scan at {num_shards} shards returned {rows} "
                    f"rows, expected {expected_rows} — pruning changed "
                    "results"
                )
            best = _best_of([run], iterations)
        finally:
            column.close()
        if baseline_s is None:
            baseline_s = best
        speedup = baseline_s / best if best > 0 else float("inf")
        entries.append(
            {
                "shards": num_shards,
                "seconds": best,
                "speedup_vs_1": speedup,
                "efficiency": speedup / num_shards,
                "queries": queries,
                "rows": rows,
                "pages_scanned_per_pass": pages_scanned,
            }
        )
    return {
        "pages": num_pages,
        "backend": backend,
        "iterations": iterations,
        "queries": queries,
        "selectivity": SHARDED_SELECTIVITY,
        "parallel": backend == "native",
        "entries": entries,
    }


def bench_paper_scale(
    num_pages: int = PAPER_SCALE_PAGES,
    num_shards: int = 8,
    iterations: int = 2,
    backend: str | None = None,
    queries: int = 8,
) -> dict:
    """The paper's 1M-page column, for real: build it, scan it, time it.

    Every wall-clock number elsewhere in the payload tops out well below
    paper scale; this one materializes the full 1M-page (≈4 GB on the
    native backend) column across ``num_shards`` shard substrates and
    times the routed scatter-gather scan on it.  Returns the
    ``paper_scale`` payload section.
    """
    from ..shard import ShardedColumn

    backend = backend or _sharded_backend()
    values = linear(num_pages, seed=7)
    ranges = _sharded_workload(queries)
    build_started = time.perf_counter()
    column = ShardedColumn.build(
        "perf_paper", values, num_shards, backend=backend
    )
    build_s = time.perf_counter() - build_started
    del values
    try:

        def run() -> tuple[int, int]:
            rows = 0
            pages = 0
            for lo, hi in ranges:
                result = column.scan(lo, hi)
                rows += result.stats.result_rows
                pages += result.stats.pages_scanned
            return rows, pages

        rows, pages_scanned = run()  # warm-up: first-touch faults
        best = _best_of([run], iterations)
    finally:
        column.close()
    return {
        "pages": num_pages,
        "shards": num_shards,
        "backend": backend,
        "build_seconds": build_s,
        "scan_seconds": best,
        "queries": queries,
        "rows": rows,
        "pages_scanned_per_pass": pages_scanned,
        "pages_per_second": pages_scanned / best if best > 0 else float("inf"),
    }


#: Hot-budget fractions the tiered-scan benchmark sweeps by default
#: (1.0 = everything resident = the untiered regime's placement).
DEFAULT_TIER_FRACTIONS = (1.0, 0.5, 0.25, 0.1)

#: Queries per timed tiered-scan call.
TIERED_QUERIES = 32


def bench_tiered_scan(
    num_pages: int,
    iterations: int,
    budget: int | None = None,
    fractions: tuple[float, ...] = DEFAULT_TIER_FRACTIONS,
    backend: str = "simulated",
    queries: int = TIERED_QUERIES,
) -> dict:
    """Wall-clock the tiered page store across hot-budget levels.

    One nearly-sorted column, one seeded narrow-predicate workload
    (reuses the sharded benchmark's generator, so ``REPRO_SEED`` applies
    here too), replayed against an untiered baseline and then under
    shrinking hot budgets.  Each tiered entry reports the wall-clock
    seconds, the hot-hit ratio the placement converged to, and the
    promotion/demotion churn; row counts are cross-checked against the
    untiered run — tiering must never change results.  An explicit
    ``budget`` (``--tier-budget`` / ``REPRO_TIER_BUDGET``) replaces the
    fraction sweep with that single budget level.  Returns the
    ``tiered_scan`` payload section.
    """
    from ..core.facade import AdaptiveDatabase
    from ..tier import TierConfig

    values = linear(num_pages, seed=7)
    ranges = _sharded_workload(queries)

    def run_session(config: TierConfig | None) -> tuple[int, float, dict | None]:
        db = AdaptiveDatabase(backend=backend, tiering=config)
        try:
            db.create_table("perf_tiered", {"v": values})

            def run() -> int:
                rows = 0
                for lo, hi in ranges:
                    result = db.query("perf_tiered", "v", lo, hi)
                    rows += result.stats.result_rows
                return rows

            rows = run()  # warm-up: placement converges, views build
            best = _best_of([run], iterations)
            status = db.tier_status().get("perf_tiered.v")
        finally:
            db.close()
        return rows, best, status

    expected_rows, baseline_s, _ = run_session(None)
    if budget is not None:
        budgets = [min(budget, num_pages)]
    else:
        budgets = [
            max(int(num_pages * fraction), 1) for fraction in fractions
        ]
    entries: list[dict] = []
    for level in budgets:
        rows, best, status = run_session(TierConfig(hot_budget=level))
        if rows != expected_rows:
            raise AssertionError(
                f"tiered scan at budget {level} returned {rows} rows, "
                f"expected {expected_rows} — tiering changed results"
            )
        entries.append(
            {
                "hot_budget": level,
                "budget_fraction": level / num_pages,
                "seconds": best,
                "slowdown_vs_untiered": (
                    best / baseline_s if baseline_s > 0 else float("inf")
                ),
                "rows": rows,
                "hot_hit_ratio": status["hit_ratio"],
                "hot_pages": status["hot_pages"],
                "cold_pages": status["cold_pages"],
                "promotions": status["promotions"],
                "demotions": status["demotions"],
            }
        )
    return {
        "pages": num_pages,
        "backend": backend,
        "iterations": iterations,
        "queries": queries,
        "untiered_seconds": baseline_s,
        "rows": expected_rows,
        "entries": entries,
    }


#: Rows the durability benchmark journals per timed run.
DEFAULT_DURABILITY_ROWS = 2_000


def bench_durability(
    num_rows: int = DEFAULT_DURABILITY_ROWS,
    iterations: int = 3,
    fsync_policy: str | None = None,
    backend: str = "simulated",
) -> dict:
    """Wall-clock the journaled write path across fsync policies.

    One seeded insert stream, replayed against a no-WAL baseline and
    then with the write-ahead log under each fsync policy (or just
    ``fsync_policy`` when given).  Each timed run gets a fresh durable
    directory; afterwards the directory is *recovered* and the restored
    row count cross-checked — the ack contract, not just the timing, is
    what the benchmark certifies.  Returns the ``durability`` payload
    section.
    """
    import shutil
    import tempfile

    from ..core.facade import AdaptiveDatabase
    from ..wal import FSYNC_POLICIES, DurabilityConfig, recover_database

    policies: tuple[str, ...]
    if fsync_policy is not None:
        policies = (fsync_policy,)
    else:
        policies = FSYNC_POLICIES
    rng = np.random.default_rng(session_seed())
    stream = rng.integers(0, 1_000_000, size=num_rows)
    base_rows = 4

    def timed_run(durable_dir: str | None, policy: str) -> tuple[float, dict]:
        kwargs: dict = {}
        if durable_dir is not None:
            kwargs = {
                "durable_dir": durable_dir,
                "durability": DurabilityConfig(fsync=policy),
            }
        db = AdaptiveDatabase(backend=backend, **kwargs)
        try:
            db.create_table(
                "perf_wal",
                {
                    "k": np.arange(base_rows, dtype=np.int64),
                    "v": np.zeros(base_rows, dtype=np.int64),
                },
            )
            started = time.perf_counter()
            for i, value in enumerate(stream.tolist()):
                db.insert("perf_wal", {"k": base_rows + i, "v": int(value)})
            db.flush_all()  # batch/off pay their deferred fsync here
            elapsed = time.perf_counter() - started
            status = db.wal_status()
        finally:
            db.close()
        return elapsed, status

    def run_policy(policy: str | None) -> dict:
        best = float("inf")
        status: dict = {}
        oracle_ok = True
        for _ in range(iterations):
            tmp = tempfile.mkdtemp(prefix="repro-perf-wal-")
            try:
                durable_dir = None if policy is None else tmp
                elapsed, status = timed_run(durable_dir, policy or "off")
                best = min(best, elapsed)
                if policy is not None:
                    recovered, _ = recover_database(tmp, backend=backend)
                    try:
                        live = recovered.table("perf_wal").num_live_rows
                    finally:
                        recovered.close()
                    oracle_ok = oracle_ok and live == base_rows + num_rows
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
        entry = {
            "policy": policy or "none",
            "seconds": best,
            "rows": num_rows,
            "rows_per_second": num_rows / best if best > 0 else float("inf"),
            "oracle_ok": oracle_ok,
        }
        if policy is not None:
            entry["wal_appends"] = status.get("lsn", 0)
            entry["wal_bytes"] = status.get("total_bytes", 0)
        return entry

    baseline = run_policy(None)
    entries = [run_policy(policy) for policy in policies]
    for entry in entries:
        entry["slowdown_vs_baseline"] = (
            entry["seconds"] / baseline["seconds"]
            if baseline["seconds"] > 0
            else float("inf")
        )
    return {
        "rows": num_rows,
        "backend": backend,
        "iterations": iterations,
        "baseline_seconds": baseline["seconds"],
        "baseline_rows_per_second": baseline["rows_per_second"],
        "entries": entries,
    }


def run_perf(
    num_pages: int = DEFAULT_PERF_PAGES,
    iterations: int = 3,
    shard_counts: tuple[int, ...] = DEFAULT_SHARD_COUNTS,
    sharded_pages: int | None = None,
    paper_scale: bool = False,
    paper_scale_pages: int = PAPER_SCALE_PAGES,
    serve: bool = False,
    serve_sessions: int | None = None,
    serving_pages: int | None = None,
    serve_only: bool = False,
    tiered: bool = False,
    tiered_pages: int | None = None,
    tier_budget_pages: int | None = None,
    tiered_only: bool = False,
    durability: bool = False,
    durability_only: bool = False,
    fsync_policy: str | None = None,
) -> dict:
    """Run every microbenchmark; returns the ``BENCH_perf.json`` payload.

    ``sharded_pages`` sizes the sharded-scan column separately from the
    fast-path benchmarks (default: same as ``num_pages``);
    ``paper_scale`` additionally runs the 1M-page native sharded scan;
    ``serve`` additionally runs the serving-layer concurrency benchmark;
    ``tiered`` additionally runs the tiered-scan budget sweep;
    ``durability`` additionally runs the journaled-write benchmark
    (``serve_only`` / ``tiered_only`` / ``durability_only`` run nothing
    else — pair with ``merge=True`` in :func:`write_perf_json` to
    refresh just that section).
    """
    payload: dict = {}
    if not (serve_only or tiered_only or durability_only):
        results = [
            bench_scan(num_pages, iterations),
            bench_maintenance(num_pages, iterations),
            bench_maps_snapshot(num_pages, iterations),
        ]
        payload = {
            "benchmark": "substrate fast paths (wall-clock)",
            "pages": num_pages,
            "iterations": iterations,
            "results": [asdict(r) for r in results],
        }
        if shard_counts:
            payload["sharded_scan"] = bench_sharded_scan(
                sharded_pages or num_pages, iterations, shard_counts
            )
        if paper_scale:
            payload["paper_scale"] = bench_paper_scale(
                num_pages=paper_scale_pages,
                num_shards=max(shard_counts) if shard_counts else 8,
            )
    if serve or serve_only:
        from .serve import DEFAULT_SERVING_PAGES, bench_serving

        payload["serving"] = bench_serving(
            num_pages=serving_pages or DEFAULT_SERVING_PAGES,
            max_sessions=serve_sessions,
        )
    if tiered or tiered_only:
        payload["tiered_scan"] = bench_tiered_scan(
            tiered_pages or num_pages,
            iterations,
            budget=tier_budget_pages,
        )
    if durability or durability_only:
        payload["durability"] = bench_durability(
            iterations=iterations, fsync_policy=fsync_policy
        )
    return payload


def render_perf(payload: dict) -> str:
    """Human-readable table for one ``run_perf`` payload."""
    lines: list[str] = []
    if "results" in payload:
        lines = [
            f"Substrate fast-path microbenchmarks — {payload['pages']} "
            f"pages, best of {payload['iterations']}",
            "",
            f"{'benchmark':<18} {'reference':>12} {'fast':>12} "
            f"{'speedup':>8}  throughput",
            "-" * 68,
        ]
        for r in payload["results"]:
            lines.append(
                f"{r['name']:<18} {r['reference_s'] * 1e3:>10.1f}ms "
                f"{r['fast_s'] * 1e3:>10.1f}ms {r['speedup']:>7.1f}x  "
                f"{r['throughput']:,.0f} {r['unit']}"
            )
        regressions = [r for r in payload["results"] if r["speedup"] < 1.0]
        if regressions:
            lines.append("")
            lines.extend(
                f"WARNING: {r['name']} fast path slower than reference "
                f"({r['speedup']:.2f}x)"
                for r in regressions
            )
    sharded = payload.get("sharded_scan")
    if sharded:
        lines.extend(
            [
                "",
                f"Sharded scan — {sharded['pages']} pages, "
                f"{sharded['queries']} queries, {sharded['backend']} "
                f"backend, best of {sharded['iterations']}",
                "",
                f"{'shards':>6} {'seconds':>12} {'speedup':>8} "
                f"{'efficiency':>10}  pages/pass",
                "-" * 52,
            ]
        )
        for e in sharded["entries"]:
            lines.append(
                f"{e['shards']:>6} {e['seconds'] * 1e3:>10.1f}ms "
                f"{e['speedup_vs_1']:>7.2f}x {e['efficiency']:>9.2f}  "
                f"{e['pages_scanned_per_pass']:,}"
            )
        slowdowns = [
            e for e in sharded["entries"] if e["speedup_vs_1"] < 1.0
        ]
        if slowdowns:
            lines.append("")
            lines.extend(
                f"WARNING: sharded scan at {e['shards']} shards slower "
                f"than 1 shard ({e['speedup_vs_1']:.2f}x)"
                for e in slowdowns
            )
    paper = payload.get("paper_scale")
    if paper:
        lines.extend(
            [
                "",
                f"Paper scale — {paper['pages']:,} pages, "
                f"{paper['shards']} shards, {paper['backend']} backend: "
                f"build {paper['build_seconds']:.1f}s, "
                f"scan {paper['scan_seconds'] * 1e3:.1f}ms "
                f"({paper['pages_per_second']:,.0f} pages/s, "
                f"{paper['rows']:,} rows)",
            ]
        )
    tiered = payload.get("tiered_scan")
    if tiered:
        if lines:
            lines.append("")
        lines.extend(
            [
                f"Tiered scan — {tiered['pages']} pages, "
                f"{tiered['queries']} queries, {tiered['backend']} "
                f"backend, untiered baseline "
                f"{tiered['untiered_seconds'] * 1e3:.1f}ms",
                "",
                f"{'budget':>8} {'fraction':>8} {'seconds':>12} "
                f"{'slowdown':>9} {'hot-hit':>8}  promo/demo",
                "-" * 60,
            ]
        )
        for e in tiered["entries"]:
            lines.append(
                f"{e['hot_budget']:>8} {e['budget_fraction']:>8.2f} "
                f"{e['seconds'] * 1e3:>10.1f}ms "
                f"{e['slowdown_vs_untiered']:>8.2f}x "
                f"{e['hot_hit_ratio']:>8.2f}  "
                f"{e['promotions']}/{e['demotions']}"
            )
    durability = payload.get("durability")
    if durability:
        if lines:
            lines.append("")
        lines.extend(
            [
                f"Durability — {durability['rows']} journaled inserts, "
                f"{durability['backend']} backend, no-WAL baseline "
                f"{durability['baseline_seconds'] * 1e3:.1f}ms "
                f"({durability['baseline_rows_per_second']:,.0f} rows/s)",
                "",
                f"{'fsync':>8} {'seconds':>12} {'rows/s':>10} "
                f"{'slowdown':>9} {'wal bytes':>10}  oracle",
                "-" * 60,
            ]
        )
        for e in durability["entries"]:
            lines.append(
                f"{e['policy']:>8} {e['seconds'] * 1e3:>10.1f}ms "
                f"{e['rows_per_second']:>10,.0f} "
                f"{e['slowdown_vs_baseline']:>8.2f}x "
                f"{e.get('wal_bytes', 0):>10,}  "
                f"{'ok' if e['oracle_ok'] else 'FAIL'}"
            )
    serving = payload.get("serving")
    if serving:
        if lines:
            lines.append("")
        lines.extend(
            [
                f"Serving — {serving['pages']} pages, "
                f"{serving['ops_per_session']} ops/session "
                f"(1 write per {serving['write_every']}), wire protocol "
                f"v{serving['protocol']}",
                "",
                f"{'sessions':>8} {'ops':>6} {'seconds':>10} "
                f"{'qps':>10} {'read qps':>10}  oracle",
                "-" * 56,
            ]
        )
        for e in serving["entries"]:
            lines.append(
                f"{e['sessions']:>8} {e['ops']:>6} "
                f"{e['seconds'] * 1e3:>8.1f}ms "
                f"{e['qps']:>10,.0f} {e['read_qps']:>10,.0f}  "
                f"{'ok' if e['oracle_ok'] else 'FAIL'}"
            )
    return "\n".join(lines)


def write_perf_json(payload: dict, path: str, merge: bool = False) -> None:
    """Write the payload as pretty-printed JSON.

    ``merge=True`` folds the payload's top-level keys into an existing
    file instead of overwriting it — so a serving-only rerun refreshes
    its section without discarding committed sections (e.g. the
    paper-scale run, which needs hardware this machine may not have).
    """
    if merge:
        try:
            with open(path) as f:
                existing = json.load(f)
        except (FileNotFoundError, json.JSONDecodeError):
            existing = {}
        existing.update(payload)
        payload = existing
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
