"""stackbench's fixed definitions: workloads, metrics, bounds, predictions.

Everything a later issue may cite lives here and nowhere else: the six
workload names with their frozen sizes, the end-to-end metrics with the
bound each may worsen by, and the per-layer metrics with the end-to-end
metric and workload each one is predicted to move.  ``BENCHMARK.json``
at the repository root repeats the part of this file the driver reads;
``run.py --selftest`` fails when the two disagree.

Nothing here imports from ``src/``.
"""

from __future__ import annotations

#: Seconds one run measures when ``--seconds`` is not given
#: (``run_seconds`` in ``BENCHMARK.json``).
RUN_SECONDS = 17

#: Every workload is a *round* of fixed work — set-up, then a fixed op
#: stream on a fresh database — repeated for ``--seconds``.  Sizes were
#: chosen so one round takes 1–3 s on the 2-core reference container
#: (prototype timings in README.md); they are frozen.
WORKLOADS = {
    "adaptive_clustered": {
        "why": (
            "The paper's main experiment: after the cold prefix partial views "
            "answer from ~4% of the pages, so view routing and creation do the "
            "work and the scan kernel little; the column fits every cache."
        ),
        "engine": "AdaptiveDatabase (simulated backend)",
        "pages": 2048,
        "distribution": "sine",
        "reads": 400,
        "selectivity": 0.01,
        "clients": 1,
        "loop": "closed",
    },
    "sharded_scan": {
        "why": (
            "Each 2% range prunes to ~1 of 4 shards and streams its 1024 pages "
            "through batch_scan over real mmap memory; views contribute "
            "little: the bypass workload for view-side changes."
        ),
        "engine": "ShardedDatabase(shards=4), native backend when supported",
        "pages": 4096,
        "shards": 4,
        "distribution": "linear",
        "reads": 200,
        "selectivity": 0.02,
        "clients": 1,
        "loop": "closed",
    },
    "mixed_updates": {
        "why": (
            "Writes beside reads on the core layer (paper 2.4, Fig. 7): batch "
            "view realignment and the maps snapshot dominate, so a read gain "
            "bought with costlier maintenance shows here."
        ),
        "engine": "AdaptiveDatabase (simulated backend)",
        "pages": 1024,
        "distribution": "sine",
        "reads": 100,
        "selectivity": 0.01,
        "hotspot_fraction": 0.2,
        "phases": 5,
        "updates_per_batch": 100,
        "reads_per_batch": 10,
        "clients": 1,
        "loop": "closed",
    },
    "tiered_hotspot": {
        "why": (
            "The column is 4x the hot tier while each hotspot phase fits: the "
            "only workload larger than the program's own cache, so placement "
            "churn and per-access bookkeeping dominate."
        ),
        "engine": "AdaptiveDatabase(tiering=TierConfig(hot_budget=128))",
        "pages": 512,
        "hot_budget": 128,
        "distribution": "sine",
        "reads": 400,
        "selectivity": 0.01,
        "hotspot_fraction": 0.2,
        "phases": 5,
        "clients": 1,
        "loop": "closed",
    },
    "durable_ingest": {
        "why": (
            "The only workload that touches the WAL and the write buffer's "
            "merge path: single-row inserts at fsync=batch, a checkpoint "
            "half-way, then crash-copy recovery with unflushed bytes discarded."
        ),
        "engine": "AdaptiveDatabase(durable_dir=..., fsync='batch')",
        "initial_rows": 8192,
        "inserts": 50_000,
        "inserts_per_read": 250,
        "selectivity": 0.01,
        "fsync": "batch",
        "clients": 1,
        "loop": "closed",
    },
    "served_mixed": {
        "why": (
            "The only workload with wire/JSON, sessions, the request lock, "
            "admission and SQL: one closed-loop TCP session, 3 reads : 1 update, "
            "every 4th read through SQL; the traced run replays it crowded."
        ),
        "engine": "QueryServer on loopback TCP over AdaptiveDatabase",
        "pages": 2048,
        "distribution": "sine",
        "ops_per_session": 136,
        "write_every": 4,
        "sql_every_read": 4,
        "commit_every": 64,
        "selectivity": 0.01,
        "clients": 1,
        "traced_crowd_clients": "min(nproc, 4)",
        "loop": "closed",
    },
}

WORKLOAD_NAMES = tuple(WORKLOADS)

_ALL = WORKLOAD_NAMES
_WRITERS = ("mixed_updates", "durable_ingest", "served_mixed")

#: End-to-end metrics: name -> unit, direction, regression bound (share
#: of the baseline median), and the workloads that report it.  A metric
#: whose ``workloads`` is every workload is also declared in
#: ``BENCHMARK.json`` and gated by the driver; the others are gated by
#: ``run.py compare`` only, because the driver requires every declared
#: metric from every workload.
#:
#: The wall-clock bounds are wider than the issue's table.  The driver
#: accepts a benchmark only if each metric's interquartile spread over
#: ten runs of ten *different seeds* stays inside its bound, so a bound
#: has to cover the seed-to-seed variation of the inputs plus the
#: sandbox's slow spells, not run-to-run noise alone; the spreads
#: measured while building are in README.md ("Steadiness").
END_TO_END = {
    "setup_s": {"unit": "s", "better": "lower", "bound": 0.25, "workloads": _ALL},
    "ops_per_s": {"unit": "ops/s", "better": "higher", "bound": 0.25, "workloads": _ALL},
    "read_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.25, "workloads": _ALL},
    "read_p95_ms": {"unit": "ms", "better": "lower", "bound": 0.25, "workloads": _ALL},
    "sim_ms_per_op": {"unit": "sim_ms", "better": "lower", "bound": 0.25, "workloads": _ALL},
    "peak_rss_mb": {"unit": "MiB", "better": "lower", "bound": 0.15, "workloads": _ALL},
    "write_p50_us": {"unit": "us", "better": "lower", "bound": 0.25, "workloads": _WRITERS},
    "write_p95_us": {"unit": "us", "better": "lower", "bound": 0.25, "workloads": _WRITERS},
    "recover_s": {"unit": "s", "better": "lower", "bound": 0.25, "workloads": ("durable_ingest",)},
    "wal_bytes_per_user_byte": {
        "unit": "ratio", "better": "lower", "bound": 0.01, "workloads": ("durable_ingest",),
    },
    "failed_share": {"unit": "ratio", "better": "lower", "bound": 0.0, "workloads": _ALL},
}

#: The end-to-end metrics the driver gates: reported by every workload
#: and never zero (``failed_share`` is zero at HEAD, and the result
#: line's ``attempted``/``failed`` already carry it).
DRIVER_END_TO_END = tuple(
    name
    for name, spec in END_TO_END.items()
    if spec["workloads"] == _ALL and name != "failed_share"
)

#: Per-layer metrics (from the ``--trace 1`` run; layer = module name):
#: name -> unit, better, and ``moves``: the (end-to-end metric, workload)
#: pairs this metric is predicted to move.  ``count`` marks metrics that
#: are counts made by the program and repeat exactly for one seed on a
#: single-threaded workload.  A metric reads 0 on a workload that does
#: no work in its layer — that is the "no change" half of each
#: prediction: wal.* and server.* are zero outside durable_ingest and
#: served_mixed, tier.* outside tiered_hotspot, shard.* outside
#: sharded_scan.
PER_LAYER = {
    "core.route_us": {
        "unit": "us", "better": "lower",
        "moves": [("read_p50_ms", "adaptive_clustered")],
    },
    "core.scan_views_ms": {
        "unit": "ms", "better": "lower",
        "moves": [("read_p50_ms", "adaptive_clustered"), ("read_p50_ms", "tiered_hotspot")],
    },
    "core.batch_scan_pages_per_s": {
        "unit": "pages/s", "better": "higher",
        "moves": [("ops_per_s", "sharded_scan")],
    },
    "core.create_view_ms": {
        "unit": "ms", "better": "lower",
        "moves": [("read_p95_ms", "adaptive_clustered")],
    },
    "core.view_hit_ratio": {
        "unit": "ratio", "better": "higher", "count": True,
        "moves": [
            ("ops_per_s", "adaptive_clustered"), ("sim_ms_per_op", "adaptive_clustered"),
            ("ops_per_s", "mixed_updates"), ("sim_ms_per_op", "mixed_updates"),
        ],
    },
    "core.view_accept_ratio": {
        "unit": "ratio", "better": "higher", "count": True,
        "moves": [("read_p95_ms", "adaptive_clustered")],
    },
    "core.pages_scanned_per_query": {
        "unit": "count", "better": "lower", "count": True,
        "moves": [("sim_ms_per_op", w) for w in WORKLOAD_NAMES],
    },
    "core.views_live": {
        "unit": "count", "better": "lower", "count": True,
        "moves": [("sim_ms_per_op", w) for w in WORKLOAD_NAMES],
    },
    "core.align_batch_ms": {
        "unit": "ms", "better": "lower",
        "moves": [
            ("ops_per_s", "mixed_updates"), ("read_p95_ms", "mixed_updates"),
            ("read_p95_ms", "served_mixed"),
        ],
    },
    "vm.maps_snapshot_ms": {
        "unit": "ms", "better": "lower", "moves": [("ops_per_s", "mixed_updates")],
    },
    "vm.maps_lines": {
        "unit": "count", "better": "lower", "count": True,
        "moves": [("ops_per_s", "mixed_updates")],
    },
    "substrate.mmap_calls": {
        "unit": "count", "better": "lower", "count": True,
        "moves": [("setup_s", "sharded_scan"), ("read_p95_ms", "adaptive_clustered")],
    },
    "substrate.map_pages_per_s": {
        "unit": "pages/s", "better": "higher",
        "moves": [("setup_s", "sharded_scan"), ("read_p95_ms", "adaptive_clustered")],
    },
    "shard.route_us": {
        "unit": "us", "better": "lower", "moves": [("read_p50_ms", "sharded_scan")],
    },
    "shard.gather_ms": {
        "unit": "ms", "better": "lower",
        "moves": [("read_p50_ms", "sharded_scan"), ("read_p95_ms", "sharded_scan")],
    },
    "shard.shards_touched_per_query": {
        "unit": "count", "better": "lower", "count": True,
        "moves": [("read_p50_ms", "sharded_scan")],
    },
    "shard.slowest_shard_share": {
        "unit": "ratio", "better": "lower", "moves": [("read_p95_ms", "sharded_scan")],
    },
    "tier.hit_ratio": {
        "unit": "ratio", "better": "higher", "count": True,
        "moves": [("read_p50_ms", "tiered_hotspot"), ("sim_ms_per_op", "tiered_hotspot")],
    },
    "tier.promotions": {
        "unit": "count", "better": "lower", "count": True,
        "moves": [("read_p50_ms", "tiered_hotspot"), ("sim_ms_per_op", "tiered_hotspot")],
    },
    "tier.demotions": {
        "unit": "count", "better": "lower", "count": True,
        "moves": [("read_p50_ms", "tiered_hotspot"), ("sim_ms_per_op", "tiered_hotspot")],
    },
    "tier.denials": {
        "unit": "count", "better": "lower", "count": True,
        "moves": [("read_p50_ms", "tiered_hotspot")],
    },
    "tier.record_access_ms": {
        "unit": "ms", "better": "lower", "moves": [("ops_per_s", "tiered_hotspot")],
    },
    "tier.maintenance_ms": {
        "unit": "ms", "better": "lower", "moves": [("ops_per_s", "tiered_hotspot")],
    },
    "tier.armed_overhead_ratio": {
        "unit": "ratio", "better": "lower", "moves": [("read_p50_ms", "tiered_hotspot")],
    },
    "wal.encode_us": {
        "unit": "us", "better": "lower",
        "moves": [("write_p50_us", "durable_ingest"), ("ops_per_s", "durable_ingest")],
    },
    "wal.append_us": {
        "unit": "us", "better": "lower",
        "moves": [("write_p50_us", "durable_ingest"), ("ops_per_s", "durable_ingest")],
    },
    "wal.fsync_ms": {
        "unit": "ms", "better": "lower",
        "moves": [("write_p95_us", "durable_ingest"), ("ops_per_s", "durable_ingest")],
    },
    "wal.fsyncs": {
        "unit": "count", "better": "lower", "count": True,
        "moves": [("ops_per_s", "durable_ingest")],
    },
    "wal.appends": {
        "unit": "count", "better": "lower", "count": True,
        "moves": [("ops_per_s", "durable_ingest")],
    },
    "wal.bytes": {
        "unit": "B", "better": "lower", "count": True,
        "moves": [("wal_bytes_per_user_byte", "durable_ingest")],
    },
    "wal.checkpoint_s": {
        "unit": "s", "better": "lower", "moves": [("write_p95_us", "durable_ingest")],
    },
    "wal.checkpoint_bytes": {
        "unit": "B", "better": "lower", "moves": [("recover_s", "durable_ingest")],
    },
    "wal.replay_records_per_s": {
        "unit": "rec/s", "better": "higher", "moves": [("recover_s", "durable_ingest")],
    },
    "wal.truncated_bytes": {
        "unit": "B", "better": "lower", "moves": [("recover_s", "durable_ingest")],
    },
    "storage.flush_inserts_ms": {
        "unit": "ms", "better": "lower",
        "moves": [("write_p95_us", "durable_ingest"), ("read_p95_ms", "durable_ingest")],
    },
    "storage.merge_batches": {
        "unit": "count", "better": "lower", "count": True,
        "moves": [("write_p95_us", "durable_ingest")],
    },
    "server.wire_codec_us": {
        "unit": "us", "better": "lower",
        "moves": [("read_p50_ms", "served_mixed"), ("write_p50_us", "served_mixed")],
    },
    "server.roundtrip_overhead_ms": {
        "unit": "ms", "better": "lower", "moves": [("read_p50_ms", "served_mixed")],
    },
    "server.session_self_ms": {
        "unit": "ms", "better": "lower", "moves": [("read_p50_ms", "served_mixed")],
    },
    # The crowded replay's two: the gated served_mixed is one session,
    # which never waits for the request lock, so they move nothing gated.
    "server.queue_wait_ms": {"unit": "ms", "better": "lower", "moves": []},
    "server.session_scaling": {"unit": "ratio", "better": "higher", "moves": []},
    "server.shed_count": {
        "unit": "count", "better": "lower", "count": True,
        "moves": [("failed_share", "served_mixed")],
    },
    "sql.parse_us": {
        "unit": "us", "better": "lower", "moves": [("read_p50_ms", "served_mixed")],
    },
    "sql.execute_self_ms": {
        "unit": "ms", "better": "lower", "moves": [("read_p50_ms", "served_mixed")],
    },
    # Quality of the decomposition itself; predicted to move nothing.
    "trace.overhead_share": {"unit": "ratio", "better": "lower", "moves": []},
    "trace.unattributed_share": {"unit": "ratio", "better": "lower", "moves": []},
}
