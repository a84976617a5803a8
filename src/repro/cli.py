"""Command-line interface: reproduce any paper experiment.

Usage::

    python -m repro fig4                    # one experiment
    python -m repro all --pages 2048        # everything, custom scale
    python -m repro table1 --queries 100
    python -m repro ablations
    python -m repro fig7 --out results.txt

Each command runs the experiment and prints the same paper-shaped
report the benchmarks produce.
"""

from __future__ import annotations

import argparse
import sys
import time

from .bench import experiments
from .bench import render
from .bench.ablations import (
    run_drift_ablation,
    run_max_views_ablation,
    run_routing_ablation,
    run_tolerance_ablation,
)
from .bench.harness import scaled_pages


def _run_fig2(args: argparse.Namespace) -> str:
    return render.render_fig2(experiments.run_fig2(num_pages=args.pages))


def _run_fig3(args: argparse.Namespace) -> str:
    return render.render_fig3(experiments.run_fig3(num_pages=args.pages))


def _run_fig4(args: argparse.Namespace) -> str:
    return render.render_fig4(
        experiments.run_fig4(num_pages=args.pages, num_queries=args.queries)
    )


def _run_fig5(args: argparse.Namespace) -> str:
    return render.render_fig5(
        experiments.run_fig5(num_pages=args.pages, num_queries=args.queries)
    )


def _run_table1(args: argparse.Namespace) -> str:
    return render.render_table1(
        experiments.run_table1(num_pages=args.pages, num_queries=args.queries)
    )


def _run_fig6(args: argparse.Namespace) -> str:
    return render.render_fig6(experiments.run_fig6(num_pages=args.pages))


def _run_fig7(args: argparse.Namespace) -> str:
    return render.render_fig7(experiments.run_fig7(num_pages=args.pages))


def _run_ablations(args: argparse.Namespace) -> str:
    parts = [
        render.render_ablation(
            run_tolerance_ablation(num_pages=args.pages),
            title="Ablation — discard/replacement tolerances d = r",
        ),
        render.render_ablation(
            run_max_views_ablation(num_pages=args.pages),
            title="Ablation — maximum number of partial views",
        ),
        render.render_ablation(
            run_routing_ablation(num_pages=args.pages),
            title="Ablation — routing modes (single / multi / multi_cost)",
        ),
        render.render_ablation(
            run_drift_ablation(num_pages=args.pages),
            title="Ablation — view limits under workload drift",
        ),
    ]
    return "\n\n".join(parts)


def _run_analytic(args: argparse.Namespace) -> str:
    from .bench.analytic import render_paper_scale

    return render_paper_scale()


def _run_all(args: argparse.Namespace) -> str:
    suite = experiments.run_all(num_pages=args.pages, num_queries=args.queries)
    return "\n\n".join(
        [
            render.render_fig2(suite.fig2),
            render.render_fig3(suite.fig3),
            render.render_fig4(suite.fig4),
            render.render_fig5(suite.fig5),
            render.render_table1(suite.table1),
            render.render_fig6(suite.fig6),
            render.render_fig7(suite.fig7),
        ]
    )


_COMMANDS = {
    "fig2": (_run_fig2, "Figure 2 — data distributions"),
    "fig3": (_run_fig3, "Figure 3 — explicit vs virtual views"),
    "fig4": (_run_fig4, "Figure 4 — adaptive single-view mode"),
    "fig5": (_run_fig5, "Figure 5 — adaptive multi-view mode"),
    "table1": (_run_table1, "Table 1 — accumulated response times"),
    "fig6": (_run_fig6, "Figure 6 — view creation optimizations"),
    "fig7": (_run_fig7, "Figure 7 — update performance"),
    "ablations": (_run_ablations, "tolerance / view-limit / routing / drift sweeps"),
    "analytic": (_run_analytic, "closed-form paper-scale predictions"),
    "all": (_run_all, "every figure and table"),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduce experiments from 'Towards Adaptive Storage Views "
            "in Virtual Memory' (CIDR 2023)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument(
            "--pages",
            type=int,
            default=None,
            help=f"column size in pages (default: {scaled_pages()})",
        )
        sub.add_argument(
            "--queries",
            type=int,
            default=250,
            help="queries per sequence where applicable (default: 250)",
        )
        sub.add_argument(
            "--out",
            type=str,
            default=None,
            help="also write the report to this file",
        )

    export = subparsers.add_parser(
        "export", help="run every experiment and export the results as JSON"
    )
    export.add_argument("directory", help="output directory for the JSON files")
    export.add_argument("--pages", type=int, default=None)
    export.add_argument("--queries", type=int, default=250)

    from .obs.capture import EXPERIMENTS

    for name, help_text in (
        ("trace", "run an observed workload and print its trace span trees"),
        ("metrics", "run an observed workload and print its metrics dump"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument(
            "experiment",
            choices=EXPERIMENTS,
            help="data distribution to run the observed workload on",
        )
        sub.add_argument("--pages", type=int, default=None)
        sub.add_argument("--queries", type=int, default=32)
        if name == "trace":
            sub.add_argument(
                "--roots",
                type=int,
                default=4,
                help="number of span trees to print, newest last (default: 4)",
            )
            sub.add_argument(
                "--jsonl",
                type=str,
                default=None,
                help="also write every captured span to this JSONL file",
            )
            sub.add_argument(
                "--chrome",
                type=str,
                default=None,
                help=(
                    "also write the capture as a Chrome/Perfetto "
                    "trace_event JSON file (load via chrome://tracing "
                    "or ui.perfetto.dev)"
                ),
            )
            sub.add_argument(
                "--folded",
                type=str,
                default=None,
                help=(
                    "also write folded stacks (flamegraph.pl / speedscope "
                    "input) weighted by simulated self-time"
                ),
            )
        else:
            sub.add_argument(
                "--json",
                action="store_true",
                help="emit JSON instead of the Prometheus text format",
            )

    from .server.server import DEFAULT_HOST, DEFAULT_PORT
    from .wal.config import FSYNC_POLICIES

    serve = subparsers.add_parser(
        "serve",
        help=(
            "run the multi-session query server (newline-delimited JSON "
            "over TCP; connect with python -m repro.sql --connect)"
        ),
    )
    serve.add_argument(
        "--host",
        default=DEFAULT_HOST,
        help=f"bind address (default: {DEFAULT_HOST})",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"bind port (default: {DEFAULT_PORT}; 0 = ephemeral)",
    )
    serve.add_argument(
        "--db",
        default="default",
        help="name of the served database (default: 'default')",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard the served database across N substrates (default: 1)",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        help="admission cap on concurrent sessions (default: unbounded)",
    )
    serve.add_argument(
        "--budget",
        type=int,
        default=None,
        help=(
            "maps-line budget for the mapping governor; arms the "
            "resilience layer so admission control degrades/sheds "
            "under pressure"
        ),
    )
    serve.add_argument(
        "--observe",
        action="store_true",
        help="attach an observer (session metrics, admit/shed counters)",
    )
    serve.add_argument(
        "--durable",
        metavar="DIR",
        default=None,
        help=(
            "serve a durable database journaling to DIR (recovered "
            "first when the directory holds a log or checkpoint); "
            "graceful shutdown flushes staged rows and the WAL"
        ),
    )
    serve.add_argument(
        "--fsync",
        choices=FSYNC_POLICIES,
        default="batch",
        help="WAL fsync policy for --durable (default: batch)",
    )

    subparsers.add_parser(
        "backends",
        help="report substrate backend availability and active toggles",
    )

    from .substrate import BACKENDS as _BACKENDS

    recover = subparsers.add_parser(
        "recover",
        help=(
            "crash-consistently recover a durable directory (checkpoint "
            "+ WAL tail replay) and report what was rebuilt"
        ),
    )
    recover.add_argument(
        "directory", help="durable directory (WAL segments + checkpoint)"
    )
    recover.add_argument(
        "--backend",
        choices=sorted(_BACKENDS),
        default="simulated",
        help="substrate backend for the recovered database",
    )
    recover.add_argument(
        "--checkpoint",
        action="store_true",
        help="take a fresh checkpoint after recovery (compacts the log)",
    )

    from .audit.session import FAULT_LEVELS
    from .substrate import BACKENDS

    from .obs.calibration import DEFAULT_CALIBRATION_PAGES, DEFAULT_JSON_PATH

    calibrate = subparsers.add_parser(
        "calibrate",
        help=(
            "pair simulated cost against wall-clock time per span kind "
            "and report drift (writes BENCH_calibration.json)"
        ),
    )
    calibrate.add_argument(
        "--pages",
        type=int,
        default=DEFAULT_CALIBRATION_PAGES,
        help=f"column size in pages (default: {DEFAULT_CALIBRATION_PAGES})",
    )
    calibrate.add_argument(
        "--queries",
        type=int,
        default=32,
        help="queries in the calibration workload (default: 32)",
    )
    calibrate.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="native",
        help=(
            "substrate backend to calibrate against (default: native — "
            "the simulated backend has no wall clock to pair with)"
        ),
    )
    calibrate.add_argument(
        "--experiment",
        default="sine",
        help="data distribution of the calibration workload (default: sine)",
    )
    calibrate.add_argument(
        "--seed",
        type=int,
        default=None,
        help="session seed (default: REPRO_SEED or 0)",
    )
    calibrate.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help=(
            "relative drift tolerated before a finding fires "
            "(default: 0.5 — measured/predicted outside [0.67, 1.5]x)"
        ),
    )
    calibrate.add_argument(
        "--json",
        type=str,
        default=DEFAULT_JSON_PATH,
        help=f"output JSON path (default: {DEFAULT_JSON_PATH})",
    )
    calibrate.add_argument(
        "--chrome",
        type=str,
        default=None,
        help="also write the session trace as Chrome trace_event JSON",
    )
    calibrate.add_argument(
        "--folded",
        type=str,
        default=None,
        help="also write the session trace as folded flamegraph stacks",
    )

    audit = subparsers.add_parser(
        "audit",
        help=(
            "run an audited session and verify the structural invariants "
            "(exit 1 on any violation)"
        ),
    )
    audit.add_argument(
        "--pages",
        type=int,
        default=64,
        help="column size in pages (default: 64)",
    )
    audit.add_argument(
        "--queries",
        type=int,
        default=24,
        help="queries in the audited session (default: 24)",
    )
    audit.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="simulated",
        help="substrate backend to audit (default: simulated)",
    )
    audit.add_argument(
        "--faults",
        choices=FAULT_LEVELS,
        default="none",
        help="injected fault intensity (default: none)",
    )
    audit.add_argument(
        "--seed",
        type=int,
        default=None,
        help="session seed (default: REPRO_SEED or 0)",
    )
    audit.add_argument(
        "--repair",
        action="store_true",
        help=(
            "arm the resilience layer and repair quarantined views at "
            "the end (exit 0 only if the repair converges)"
        ),
    )

    resilience = subparsers.add_parser(
        "resilience",
        help=(
            "run a fault-heavy session with the self-healing layer armed "
            "and print its governor/health/retry counters"
        ),
    )
    resilience.add_argument(
        "--pages",
        type=int,
        default=64,
        help="column size in pages (default: 64)",
    )
    resilience.add_argument(
        "--queries",
        type=int,
        default=24,
        help="queries in the session (default: 24)",
    )
    resilience.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="simulated",
        help="substrate backend (default: simulated)",
    )
    resilience.add_argument(
        "--faults",
        choices=FAULT_LEVELS,
        default="transient",
        help="injected fault intensity (default: transient)",
    )
    resilience.add_argument(
        "--seed",
        type=int,
        default=None,
        help="session seed (default: REPRO_SEED or 0)",
    )
    resilience.add_argument(
        "--budget",
        type=int,
        default=None,
        help="maps-line budget enforced by the mapping governor",
    )

    regress = subparsers.add_parser(
        "regress", help="compare two exported result directories"
    )
    regress.add_argument("baseline", help="baseline export directory")
    regress.add_argument("current", help="current export directory")
    regress.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="relative tolerance before a metric counts as regressed",
    )
    return parser


def _run_export(args: argparse.Namespace) -> int:
    from .bench.export import export_suite

    suite = experiments.run_all(num_pages=args.pages, num_queries=args.queries)
    written = export_suite(suite, args.directory)
    for name, path in sorted(written.items()):
        print(f"  {name}: {path}")
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    from .obs.capture import run_observed_workload
    from .obs.exporters import render_trace_tree, trace_to_jsonl

    captured = run_observed_workload(
        args.experiment, num_pages=args.pages, num_queries=args.queries
    )
    print(render_trace_tree(captured.observer.tracer, max_roots=args.roots))
    slowest = max(captured.run.stats.queries, key=lambda q: q.sim_ns)
    print(f"\nslowest query: {slowest.describe()}")
    if captured.maintenance is not None:
        print(f"maintenance:   {captured.maintenance.describe()}")
    if args.jsonl:
        with open(args.jsonl, "w") as f:
            f.write(trace_to_jsonl(captured.observer.tracer))
        print(f"[all spans written to {args.jsonl}]")
    _write_portable_traces(captured.observer.tracer, args)
    return 0


def _write_portable_traces(tracer, args: argparse.Namespace) -> None:
    """Honour the shared ``--chrome`` / ``--folded`` export flags."""
    from .obs.exporters import trace_to_chrome, trace_to_folded

    if getattr(args, "chrome", None):
        with open(args.chrome, "w") as f:
            f.write(trace_to_chrome(tracer))
        print(f"[chrome trace written to {args.chrome}]")
    if getattr(args, "folded", None):
        with open(args.folded, "w") as f:
            f.write(trace_to_folded(tracer))
        print(f"[folded stacks written to {args.folded}]")


def _run_metrics(args: argparse.Namespace) -> int:
    from .obs.capture import run_observed_workload
    from .obs.exporters import render_metrics_json, render_prometheus

    captured = run_observed_workload(
        args.experiment, num_pages=args.pages, num_queries=args.queries
    )
    if args.json:
        print(render_metrics_json(captured.observer.metrics))
    else:
        print(render_prometheus(captured.observer.metrics))
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import signal

    from .resilience.policy import ResilienceConfig
    from .server.admission import AdmissionPolicy
    from .server.manager import DatabaseManager
    from .server.server import QueryServer

    manager = DatabaseManager()
    db_kwargs: dict = {"observe": args.observe}
    if args.budget is not None:
        db_kwargs["resilience"] = ResilienceConfig(mapping_budget=args.budget)
    policy = AdmissionPolicy(max_sessions=args.max_sessions)
    if args.durable is not None:
        if args.shards != 1:
            print("error: --durable does not combine with --shards")
            return 2
        from .wal import DurabilityConfig, recover_database

        db, report = recover_database(
            args.durable,
            durability=DurabilityConfig(fsync=args.fsync),
            **db_kwargs,
        )
        print(report.describe())
        manager.add_database(args.db, db, policy=policy)
    else:
        manager.create_database(
            args.db, shards=args.shards, policy=policy, **db_kwargs
        )
    server = QueryServer(manager=manager, host=args.host, port=args.port)
    host, port = server.start()
    print(f"serving database {args.db!r} on {host}:{port}")
    print("connect with: python -m repro.sql --connect "
          f"{host}:{port}  (ctrl-c stops)")

    def _sigterm(signum, frame):  # graceful drain-and-flush on SIGTERM
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _sigterm)
    try:
        server.join()  # serve until interrupted
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.stop()
        manager.close()
    return 0


def _run_recover(args: argparse.Namespace) -> int:
    from .wal import recover_database

    db, report = recover_database(args.directory, backend=args.backend)
    try:
        print(report.describe())
        for table in db.catalog.tables():
            staged = len(db._write_buffers.get(table.name) or ())
            line = (
                f"  table {table.name!r}: {table.num_live_rows} live rows "
                f"({table.num_rows} physical"
            )
            line += f", {staged} staged)" if staged else ")"
            print(line)
        status = db.wal_status()
        print(
            f"  wal: lsn {status['lsn']}, {status['segments']} segment(s), "
            f"{status['total_bytes']} bytes"
        )
        if args.checkpoint:
            info = db.checkpoint()
            print(
                f"  checkpoint taken at lsn {info['checkpoint_lsn']} "
                f"({info['path']})"
            )
    finally:
        db.close()
    return 0


def render_backends() -> str:
    """One diagnostic block: backend availability and active toggles."""
    import os

    from .native import is_supported
    from .native.platform import IS_LINUX, libc
    from .vm.constants import PAGE_SIZE

    lines = ["substrate backends", "=" * 40]
    lines.append("simulated : available (default; headline numbers)")

    native_ok = is_supported()
    state = "available" if native_ok else "unavailable"
    lines.append(f"native    : {state} (mechanism validation + wall-clock)")
    lines.append(f"  linux mmap ABI     : {'yes' if IS_LINUX else 'no'}")
    lines.append(f"  libc mmap bindings : {'yes' if libc() is not None else 'no'}")

    try:
        hw_page = os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):  # pragma: no cover - exotic libc
        hw_page = None
    match = "matches" if hw_page == PAGE_SIZE else "MISMATCH"
    lines.append(
        f"  hardware page size : {hw_page} ({match} simulated {PAGE_SIZE})"
    )

    if hasattr(os, "memfd_create"):
        try:
            fd = os.memfd_create("repro-backend-probe")
            os.close(fd)
            file_source = "memfd_create"
        except OSError:
            file_source = (
                "/dev/shm fallback" if os.path.isdir("/dev/shm") else "none"
            )
    else:
        file_source = "/dev/shm fallback" if os.path.isdir("/dev/shm") else "none"
    lines.append(f"  main-memory files  : {file_source}")

    lines.append("")
    lines.append("session toggles")
    lines.append("-" * 40)
    lines.append(
        "observe    : per-database opt-in (AdaptiveDatabase(observe=True))"
    )
    return "\n".join(lines)


def _run_backends(args: argparse.Namespace) -> int:
    print(render_backends())
    return 0


def _run_calibrate(args: argparse.Namespace) -> int:
    from .obs.calibration import run_calibration_session, write_calibration_json

    run = run_calibration_session(
        num_pages=args.pages,
        num_queries=args.queries,
        backend=args.backend,
        experiment=args.experiment,
        seed=args.seed,
        threshold=args.threshold,
    )
    print(run.report.render())
    write_calibration_json(run.report.to_payload(), args.json)
    print(f"\n[calibration written to {args.json}]")
    if args.backend != "native":
        print(
            "[note: only the native backend carries wall-clock readings "
            "— this report has nothing to pair]"
        )
    _write_portable_traces(run.observed.observer.tracer, args)
    return 0


def _run_audit(args: argparse.Namespace) -> int:
    from .audit.session import run_audited_session

    result = run_audited_session(
        num_pages=args.pages,
        num_queries=args.queries,
        backend=args.backend,
        faults=args.faults,
        seed=args.seed,
        repair=args.repair,
    )
    print(result.render())
    return 0 if result.ok else 1


def _run_resilience(args: argparse.Namespace) -> int:
    from .audit.session import run_audited_session
    from .resilience.policy import ResilienceConfig
    from .seeds import resolve_seed

    result = run_audited_session(
        num_pages=args.pages,
        num_queries=args.queries,
        backend=args.backend,
        faults=args.faults,
        seed=args.seed,
        resilience=ResilienceConfig(
            mapping_budget=args.budget, seed=resolve_seed(args.seed)
        ),
        repair=True,
    )
    print(result.render())
    return 0 if result.ok else 1


def _run_regress(args: argparse.Namespace) -> int:
    from .bench.regress import compare_suites

    report = compare_suites(args.baseline, args.current, args.tolerance)
    print(report.render())
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "backends":
        return _run_backends(args)
    if args.command == "export":
        return _run_export(args)
    if args.command == "regress":
        return _run_regress(args)
    if args.command == "audit":
        return _run_audit(args)
    if args.command == "resilience":
        return _run_resilience(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "recover":
        return _run_recover(args)
    if args.command == "calibrate":
        return _run_calibrate(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "metrics":
        return _run_metrics(args)
    runner, _ = _COMMANDS[args.command]
    started = time.time()
    report = runner(args)
    elapsed = time.time() - started
    print(report)
    print(f"\n[{args.command} finished in {elapsed:.1f} s wall time]")
    if args.out:
        with open(args.out, "w") as f:
            f.write(report + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
