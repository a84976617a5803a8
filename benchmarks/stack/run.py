"""stackbench: one layered, oracle-checked benchmark for the whole stack.

    python3 benchmarks/stack/run.py [--workload NAME] [--seed N] [--seconds S]
                                    [--trace 0|1] [--repeat N] [--out FILE]
    python3 benchmarks/stack/run.py compare BASE.json NEW.json
    python3 benchmarks/stack/run.py --selftest

Every run of every workload happens in a fresh subprocess
(``worker.py``); this file only spawns them, prints each metric by name
with its unit, and keeps the books.  After each run it prints the
driver's result line — one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — so with one workload and one repeat that
line is the last line of stdout.  README.md has the full story.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats
from spec import (
    DRIVER_END_TO_END,
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOAD_NAMES,
    WORKLOADS,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: A worker that has not finished by then is killed: the driver allows
#: a run 180 s.
WORKER_TIMEOUT_S = 170

EXIT_INCORRECT = 1
EXIT_BROKEN = 2


# -- running -------------------------------------------------------------------


def run_worker(workload: str, seed: int, seconds: float, trace: int, extra=()) -> dict | None:
    """One run in a fresh subprocess; its result, or None if it broke."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"stackbench: {workload} did not finish in {WORKER_TIMEOUT_S}s", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if not lines:
        print(f"stackbench: {workload} exited {done.returncode} with no result", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"stackbench: {workload} printed no result: {lines[-1][:200]}", file=sys.stderr)
        return None


def print_run(result: dict) -> None:
    """Every metric by name with its unit, then the driver's line."""
    detail = result["detail"]
    print(
        f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
        f"rounds={detail['rounds']} attempted={result['attempted']} "
        f"failed={result['failed']} correct={result['correct']}"
    )
    for name, metric in result["metrics"].items():
        note = ""
        if name in ("read_p50_ms", "read_p95_ms"):
            p = 50 if name == "read_p50_ms" else detail["read_tail_percentile"]
            note = f"  (p{p:g} of n={detail['reads_per_round']} a round)"
        elif name in ("write_p50_us", "write_p95_us"):
            p = 50 if name == "write_p50_us" else detail["write_tail_percentile"]
            note = f"  (p{p:g} of n={detail['writes_per_round']} a round)"
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}{note}")
    for error in detail["errors"]:
        print(f"  ! {error.strip().splitlines()[-1]}")
    declared = PER_LAYER if result["trace"] else DRIVER_END_TO_END
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: result["metrics"][name] for name in declared},
            }
        )
    )
    sys.stdout.flush()


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def summarize_runs(runs: dict[str, list[dict]]) -> dict:
    """Median, quartiles and sample count per metric per workload."""
    summary: dict = {}
    for workload, results in runs.items():
        summary[workload] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            summary[workload][name] = {
                **stats.summarize(values),
                "unit": results[0]["metrics"][name]["unit"],
            }
    return summary


def run_all(args) -> int:
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for workload in workloads:
        for _ in range(args.repeat):
            result = run_worker(workload, args.seed, args.seconds, args.trace)
            if result is None:
                return EXIT_BROKEN
            print_run(result)
            runs[workload].append(result)
    if args.out:
        first = runs[workloads[0]][0]
        payload = {
            "schema": 1,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": {**first["env"], "commit": git_commit()},
            "workloads": {w: WORKLOADS[w] for w in workloads},
            "summary": summarize_runs(runs),
            "runs": runs,
        }
        Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    ok = all(r["correct"] for results in runs.values() for r in results)
    return 0 if ok else EXIT_INCORRECT


# -- comparing -------------------------------------------------------------------


def compare(base_path: str, new_path: str) -> int:
    """One row per (workload, metric); non-zero on any regression."""
    base = json.loads(Path(base_path).read_text())["runs"]
    new = json.loads(Path(new_path).read_text())["runs"]
    regressions = 0
    print(
        f"{'workload':20s} {'metric':30s} {'base median':>14s} {'new median':>14s} "
        f"{'worse by':>9s} {'bound':>6s}  verdict"
    )
    for workload in WORKLOAD_NAMES:
        if workload not in base or workload not in new:
            continue
        for name in base[workload][0]["metrics"]:
            if name not in new[workload][0]["metrics"]:
                continue
            old_values = [r["metrics"][name]["value"] for r in base[workload]]
            new_values = [r["metrics"][name]["value"] for r in new[workload]]
            spec = END_TO_END.get(name) or PER_LAYER[name]
            old_median = stats.summarize(old_values)["median"]
            new_median = stats.summarize(new_values)["median"]
            change = stats.worse_by(old_median, new_median, spec["better"])
            if name in END_TO_END:
                bound = spec["bound"]
                verdict = stats.verdict(old_values, new_values, spec["better"], bound)
                regressions += verdict == "regression"
                bound_text = f"{bound:.0%}"
            else:
                verdict, bound_text = "-", "-"  # per-layer metrics have no bound
            print(
                f"{workload:20s} {name:30s} {old_median:>14.6g} {new_median:>14.6g} "
                f"{change:>+9.1%} {bound_text:>6s}  {verdict}"
            )
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


# -- self test -------------------------------------------------------------------


def selftest() -> int:
    """The benchmark's own arithmetic, checked on synthetic numbers."""
    import trace as tracing

    failures: list[str] = []

    def check(label: str, got, want) -> None:
        if got != want:
            failures.append(f"{label}: got {got!r}, want {want!r}")

    # Percentile selection: the highest with >= 10 samples beyond it.
    for n, cap, want in (
        (10_000, 100, 99.9), (1000, 100, 99.0), (1000, 95, 95.0), (200, 95, 95.0),
        (199, 95, 90.0), (100, 95, 90.0), (40, 95, 75.0), (15, 95, 50.0),
    ):
        check(f"supported_percentile({n}, {cap})", stats.supported_percentile(n, cap), want)
    check("percentile p50", stats.percentile([4.0, 1.0, 3.0, 2.0], 50.0), 2.5)
    check("percentile p100", stats.percentile([4.0, 1.0, 3.0, 2.0], 100.0), 4.0)

    # Span self time: duration minus the *union* of the children's cover.
    spans = [
        (0, "op.read", 0, 100, tracing.NO_PARENT, "r1", None),
        (1, "a", 10, 40, 0, None, None),
        (2, "a.leaf", 15, 20, 1, None, None),
        (3, "b", 30, 60, 0, None, None),  # overlaps a: another thread
        (4, "server.session", 70, 90, tracing.NO_PARENT, "r1", None),  # adopted by r1
        (5, "stray", 95, 99, tracing.NO_PARENT, None, None),
    ]
    own = tracing.self_times(tracing.adopt_by_request(spans))
    check("self time", own, {0: 30, 1: 25, 2: 5, 3: 30, 4: 20, 5: 4})
    check("covered clips", tracing.covered(0, 10, [(-5, 3), (2, 4), (8, 50)]), 6)

    # compare: bound, spread and separation.
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    noisy = [100.0, 140.0, 70.0, 120.0, 85.0]
    for label, base, new, better, bound, want in (
        ("same", steady, steady, "lower", 0.10, "unchanged"),
        ("worse", steady, [v * 1.2 for v in steady], "lower", 0.10, "regression"),
        ("worse, higher is better", steady, [v * 0.8 for v in steady], "higher", 0.10, "regression"),
        ("better", steady, [v * 0.8 for v in steady], "lower", 0.10, "better"),
        ("noisy", steady, noisy, "lower", 0.10, "unresolved"),
        ("noisy but separated", noisy, [v * 0.4 for v in noisy], "lower", 0.10, "better"),
        ("noisy but all worse", noisy, [v * 3.0 for v in noisy], "lower", 0.10, "regression"),
        ("one run each", [100.0], [101.0], "lower", 0.10, "unresolved"),
        ("failures appear", [0.0] * 5, [0.0, 0.0, 0.01, 0.0, 0.02], "lower", 0.0, "regression"),
        ("no failures", [0.0] * 5, [0.0] * 5, "lower", 0.0, "unchanged"),
    ):
        check(f"verdict {label}", stats.verdict(base, new, better, bound), want)

    # BENCHMARK.json repeats what spec.py fixes.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    check("BENCHMARK.json run_seconds", declared["run_seconds"], RUN_SECONDS)
    check(
        "BENCHMARK.json workloads",
        [(w["name"], w["why"]) for w in declared["workloads"]],
        [(name, WORKLOADS[name]["why"]) for name in WORKLOAD_NAMES],
    )
    check(
        "BENCHMARK.json end_to_end",
        [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]],
        [
            (n, END_TO_END[n]["unit"], END_TO_END[n]["better"], END_TO_END[n]["bound"])
            for n in DRIVER_END_TO_END
        ],
    )
    check(
        "BENCHMARK.json per_layer",
        [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]],
        [(n, PER_LAYER[n]["unit"], PER_LAYER[n]["better"]) for n in PER_LAYER],
    )

    # The rest needs the program: input determinism, and an oracle that bites.
    if (ROOT / "src" / "repro").is_dir():
        sys.path.insert(0, str(ROOT / "src"))
        from inputs import fingerprint, generate

        for workload in WORKLOAD_NAMES:
            one = fingerprint(generate(workload, 7))
            check(f"inputs repeat ({workload})", fingerprint(generate(workload, 7)), one)
            if fingerprint(generate(workload, 8)) == one:
                failures.append(f"inputs ignore the seed ({workload})")
        for workload in ("mixed_updates", "served_mixed"):
            result = run_worker(workload, 0, 0, 0, extra=["--corrupt-oracle"])
            if result is None or result["correct"] or result["failed"] == 0:
                failures.append(f"a corrupted oracle went unnoticed ({workload})")
    else:
        print("selftest: src/ is not here; skipped input determinism and the corrupted oracle")

    for failure in failures:
        print(f"selftest FAILED: {failure}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare BASE.json NEW.json", file=sys.stderr)
            return EXIT_BROKEN
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all six")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long one run repeats its round (0: one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, which reports the per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--out", help="write every run and its summary to this JSON file")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.seed < 0 or args.repeat < 1 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0 and --repeat >= 1")
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
