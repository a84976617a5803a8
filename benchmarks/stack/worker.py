"""One workload, one run, in this process: what ``run.py`` spawns.

Generates the inputs from the seed, warms the process up, repeats the
workload's round for ``--seconds``, and prints one JSON object on the
last line of stdout.  ``--trace 0`` reports the end-to-end metrics and
imports nothing from ``trace.py``; ``--trace 1`` alternates untraced and
traced rounds of the same inputs and reports the per-layer metrics, with
the difference between the two as tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import mean, median

import stats
from spec import END_TO_END, PER_LAYER, WORKLOADS
from speed import Speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: Exit code when an op failed or an answer differed from the oracle's.
EXIT_INCORRECT = 1

#: Exit code when the program under test is not there to be measured.
EXIT_NO_PROGRAM = 2


def _import_program() -> None:
    if not (SRC / "repro").is_dir():
        print(f"stackbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    """Where the numbers were taken; written with every result."""
    import numpy

    from repro import native

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "native_backend": bool(native.is_supported()),
    }


def _rounds_until(seconds: float, one_round) -> Speed:
    """Call ``one_round()`` for ``seconds``: at least once, and again
    while a round as long as the longest so far would still end inside
    them.  The machine's speed is measured around every round."""
    speed = Speed()
    started = time.perf_counter()
    longest = 0.0
    while True:
        gc.collect()
        speed.measure()
        before = time.perf_counter()
        one_round()
        now = time.perf_counter()
        longest = max(longest, now - before)
        if now - started + longest > seconds:
            speed.measure()
            return speed


def _tail(samples: int) -> float:
    """The percentile ``*_p95_*`` metrics report: p95 when a round has
    the samples for it, else the highest it does have them for."""
    return stats.supported_percentile(samples, cap=95.0)


def _floors(rounds, attribute: str) -> list[int]:
    """Each op's least disturbed latency over the rounds, in stream order.

    Every round replays one op stream on a fresh database from one
    thread, so the i-th op does the same work in each of them, and what
    differs between its samples is what else the machine was doing.
    """
    return [min(samples) for samples in zip(*(getattr(r, attribute) for r in rounds))]


def _busy_s(rounds) -> float:
    """Seconds the op stream takes when every op takes its floor."""
    return sum(sum(_floors(rounds, a)) for a in ("read_ns", "write_ns", "other_ns")) / 1e9


def _wall_clock_values(rounds) -> dict:
    """The wall-clock metrics, from every op's floor over the rounds."""
    reads, writes = _floors(rounds, "read_ns"), _floors(rounds, "write_ns")
    values = {
        "ops_per_s": rounds[0].ops / _busy_s(rounds),
        "read_p50_ms": stats.percentile(reads, 50.0) / 1e6,
        "read_p95_ms": stats.percentile(reads, _tail(len(reads))) / 1e6,
    }
    if writes:
        values["write_p50_us"] = stats.percentile(writes, 50.0) / 1e3
        values["write_p95_us"] = stats.percentile(writes, _tail(len(writes))) / 1e3
    return values


def _as_experienced(rounds) -> dict:
    """The same metrics with nothing filtered: the median round."""
    per_round = [_wall_clock_values([r]) for r in rounds]
    values = {name: median(v[name] for v in per_round) for name in per_round[0]}
    values["ops_per_s"] = median(r.ops / r.wall_s for r in rounds)
    return values


def _at_reference_speed(values: dict, slowdown: float) -> dict:
    """Wall-clock values as the reference container would have read them."""
    return {
        name: value * slowdown if name == "ops_per_s" else value / slowdown
        for name, value in values.items()
    }


def end_to_end(workload: str, rounds, speed: Speed) -> tuple[dict, dict]:
    """The run's end-to-end metrics and how they were obtained.

    Rounds do identical work op for op, so they differ only by what else
    the machine was doing, and that only ever slows an op down.  The
    sandbox slows by 1.3-1.6x for seconds at a time, several times a
    minute (README.md, "Steadiness"): a median over rounds follows those
    phases, and even the best whole round usually holds part of one.
    Each op's latency is therefore its **floor**, the least any round
    measured for it — the rule ``timeit`` recommends, op by op — and the
    latency percentiles and the throughput are those of the floors.
    ``setup_s`` is the median over all set-ups.  A phase longer than the
    run is taken out by ``speed.py``: the wall-clock values are divided by
    the run's slowdown.  What was measured before that, and what a caller
    experienced, phases included, are kept in the detail.
    """
    reads, writes = len(rounds[0].read_ns), len(rounds[0].write_ns)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    sim = [r.sim_ns / r.ops / 1e6 for r in rounds]
    extra = rounds[0].extra
    measured = {
        **_wall_clock_values(rounds),
        "setup_s": median(s for r in rounds for s in r.setup_s),
    }
    if "recover_s" in extra:  # once a run, by the first round's durability check
        measured["recover_s"] = extra["recover_s"]
    values = {
        **_at_reference_speed(measured, speed.slowdown()),
        "sim_ms_per_op": median(sim),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_share": failed / attempted,
        "wal_bytes_per_user_byte": extra.get("wal_bytes_per_user_byte"),
    }
    metrics = {
        name: {"value": values[name], "unit": END_TO_END[name]["unit"]}
        for name in END_TO_END
        if workload in END_TO_END[name]["workloads"]
    }
    detail = {
        "rounds": len(rounds),
        "reads_per_round": reads,
        "writes_per_round": writes,
        "read_tail_percentile": _tail(reads),
        "write_tail_percentile": _tail(writes) if writes else None,
        "ops_per_round": rounds[0].ops,
        "slowdown": speed.slowdown(),
        "speed_kernels_ms": {"bytecode": speed.bytecode_ms, "vector": speed.vector_ms},
        "measured": measured,
        "as_experienced": _as_experienced(rounds),
        # Same inputs every round: simulated cost and answers must not move.
        "sim_repeats_across_rounds": len(set(sim)) == 1,
        "answers_repeat_across_rounds": all(r.answers == rounds[0].answers for r in rounds),
        "errors": [e for r in rounds for e in r.errors][:5],
    }
    return metrics, detail


def _round_functions(workload: str):
    """(a run's first round, its later rounds)."""
    from workloads import LATER_ROUNDS, WORKLOAD_CODE

    first = WORKLOAD_CODE[workload][1]
    return first, LATER_ROUNDS.get(workload, first)


def run_untraced(workload: str, inp: dict, want, seconds: float) -> dict:
    first, later = _round_functions(workload)
    rounds = []
    speed = _rounds_until(
        seconds, lambda: rounds.append((later if rounds else first)(inp, want))
    )
    metrics, detail = end_to_end(workload, rounds, speed)
    failed = sum(r.failed for r in rounds)
    return {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }


def _mean_read_ms(round_) -> float:
    return mean(round_.read_ns) / 1e6


def _twins(workload: str, inp: dict, want) -> dict:
    """Untraced rounds of the same stream under one changed knob, which
    some per-layer metrics are a ratio or a difference against."""
    from workloads import expect_served, served_mixed, sessions_for_host, tiered_hotspot

    if workload == "tiered_hotspot":
        pages = WORKLOADS[workload]["pages"]
        return {
            "armed": tiered_hotspot(inp, want, hot_budget=pages),
            "plain": tiered_hotspot(inp, want, hot_budget=None),
        }
    if workload == "served_mixed":
        crowd = sessions_for_host()
        return {
            "crowd": served_mixed(inp, expect_served(inp, crowd), sessions=crowd),
            "local": served_mixed(inp, want, wire=False),
        }
    return {}


def _comparisons(twins: dict, reference) -> dict:
    """The per-layer metrics the twins are for; ``reference`` are the
    run's untraced rounds of the workload as it is."""
    if "armed" in twins:
        return {"tier.armed_overhead_ratio": twins["armed"].wall_s / twins["plain"].wall_s}
    if "crowd" in twins:
        crowd, local = twins["crowd"], twins["local"]
        alone_ms = median(_mean_read_ms(r) for r in reference)
        alone_rate = median(r.ops / r.wall_s for r in reference)
        return {
            "server.queue_wait_ms": _mean_read_ms(crowd) - alone_ms,
            "server.session_scaling": crowd.ops / crowd.wall_s / alone_rate,
            "server.roundtrip_overhead_ms": alone_ms - _mean_read_ms(local),
        }
    return {}


def _from_status(round_) -> dict:
    """Per-layer counts read from public status surfaces at round end."""
    counts, extra = round_.counts, round_.extra
    return {
        "core.pages_scanned_per_query": counts["pages_scanned"] / max(len(round_.read_ns), 1),
        "core.views_live": counts["views_live"],
        "substrate.mmap_calls": counts["mmap_calls"],
        "tier.hit_ratio": counts.get("tier_hit_ratio", 0),
        "tier.promotions": counts.get("tier_promotions", 0),
        "tier.demotions": counts.get("tier_demotions", 0),
        "tier.denials": counts.get("tier_denials", 0),
        "wal.fsyncs": counts["fsyncs"],
        "wal.appends": counts["wal_appends"],
        "wal.bytes": counts["wal_bytes"],
        "wal.checkpoint_s": extra.get("checkpoint_s", 0.0),
        "wal.checkpoint_bytes": extra.get("checkpoint_bytes", 0),
        "server.shed_count": counts.get("shed", 0),
    }


def _from_recovery(round_) -> dict:
    """Per-layer metrics of the durability check a run's first round makes."""
    extra = round_.extra
    recover_s = extra.get("recover_s", 0.0)
    return {
        "wal.replay_records_per_s": (
            extra.get("replayed_records", 0) / recover_s if recover_s else 0.0
        ),
        "wal.truncated_bytes": extra.get("truncated_bytes", 0),
    }


def run_traced(workload: str, inp: dict, want, seconds: float) -> dict:
    import trace as tracing
    from workloads import OUT_DIR

    first, later = _round_functions(workload)
    tracer = tracing.Tracer()
    reference, traced, per_round = [], [], []
    last_spans: list = []

    def pair() -> None:
        nonlocal last_spans
        reference.append(later(inp, want))
        tracer.captured.clear()
        tracer.install()
        try:
            round_ = (later if traced else first)(inp, want, tracer)
        finally:
            tracer.uninstall()
        last_spans = tracer.take()
        traced.append(round_)
        per_round.append(
            {
                **tracing.layer_metrics(last_spans, reads=len(round_.read_ns)),
                **_from_status(round_),
            }
        )

    # The twins come out of the run's time, before the pairs.
    started = time.perf_counter()
    twins = _twins(workload, inp, want)
    _rounds_until(seconds - (time.perf_counter() - started), pair)
    values = {name: median(r[name] for r in per_round) for name in per_round[0]}
    values.update(_from_recovery(traced[0]))
    values.update(_comparisons(twins, reference))
    values["server.wire_codec_us"] = tracing.wire_codec_us(tracer.captured)
    # As experienced: a floor would drop the collector pauses that
    # hundreds of thousands of span tuples bring, which are overhead too.
    values["trace.overhead_share"] = (
        median(r.wall_s for r in traced) / median(r.wall_s for r in reference) - 1.0
    )

    OUT_DIR.mkdir(exist_ok=True)
    tracing.write_spans(OUT_DIR / f"trace-{workload}.json", last_spans)

    rounds = reference + traced + list(twins.values())
    failed = sum(r.failed for r in rounds)
    return {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "metrics": {
            name: {"value": values.get(name, 0), "unit": PER_LAYER[name]["unit"]}
            for name in PER_LAYER
        },
        "detail": {
            "rounds": len(traced),
            "spans_last_round": len(last_spans),
            # Counts made by the program must not move between rounds.
            "counts_repeat_across_rounds": all(
                _from_status(r) == _from_status(traced[0]) for r in traced
            ),
            "errors": [e for r in rounds for e in r.errors][:5],
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt-oracle", action="store_true",
        help="selftest hook: falsify the oracle, so the run must report failure",
    )
    args = parser.parse_args(argv)

    _import_program()
    from inputs import generate
    from workloads import WORKLOAD_CODE, sessions_for_host, sharded_backend, warm_up

    inp = generate(args.workload, args.seed)
    want = WORKLOAD_CODE[args.workload][0](inp)
    if args.corrupt_oracle:
        want.digests = dict.fromkeys(want.digests, "0" * 32)
        if want.answers and isinstance(want.answers[0], tuple):
            want.answers[0] = (-1, -1)
    warm_up()

    run = run_traced if args.trace else run_untraced
    result = run(args.workload, inp, want, args.seconds)
    result.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        env={
            **environment(),
            "sharded_backend": sharded_backend(),
            "crowd_sessions": sessions_for_host(),
        },
    )
    print(json.dumps(result))
    return 0 if result["correct"] else EXIT_INCORRECT


if __name__ == "__main__":
    sys.exit(main())
