"""The six workloads: one *round* of each, oracle-checked.

A round sets up a fresh database (or server), runs the workload's fixed
op stream in a closed loop from one thread, and checks every answer
against the numpy oracle outside the timed region.  ``worker.py`` repeats
rounds for the run's ``--seconds`` and reports each op's least disturbed
latency over them, so the work measured is the same whatever the run
length; the workload's own cold start (first full scans, view creation)
is inside every round because the paper's metric is accumulated time
over the sequence.

Nothing here imports ``trace.py``: a traced run passes its tracer in.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

import oracle
from inputs import MAX_SESSIONS
from repro import native
from repro.core.facade import AdaptiveDatabase
from repro.server.admission import SessionShed
from repro.server.client import ServerClient
from repro.server.manager import DatabaseManager
from repro.server.options import SessionOptions
from repro.server.server import QueryServer
from repro.shard.database import ShardedDatabase
from repro.tier import TierConfig
from repro.wal.config import DurabilityConfig
from repro.wal.recovery import recover_database
from repro.workloads.distributions import DEFAULT_DOMAIN
from spec import WORKLOADS

#: Where durable directories and trace files go: inside the checkout.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: A range that selects every row (values never leave DEFAULT_DOMAIN).
EVERYTHING = (DEFAULT_DOMAIN[0], DEFAULT_DOMAIN[1])

#: Ledger counters copied into every round's ``counts``.
LEDGER_COUNTERS = (
    "pages_scanned", "mmap_calls", "wal_appends", "wal_bytes", "fsyncs",
)

#: Inserts before the crash point whose frame ends are sampled, so the
#: synced prefix is known exactly: more than fit in one fsync batch.
FRAME_WINDOW = 4096

#: Throw-away set-ups a round times besides its own.
SETUP_REPEATS = 4

#: SQL reads go to the table's second column ``w``, which no session
#: writes.  On the written column ``v`` they would run into a bug this
#: benchmark found at its parent commit (README.md, "Found while
#: building"), and a workload must be one on which no op fails.
SQL_READ = "SELECT COUNT(*), SUM(w) FROM t WHERE w BETWEEN {} AND {}"

clock = time.perf_counter_ns


def sessions_for_host() -> int:
    """Sessions of the traced run's crowded replay of ``served_mixed``:
    never more than the cores."""
    return min(os.cpu_count() or 1, MAX_SESSIONS)


@dataclass
class Round:
    """Everything one round measured."""

    #: Seconds of every set-up the round made (see ``_set_up``).
    setup_s: list[float] = field(default_factory=list)
    #: Wall seconds of the timed section (oracle work excluded).
    wall_s: float = 0.0
    #: Ops completed in the timed section (reads + writes).
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    read_ns: list[int] = field(default_factory=list)
    write_ns: list[int] = field(default_factory=list)
    #: Timed ops that are neither: flushes, commits, the checkpoint.
    other_ns: list[int] = field(default_factory=list)
    #: Simulated main-lane nanoseconds charged by the whole round.
    sim_ns: float = 0.0
    #: Workload-specific end-to-end values (recover_s, WAL bytes, ...).
    extra: dict = field(default_factory=dict)
    #: Counts read from public status surfaces when the round ended.
    counts: dict = field(default_factory=dict)
    #: Every read's (rows, sum): identical across rounds of one seed on
    #: the single-threaded workloads.
    answers: list = field(default_factory=list)
    #: First few error reports (tracebacks, oracle mismatches).
    errors: list[str] = field(default_factory=list)


@dataclass
class Expected:
    """What the oracle says a round must return; computed once per run,
    outside every timed region (each round replays the same inputs)."""

    #: Per read, in stream order: (rows, value sum).  None for the
    #: concurrent workload, whose reads are judged against the
    #: interleaving actually observed.
    answers: list | None
    #: Column -> digest of a full-domain read of the final state.
    digests: dict[str, str]


class Recorder:
    """Times ops one at a time and counts the ones that raise."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.read_ns: list[int] = []
        self.write_ns: list[int] = []
        self.other_ns: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: (start, end) of the op timed last.
        self.last = (0, 0)

    def timed(self, sink: list[int], fn, *args, kind: str = "op", rid=None):
        """Run ``fn(*args)``; its latency goes to ``sink``; None if it raised.

        ``rid`` is the traced span's request id, or a function deriving
        it from the op's result (the wire client learns it from the
        response).
        """
        tracer = self.tracer
        self.attempted += 1
        if tracer is not None:
            tracer.begin_op()
        start = clock()
        try:
            out = fn(*args)
        except Exception:  # an op that raises is a failed op, not a crash
            out = None
            self.fail(traceback.format_exc(limit=3))
        end = clock()
        if tracer is not None:
            if callable(rid):
                rid = rid(out) if out is not None else None
            tracer.end_op(kind, start, end, rid)
        sink.append(end - start)
        self.last = (start, end)
        return out

    def fail(self, report: str) -> None:
        self.failed += 1
        if len(self.errors) < 3:
            self.errors.append(report)

    def into(self, round_: Round) -> None:
        round_.read_ns += self.read_ns
        round_.write_ns += self.write_ns
        round_.other_ns += self.other_ns
        round_.ops += len(self.read_ns) + len(self.write_ns)
        round_.attempted += self.attempted
        round_.failed += self.failed
        round_.errors += self.errors[: 3 - len(round_.errors)]


def _answer(result) -> tuple[int, int] | None:
    """(rows, value sum) of an in-process query result."""
    if result is None:
        return None
    return int(result.rowids.size), int(result.values.sum())


def _judge(round_: Round, want: Expected) -> None:
    """Count answers that differ from the oracle as failed ops."""
    wrong = oracle.count_wrong(round_.answers, want.answers)
    if wrong:
        round_.failed += wrong
        round_.errors.append(f"oracle: {wrong} reads returned the wrong rows or sum")


def _check_final(round_: Round, query, want: Expected, column: str = "v") -> None:
    """Full-domain digest of the column against the mirror's."""
    result = query(*EVERYTHING)
    if oracle.digest(result.rowids, result.values) != want.digests[column]:
        round_.failed += 1
        round_.errors.append(f"oracle: final digest of column {column!r} differs")


def _ledger_counts(counters: dict) -> dict:
    return {name: int(counters.get(name, 0)) for name in LEDGER_COUNTERS}


def _views_live(db, column: str = "v") -> int:
    return db.layer("t", column).view_index.num_partials


def _pairs(array: np.ndarray) -> list[tuple[int, int]]:
    return [(int(lo), int(hi)) for lo, hi in array.tolist()]


def _set_up(round_: Round, build, discard, throw_away: int = SETUP_REPEATS):
    """Build what the round runs on, and time building it.

    A set-up takes milliseconds, which one sample a round measures
    poorly, so ``throw_away`` more are built, timed and discarded first;
    ``setup_s`` is the median over all of a run's set-ups.
    """
    for remaining in range(throw_away, -1, -1):
        start = clock()
        built = build()
        round_.setup_s.append((clock() - start) / 1e9)
        if remaining:
            discard(built)
    return built


# -- read-only, in-process --------------------------------------------------


def expect_static(inp: dict) -> Expected:
    """The oracle for a column no op writes to."""
    column = oracle.StaticColumn(inp["values"])
    return Expected(
        answers=[column.expect(lo, hi) for lo, hi in _pairs(inp["reads"])],
        digests={"v": oracle.full_digest(inp["values"])},
    )


def _read_only_round(inp: dict, want: Expected, tracer, make_db, counts) -> Round:
    """Set up, fire every read, check: the shape three workloads share."""
    round_ = Round()
    rec = Recorder(tracer)
    reads = _pairs(inp["reads"])

    def build():
        db = make_db()
        db.create_table("t", {"v": inp["values"]})
        return db

    db = _set_up(round_, build, lambda db: db.close())
    try:
        query = partial(db.query, "t", "v")
        start = clock()
        for i, (lo, hi) in enumerate(reads):
            result = rec.timed(rec.read_ns, query, lo, hi, kind="read", rid=i)
            round_.answers.append(_answer(result))
        round_.wall_s = (clock() - start) / 1e9
        round_.sim_ns = db.total_sim_ns()
        round_.counts = counts(db)
        rec.into(round_)
        _judge(round_, want)
        _check_final(round_, query, want)
    finally:
        db.close()
    return round_


def adaptive_clustered(inp: dict, want: Expected, tracer=None) -> Round:
    def counts(db):
        return {**_ledger_counts(db.cost.ledger.counters()), "views_live": _views_live(db)}

    return _read_only_round(inp, want, tracer, AdaptiveDatabase, counts)


def sharded_backend() -> str:
    """Native mmap rewiring when the host supports it, else simulated."""
    return "native" if native.is_supported() else "simulated"


def sharded_scan(inp: dict, want: Expected, tracer=None) -> Round:
    def make_db():
        return ShardedDatabase(shards=WORKLOADS["sharded_scan"]["shards"], backend=sharded_backend())

    def counts(db):
        column = db.column("t", "v")
        return {
            **_ledger_counts(db.merged_cost()[1]),
            "views_live": sum(s.layer.view_index.num_partials for s in column.shards),
        }

    return _read_only_round(inp, want, tracer, make_db, counts)


def tiered_hotspot(
    inp: dict,
    want: Expected,
    tracer=None,
    hot_budget: int | None = WORKLOADS["tiered_hotspot"]["hot_budget"],
) -> Round:
    """``hot_budget``: pages, or None for an untiered twin of the stream.

    The traced run replays the stream at a 100% budget and untiered to
    report ``tier.armed_overhead_ratio``; every other run uses the
    frozen budget.
    """

    def make_db():
        if hot_budget is None:
            return AdaptiveDatabase()
        return AdaptiveDatabase(tiering=TierConfig(hot_budget=hot_budget))

    def counts(db):
        tier = next(iter(db.tier_status().values()), {})
        return {
            **_ledger_counts(db.cost.ledger.counters()),
            "views_live": _views_live(db),
            **{
                f"tier_{key}": tier.get(key, 0)
                for key in ("hit_ratio", "promotions", "demotions", "denials")
            },
        }

    return _read_only_round(inp, want, tracer, make_db, counts)


# -- reads beside writes, in-process ------------------------------------------


def _update_batches(inp: dict) -> list[list[tuple[int, int]]]:
    return [
        list(zip(rows, values))
        for rows, values in zip(inp["update_rows"].tolist(), inp["update_values"].tolist())
    ]


def expect_mixed(inp: dict) -> Expected:
    """Replay the stream on the mirror: updates land in ack order."""
    per_batch = WORKLOADS["mixed_updates"]["reads_per_batch"]
    batches = _update_batches(inp)
    mirror = inp["values"].copy()
    answers = []
    for i, (lo, hi) in enumerate(_pairs(inp["reads"])):
        answers.append(oracle.expect(mirror, lo, hi))
        if (i + 1) % per_batch == 0:
            for row, value in batches[i // per_batch]:
                mirror[row] = value
    return Expected(answers=answers, digests={"v": oracle.full_digest(mirror)})


def mixed_updates(inp: dict, want: Expected, tracer=None) -> Round:
    round_ = Round()
    rec = Recorder(tracer)
    reads = _pairs(inp["reads"])
    batches = _update_batches(inp)
    per_batch = WORKLOADS["mixed_updates"]["reads_per_batch"]

    def build():
        db = AdaptiveDatabase()
        db.create_table("t", {"v": inp["values"]})
        return db

    db = _set_up(round_, build, lambda db: db.close())
    try:
        query = partial(db.query, "t", "v")
        update = partial(db.update, "t", "v")
        start = clock()
        for i, (lo, hi) in enumerate(reads):
            result = rec.timed(rec.read_ns, query, lo, hi, kind="read", rid=i)
            round_.answers.append(_answer(result))
            if (i + 1) % per_batch == 0:
                for row, value in batches[i // per_batch]:
                    rec.timed(rec.write_ns, update, row, value, kind="write")
                rec.timed(rec.other_ns, db.flush_updates, "t", "v", kind="flush")
        round_.wall_s = (clock() - start) / 1e9
        round_.sim_ns = db.total_sim_ns()
        round_.counts = {
            **_ledger_counts(db.cost.ledger.counters()),
            "views_live": _views_live(db),
        }
        rec.into(round_)
        _judge(round_, want)
        _check_final(round_, query, want)
    finally:
        db.close()
    return round_


# -- durable ingest -----------------------------------------------------------


def _crash_copy(db: AdaptiveDatabase, source: Path, target: Path) -> int:
    """Copy a live durable directory as a power cut would leave it.

    The database is *not* closed.  A process kill would leave the
    operating system's cache intact, so the copy itself discards what
    the log never synced: ``wal_status()["unsynced_bytes"]`` are cut
    from the tail of the log (the active segment first).  Returns the
    bytes of log that survive.
    """
    status = db.wal_status()
    shutil.copytree(source, target)
    discard = int(status["unsynced_bytes"])
    segments = sorted(target.glob("wal-*.seg"))
    for segment in reversed(segments):
        if discard <= 0:
            break
        size = segment.stat().st_size
        cut = min(size, discard)
        os.truncate(segment, size - cut)
        discard -= cut
    return int(status["total_bytes"]) - int(status["unsynced_bytes"])


def _recovered_rows(directory: Path) -> tuple[dict[str, np.ndarray], float, object]:
    """Recover a crash copy; its columns in row order, seconds, report."""
    start = clock()
    db, report = recover_database(str(directory))
    seconds = (clock() - start) / 1e9
    try:
        columns = {}
        for name in ("k", "v"):
            result = db.query("t", name, *EVERYTHING)
            columns[name] = result.values[np.argsort(result.rowids, kind="stable")]
    finally:
        db.close()
    return columns, seconds, report


def _prefix_length(recovered: dict, inp: dict) -> int | None:
    """Inserts the recovered table holds, if it is a prefix of the stream."""
    initial = inp["initial_k"].size
    count = recovered["k"].size - initial
    if count < 0 or recovered["v"].size != recovered["k"].size:
        return None
    for name in ("k", "v"):
        want = np.concatenate([inp[f"initial_{name}"], inp[f"insert_{name}"][:count]])
        if not np.array_equal(recovered[name], want):
            return None
    return count


def _check_durability(
    round_: Round, inp: dict, workdir: Path, frame_ends: dict[int, int], surviving: int
) -> None:
    """Recover both crash copies, unflushed bytes discarded, and judge them.

    ``frame_ends``: insert count -> log bytes once that insert was
    acked; ``surviving``: log bytes the mid-stream copy kept.
    """
    inserts = inp["insert_k"].size
    crash_at = int(inp["crash_at"][0])
    # Mid-stream: an exact prefix of the acked stream, no shorter than
    # the inserts whose frames lie wholly inside the synced log.
    recovered, _, report = _recovered_rows(workdir / "crash-mid")
    got = _prefix_length(recovered, inp)
    durable = max((n for n, end in frame_ends.items() if end <= surviving), default=0)
    round_.extra["truncated_bytes"] = report.truncated_bytes
    if got is None or not durable <= got <= crash_at:
        round_.failed += 1
        round_.errors.append(
            f"durability: mid-stream copy recovered {got} inserts, "
            f"expected a prefix of {durable}..{crash_at}"
        )
    # After flush_all(): the whole stream.
    recovered, seconds, report = _recovered_rows(workdir / "crash-end")
    round_.extra["recover_s"] = seconds
    round_.extra["replayed_records"] = report.replayed_records
    if _prefix_length(recovered, inp) != inserts:
        round_.failed += 1
        round_.errors.append("durability: post-flush copy lost acknowledged inserts")


def expect_durable(inp: dict) -> Expected:
    """The table as of each read is the initial rows plus a stream prefix."""
    per_read = WORKLOADS["durable_ingest"]["inserts_per_read"]
    keys = np.concatenate([inp["initial_k"], inp["insert_k"]])
    base = inp["initial_k"].size
    return Expected(
        answers=[
            oracle.expect(keys[: base + (i + 1) * per_read], lo, hi)
            for i, (lo, hi) in enumerate(_pairs(inp["reads"]))
        ],
        digests={
            "k": oracle.full_digest(keys),
            "v": oracle.full_digest(np.concatenate([inp["initial_v"], inp["insert_v"]])),
        },
    )


def durable_ingest(
    inp: dict, want: Expected, tracer=None, crash_copies: bool = True
) -> Round:
    """``crash_copies``: take the two crash copies and recover them.

    The first round of a run does.  The copies and recoveries take
    longer than the ingest itself, so the later rounds only ingest and a
    run holds twice as many of them.
    """
    size = WORKLOADS["durable_ingest"]
    round_ = Round()
    rec = Recorder(tracer)
    keys, vals = inp["insert_k"].tolist(), inp["insert_v"].tolist()
    reads = _pairs(inp["reads"])
    inserts = len(keys)
    per_read = size["inserts_per_read"]
    crash_at = int(inp["crash_at"][0])
    half = inserts // 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="durable-", dir=OUT_DIR))
    live = workdir / "db"
    db = None

    def build():
        db = AdaptiveDatabase(
            durable_dir=str(live), durability=DurabilityConfig(fsync=size["fsync"])
        )
        db.create_table("t", {"k": inp["initial_k"], "v": inp["initial_v"]})
        return db

    def discard(db):
        db.close()
        shutil.rmtree(live)

    try:
        db = _set_up(round_, build, discard)
        insert = partial(db.insert, "t")
        query = partial(db.query, "t", "k")
        frame_ends = {}  # insert index -> log bytes once it was acked
        surviving = paused = 0
        start = clock()
        for i in range(inserts):
            rec.timed(rec.write_ns, insert, {"k": keys[i], "v": vals[i]}, kind="write")
            done = i + 1
            if crash_copies and crash_at - FRAME_WINDOW < done <= crash_at:
                frame_ends[done] = db.wal_status()["total_bytes"]
            if done % per_read == 0:
                lo, hi = reads[done // per_read - 1]
                result = rec.timed(rec.read_ns, query, lo, hi, kind="read", rid=done)
                round_.answers.append(_answer(result))
            if done == half:
                report = rec.timed(rec.other_ns, db.checkpoint, kind="checkpoint")
                round_.extra["checkpoint_s"] = rec.other_ns[-1] / 1e9
                if report is not None:
                    round_.extra["checkpoint_bytes"] = os.path.getsize(report["path"])
            if crash_copies and done == crash_at:
                pause = clock()
                surviving = _crash_copy(db, live, workdir / "crash-mid")
                paused += clock() - pause
        rec.timed(rec.other_ns, db.flush_all, kind="flush_all")
        round_.wall_s = (clock() - start - paused) / 1e9
        round_.sim_ns = db.total_sim_ns()
        round_.counts = {
            **_ledger_counts(db.cost.ledger.counters()),
            "views_live": _views_live(db, "k"),
        }
        # Every log byte written (pruned segments included) per byte of
        # inserted rows: two int64 columns, 16 B a row.
        round_.extra["wal_bytes_per_user_byte"] = round_.counts["wal_bytes"] / (16 * inserts)
        rec.into(round_)
        _judge(round_, want)

        if crash_copies:
            _crash_copy(db, live, workdir / "crash-end")
            _check_durability(round_, inp, workdir, frame_ends, surviving)
        _check_final(round_, query, want, "k")
        _check_final(round_, partial(db.query, "t", "v"), want, "v")
    finally:
        if db is not None:
            db.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return round_


# -- served, concurrent ---------------------------------------------------------


def _wire_rid(response):
    return (response.session_id, response.sequence)


class _SessionRun(threading.Thread):
    """One closed-loop client: its op stream, timed, with acks logged."""

    def __init__(self, index, client, inp, tracer) -> None:
        super().__init__(name=f"stackbench-session-{index}")
        self.index = index
        #: The open session, or None when admission refused it.
        self.client = client
        self.rec = Recorder(tracer)
        self.reads = _pairs(inp["reads"][index])
        self.rows = inp["update_rows"][index].tolist()
        self.values = inp["update_values"][index].tolist()
        #: (sent, acked, lo, hi, answer) per answered structured read.
        self.read_log: list = []
        #: Read number -> answer, per answered SQL read.
        self.sql_answers: dict[int, tuple[int, int]] = {}
        #: (sent, acked, row, value) per acknowledged update.
        self.write_log: list = []

    def run(self) -> None:
        if self.client is None:
            # A refused session fails every op it would have run.
            ops = WORKLOADS["served_mixed"]["ops_per_session"]
            self.rec.attempted += ops
            self.rec.failed += ops
            return
        try:
            self._ops(self.client)
        except Exception:  # a broken connection fails the run, not the harness
            self.rec.fail(traceback.format_exc(limit=3))

    def _ask(self, sink, call, *args, kind):
        """One request; the response if it was answered ``ok``, else None."""
        response = self.rec.timed(sink, call, *args, kind=kind, rid=_wire_rid)
        if response is not None and not response.ok:
            self.rec.fail(f"{kind} refused: {response.error}")
            return None
        return response

    def _ops(self, client) -> None:
        size = WORKLOADS["served_mixed"]
        rec = self.rec
        reads_done = writes_done = 0
        for op in range(size["ops_per_session"]):
            if op % size["write_every"] == size["write_every"] - 1:
                row, value = self.rows[writes_done], self.values[writes_done]
                writes_done += 1
                if self._ask(rec.write_ns, client.update, "t", "v", row, value, kind="write"):
                    self.write_log.append((*rec.last, row, value))
            else:
                lo, hi = self.reads[reads_done]
                reads_done += 1
                if reads_done % size["sql_every_read"] == 0:
                    sql = SQL_READ.format(lo, hi)
                    response = self._ask(rec.read_ns, client.execute, sql, kind="read")
                    if response:
                        rows, total = response.rows[0]
                        self.sql_answers[reads_done - 1] = (int(rows), int(total or 0))
                else:
                    response = self._ask(
                        rec.read_ns, client.query, "t", "v", lo, hi, kind="read"
                    )
                    if response:
                        answer = (response.data["rows"], response.data["value_sum"])
                        self.read_log.append((*rec.last, lo, hi, answer))
            if (op + 1) % size["commit_every"] == 0:
                self._ask(rec.other_ns, client.commit, kind="commit")
        self._ask(rec.other_ns, client.commit, kind="commit")


def expect_served(inp: dict, sessions: int = 1) -> Expected:
    """SQL reads hit the static column, so their answers are fixed; of
    the written column only the final state is — sessions write
    disjoint row slices, so it is the same under any interleaving."""
    static = oracle.StaticColumn(inp["values_w"])
    mirror = inp["values"].copy()
    for i in range(sessions):
        mirror[inp["update_rows"][i]] = inp["update_values"][i]  # last write wins
    return Expected(
        answers=[
            [static.expect(lo, hi) for lo, hi in _pairs(inp["reads"][i])]
            for i in range(sessions)
        ],
        digests={"v": oracle.full_digest(mirror), "w": oracle.full_digest(inp["values_w"])},
    )


def served_mixed(
    inp: dict, want: Expected, tracer=None, sessions: int = 1, wire: bool = True
) -> Round:
    """``sessions`` clients over loopback TCP (or in-process if not ``wire``).

    A round is one session: the client thread and the server's handler
    thread take turns, so two threads never want the interpreter at
    once and every op does the same work in every round.  The traced
    run replays the streams with ``min(nproc, 4)`` sessions, and session
    0's through an in-process ``Session``, to report queueing and
    round-trip cost as per-layer metrics.
    """
    round_ = Round()
    options = SessionOptions(autocommit=False)

    def open_session(manager, address):
        try:
            if wire:
                return ServerClient(*address, options=options)
            return manager.open_session(options=options)
        except SessionShed:
            return None  # counted by the admission controller's shed_total

    def build():
        manager = DatabaseManager()
        db = manager.create_database()
        db.create_table("t", {"v": inp["values"], "w": inp["values_w"]})
        server = QueryServer(manager=manager)
        address = server.start()
        clients = [open_session(manager, address) for _ in range(sessions)]
        return manager, db, server, clients

    def discard(built):
        manager, _, server, clients = built
        for client in clients:
            if client is not None:
                client.close()
        server.stop()
        manager.close()

    # No throw-away: stopping a server takes half a second, as long as
    # the ops of a round.
    built = _set_up(round_, build, discard, throw_away=0)
    manager, db, _, clients = built
    try:
        runs = [_SessionRun(i, client, inp, tracer) for i, client in enumerate(clients)]
        start = clock()
        for run in runs:
            run.start()
        for run in runs:
            run.join()
        round_.wall_s = (clock() - start) / 1e9
        round_.sim_ns = db.total_sim_ns()
        round_.counts = {
            **_ledger_counts(db.cost.ledger.counters()),
            "views_live": _views_live(db),
            "shed": manager.admission().status().shed_total,
        }
        for run in runs:
            run.rec.into(round_)

        # Structured reads raced the other sessions' writes: judge them
        # against the interleavings the acks allow.  SQL reads did not.
        reads = [(run.index, *entry) for run in runs for entry in run.read_log]
        round_.answers = [entry[-1] for entry in reads]
        wrong = oracle.check_concurrent_reads(
            inp["values"], reads, [run.write_log for run in runs]
        )
        wrong += sum(
            1
            for run in runs
            for number, answer in run.sql_answers.items()
            if answer != want.answers[run.index][number]
        )
        if wrong:
            round_.failed += wrong
            round_.errors.append(f"oracle: {wrong} reads match no serial order of the writes")

        admitted = [client for client in clients if client is not None]
        for column, digest in want.digests.items():  # quiescent: the ops are over
            response = admitted[0].query("t", column, *EVERYTHING) if admitted else None
            if response is None or not response.ok or response.data["checksum"] != digest:
                round_.failed += 1
                round_.errors.append(f"oracle: final digest of column {column!r} differs")
    finally:
        discard(built)
    return round_


#: workload -> (oracle preparation, one round).
WORKLOAD_CODE = {
    "adaptive_clustered": (expect_static, adaptive_clustered),
    "sharded_scan": (expect_static, sharded_scan),
    "mixed_updates": (expect_mixed, mixed_updates),
    "tiered_hotspot": (expect_static, tiered_hotspot),
    "durable_ingest": (expect_durable, durable_ingest),
    "served_mixed": (expect_served, served_mixed),
}

#: A round after a run's first, where that is not the same function.
LATER_ROUNDS = {"durable_ingest": partial(durable_ingest, crash_copies=False)}


def warm_up() -> None:
    """Process-level warm-up, excluded from every timing: lazy imports
    and first-call paths, on a throw-away 64-page database."""
    from repro.workloads.distributions import sine

    values = sine(64, seed=0)
    with AdaptiveDatabase() as db:
        db.create_table("t", {"v": values})
        for lo in range(0, 50_000_000, 10_000_000):
            db.query("t", "v", lo, lo + 1_000_000)
        db.update("t", "v", 0, 1)
        db.flush_updates("t", "v")
