"""The traced run: spans around each layer's public entry points.

Layers are measured from outside.  :data:`ENTRY_POINTS` is the fixed
table of public functions and methods the tracer wraps; a wrapper is
installed on the defining module (or class) *and* on every ``repro``
module that imported the name, so ``from .scan import batch_scan`` call
sites are timed too.  Spans stay in memory until the workload ends.

Only ``worker.py --trace 1`` (and ``--selftest``, for the arithmetic)
imports this file; an untraced run never does.  Importing it needs
nothing from ``src/`` — entry points are resolved at install time.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from functools import wraps
from itertools import count
from statistics import mean

clock = time.perf_counter_ns

# Span tuples: (id, name, start_ns, end_ns, parent_id, request_id, work).
SID, NAME, START, END, PARENT, RID, WORK = range(7)

NO_PARENT = -1


# -- what each wrapped call reports as its unit of work ----------------------


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _partial_only(out, args, kwargs) -> int:
    """1 when routing answered without the full view (a view hit)."""
    return int(not any(view.is_full_view for view in out))


def _kept(out, args, kwargs) -> int:
    """1 when the candidate view was kept (ViewEvent by public value)."""
    return int(out.value in ("inserted", "replaced", "evicted_lru"))


def _pages_scanned(out, args, kwargs) -> int:
    return out.pages_scanned


def _maps_lines(out, args, kwargs) -> int:
    return args[0].maps_line_count()


def _map_fixed_pages(out, args, kwargs) -> int:
    return _arg(args, kwargs, 2, "npages")


def _map_file_pages(out, args, kwargs) -> int:
    return _arg(args, kwargs, 1, "npages")


def _shards(out, args, kwargs) -> int:
    return len(out)


def _merged_rows(out, args, kwargs) -> int:
    return out["merged_rows"]


def _response_rid(out, args, kwargs):
    return (out.session_id, out.sequence)


#: (module, attribute path, span name, work extractor).  The span's
#: layer is the part of its name before the first dot.
ENTRY_POINTS = (
    ("repro.core.view_index", "ViewIndex.get_optimal_views", "core.route", _partial_only),
    ("repro.core.view_index", "ViewIndex.consider_candidate", "core.consider", _kept),
    ("repro.core.routing", "scan_views", "core.scan_views", None),
    ("repro.core.scan", "batch_scan", "core.batch_scan", _pages_scanned),
    ("repro.core.creation", "materialize_pages", "core.create_view", None),
    ("repro.core.maintenance", "align_partial_views", "core.align", None),
    ("repro.core.adaptive", "AdaptiveStorageLayer.answer_query", "core.answer_query", None),
    ("repro.core.adaptive", "AdaptiveStorageLayer.apply_updates", "core.apply_updates", None),
    ("repro.core.query", "QueryEngine.select", "core.engine_select", None),
    ("repro.core.query", "QueryEngine.fetch", "core.engine_fetch", None),
    ("repro.substrate.simulated", "SimulatedSubstrate.maps_snapshot", "vm.maps_snapshot", _maps_lines),
    ("repro.substrate.native", "NativeSubstrate.maps_snapshot", "vm.maps_snapshot", _maps_lines),
    ("repro.substrate.simulated", "SimulatedSubstrate.map_fixed", "substrate.map", _map_fixed_pages),
    ("repro.substrate.native", "NativeSubstrate.map_fixed", "substrate.map", _map_fixed_pages),
    ("repro.substrate.simulated", "SimulatedSubstrate.map_file", "substrate.map", _map_file_pages),
    ("repro.substrate.native", "NativeSubstrate.map_file", "substrate.map", _map_file_pages),
    ("repro.shard.router", "ShardRouter.shards_for_range", "shard.route", _shards),
    ("repro.shard.column", "ShardedColumn.query", "shard.query", None),
    ("repro.tier.store", "TieredPageStore.record_batch_access", "tier.record_access", None),
    ("repro.tier.store", "TieredPageStore.maintenance", "tier.maintenance", None),
    ("repro.wal.records", "encode_record", "wal.encode", None),
    ("repro.wal.log", "WriteAheadLog.append", "wal.append", None),
    ("os", "fsync", "wal.fsync", None),
    ("repro.core.facade", "AdaptiveDatabase.flush_inserts", "storage.flush_inserts", _merged_rows),
    ("repro.core.facade", "AdaptiveDatabase.query", "facade.query", None),
    ("repro.core.facade", "AdaptiveDatabase.update", "facade.update", None),
    ("repro.core.facade", "AdaptiveDatabase.insert", "facade.insert", None),
    ("repro.core.facade", "AdaptiveDatabase.flush_updates", "facade.flush_updates", None),
    ("repro.shard.database", "ShardedDatabase.query", "facade.query", None),
    ("repro.server.session", "Session.query", "server.session", None),
    ("repro.server.session", "Session.update", "server.session", None),
    ("repro.server.session", "Session.execute", "server.session", None),
    ("repro.server.session", "Session.commit", "server.session", None),
    ("repro.server.protocol", "encode", "server.wire", None),
    ("repro.server.protocol", "decode", "server.wire", None),
    ("repro.server.protocol", "response_to_wire", "server.wire", None),
    ("repro.server.protocol", "response_from_wire", "server.wire", None),
    ("repro.sql.parser", "parse", "sql.parse", None),
    ("repro.sql.executor", "Session.execute", "sql.execute", None),
)

#: Spans whose result names the request they served.
_RID_FROM_RESULT = {"server.session": _response_rid}

#: Calls whose first argument is kept for the wire-codec replay.
_CAPTURED = ("repro.server.protocol", "encode")


class Tracer:
    """In-memory span recorder plus the install/uninstall of wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: Messages handed to ``protocol.encode`` while installed.
        self.captured: list[dict] = []
        self._ids = count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- the benchmark's own op spans ------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self) -> None:
        """Open the top-level span of one benchmark op on this thread."""
        self._stack().append(next(self._ids))

    def end_op(self, kind: str, start: int, end: int, rid=None) -> None:
        sid = self._stack().pop()
        self.spans.append((sid, f"op.{kind}", start, end, NO_PARENT, rid, None))

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str, work, capture: bool):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        captured = self.captured
        rid_of = _RID_FROM_RESULT.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else NO_PARENT
            stack.append(sid)
            if capture:
                captured.append(args[0])
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, None, None))
                raise
            end = clock()
            stack.pop()
            spans.append(
                (
                    sid, name, start, end, parent,
                    rid_of(out, args, kwargs) if rid_of else None,
                    work(out, args, kwargs) if work else None,
                )
            )
            return out

        return traced

    def install(self) -> None:
        """Wrap every entry point, wherever ``repro`` refers to it."""
        for module_name, path, name, work in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = getattr(module, owner_path) if owner_path else module
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, work, (module_name, path) == _CAPTURED)
            holders = [owner]
            if not owner_path:
                holders += [
                    other
                    for other_name, other in list(sys.modules.items())
                    if other is not module
                    and other is not None
                    and (other_name == "repro" or other_name.startswith("repro."))
                    and getattr(other, attr, None) is original
                ]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def take(self) -> list[tuple]:
        """The spans recorded so far; the recorder starts over."""
        taken, self.spans[:] = list(self.spans), []
        return taken


# -- arithmetic on finished spans ---------------------------------------------


def adopt_by_request(spans: list[tuple]) -> list[tuple]:
    """Re-parent cross-thread roots under the op that caused them.

    A server-side span runs on a handler thread, so its thread-local
    parent is empty; it names its request, and so does the client op
    span once the response is back.  Spans of one request share that id.
    """
    ops = {s[RID]: s[SID] for s in spans if s[NAME].startswith("op.") and s[RID] is not None}
    adopted = []
    for span in spans:
        if (
            span[PARENT] == NO_PARENT
            and not span[NAME].startswith("op.")
            and span[RID] in ops
        ):
            span = span[:PARENT] + (ops[span[RID]],) + span[PARENT + 1 :]
        adopted.append(span)
    return adopted


def covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] != NO_PARENT:
            children[span[PARENT]].append((span[START], span[END]))
    return {
        span[SID]: (span[END] - span[START])
        - covered(span[START], span[END], children.get(span[SID], []))
        for span in spans
    }


def _mean(values: list[float]) -> float:
    return mean(values) if values else 0.0


def layer_metrics(spans: list[tuple], reads: int) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced round.

    Times are wall time inside the wrapped call (children included)
    unless the metric's definition says *self*.  A layer that did no
    work reports 0.
    """
    # The oracle's own queries come after the last op; they are not work
    # the workload asked for.
    last_op = max((s[END] for s in spans if s[NAME].startswith("op.")), default=0)
    spans = adopt_by_request([s for s in spans if s[START] <= last_op])
    own = self_times(spans)
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[NAME]].append(span)

    def durations(name: str) -> list[int]:
        return [s[END] - s[START] for s in by_name[name]]

    def selfs(name: str) -> list[int]:
        return [own[s[SID]] for s in by_name[name]]

    def work(name: str) -> list[int]:
        return [s[WORK] for s in by_name[name] if s[WORK] is not None]

    def rate(name: str) -> float:
        busy = sum(durations(name))
        return sum(work(name)) / (busy / 1e9) if busy else 0.0

    per_read = max(reads, 1)
    metrics = {
        "core.route_us": _mean(durations("core.route")) / 1e3,
        "core.scan_views_ms": sum(selfs("core.scan_views")) / per_read / 1e6,
        "core.batch_scan_pages_per_s": rate("core.batch_scan"),
        "core.create_view_ms": _mean(durations("core.create_view")) / 1e6,
        "core.view_hit_ratio": _mean(work("core.route")),
        "core.view_accept_ratio": _mean(work("core.consider")),
        "core.align_batch_ms": _mean(durations("core.align")) / 1e6,
        "vm.maps_snapshot_ms": _mean(durations("vm.maps_snapshot")) / 1e6,
        "vm.maps_lines": _mean(work("vm.maps_snapshot")),
        "substrate.map_pages_per_s": rate("substrate.map"),
        "shard.route_us": _mean(durations("shard.route")) / 1e3,
        "shard.shards_touched_per_query": _mean(work("shard.route")),
        "tier.record_access_ms": sum(selfs("tier.record_access")) / per_read / 1e6,
        "tier.maintenance_ms": _mean(durations("tier.maintenance")) / 1e6,
        "wal.encode_us": _mean(durations("wal.encode")) / 1e3,
        "wal.append_us": _mean(selfs("wal.append")) / 1e3,
        "wal.fsync_ms": _mean(durations("wal.fsync")) / 1e6,
        "sql.parse_us": _mean(durations("sql.parse")) / 1e3,
        "sql.execute_self_ms": _mean(selfs("sql.execute")) / 1e6,
        "server.session_self_ms": _mean(selfs("server.session")) / 1e6,
    }

    merges = [s for s in by_name["storage.flush_inserts"] if s[WORK]]
    metrics["storage.flush_inserts_ms"] = _mean([s[END] - s[START] for s in merges]) / 1e6
    metrics["storage.merge_batches"] = len(merges)

    # Scatter-gather: per-shard scans may run on pool threads, so they
    # are matched to their gather by time, not by parent.
    scans = sorted((s[START], s[END]) for s in by_name["core.answer_query"])
    gather, slowest = [], []
    for span in by_name["shard.query"]:
        inside = [(lo, hi) for lo, hi in scans if lo >= span[START] and hi <= span[END]]
        length = span[END] - span[START]
        gather.append(length - covered(span[START], span[END], inside))
        if inside and length:
            slowest.append(max(hi - lo for lo, hi in inside) / length)
    metrics["shard.gather_ms"] = _mean(gather) / 1e6
    metrics["shard.slowest_shard_share"] = _mean(slowest)

    # Op time no layer module accounts for: the op's own remainder plus
    # the facade's pass-through glue.
    glue = sum(
        own[s[SID]] for s in spans if s[NAME].startswith(("op.", "facade."))
    )
    op_time = sum(s[END] - s[START] for s in spans if s[NAME].startswith("op."))
    metrics["trace.unattributed_share"] = glue / op_time if op_time else 0.0
    return metrics


def wire_codec_us(captured: list[dict]) -> float:
    """Microseconds of JSON codec per request, replayed off-line.

    Every message ``protocol.encode`` saw during the traced rounds is
    pushed through the four codec functions again, unwrapped and away
    from the server's threads: a request costs encode + decode, a
    response to_wire + encode + decode + from_wire.
    """
    from repro.server import protocol

    requests = [m for m in captured if "ok" not in m]
    responses = [m for m in captured if "ok" in m]
    if not requests:
        return 0.0
    start = clock()
    for message in requests:
        protocol.decode(protocol.encode(message))
    for message in responses:
        response = protocol.response_from_wire(protocol.decode(protocol.encode(message)))
        protocol.response_to_wire(response)
    return (clock() - start) / len(requests) / 1e3


def write_spans(path, spans: list[tuple]) -> None:
    """Spans as ``{name, layer, start, end, parent, request_id}`` JSON."""
    spans = adopt_by_request(spans)
    parent_of = {s[SID]: s[PARENT] for s in spans}
    rid_of = {s[SID]: s[RID] for s in spans}

    def request_id(sid: int):
        while sid != NO_PARENT:
            if rid_of.get(sid) is not None:
                return rid_of[sid]
            sid = parent_of.get(sid, NO_PARENT)
        return None

    with open(path, "w") as handle:
        json.dump(
            [
                {
                    "id": s[SID],
                    "name": s[NAME],
                    "layer": s[NAME].split(".", 1)[0],
                    "start": s[START],
                    "end": s[END],
                    "parent": None if s[PARENT] == NO_PARENT else s[PARENT],
                    "request_id": request_id(s[SID]),
                    "work": s[WORK],
                }
                for s in spans
            ],
            handle,
        )
