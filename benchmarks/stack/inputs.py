"""Input generation: every array a workload consumes, from ``--seed`` alone.

The program under test receives only these arrays and ranges.  Columns
come from ``repro.workloads.distributions`` with explicit seeds, so no
``REPRO_*`` environment variable is consulted; read ranges, update
rows/values and insert streams come from numpy generators seeded the
same way.  The read sequences have the shapes of
``repro.workloads.queries`` (fixed selectivity, shifting hotspot) but are
drawn here, so that the work they cause differs little between seeds
(:func:`_spread_ranges`).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.vm.constants import VALUES_PER_PAGE
from repro.workloads.distributions import DEFAULT_DOMAIN, linear, sine

from spec import WORKLOAD_NAMES, WORKLOADS

#: served_mixed streams are generated for this many sessions on every
#: machine (a round uses the first, the traced run's crowded replay the
#: first ``min(nproc, 4)``), so one seed gives byte-identical inputs
#: whatever the core count.
MAX_SESSIONS = 4


def _stream_seed(seed: int, workload: str, stream: int) -> int:
    """A distinct non-negative seed per (run seed, workload, stream)."""
    return seed * 1_000_003 + WORKLOAD_NAMES.index(workload) * 101 + stream


def _spread_ranges(
    count: int, selectivity: float, rng: np.random.Generator, window=DEFAULT_DOMAIN
) -> np.ndarray:
    """``count`` ranges of one selectivity, spread evenly over ``window``.

    The places a range may start are cut into ``count`` equal strata.
    The seed draws where inside its stratum each range starts; the order
    in which the sequence visits the strata is a fixed shuffle, part of
    the workload like its size.  ``repro.workloads.queries`` draws every
    position independently, so how much of the window a sequence covers,
    and in which order — and with them how many views the program
    builds — differ from seed to seed: 9-11% in simulated cost per op
    over ten seeds, against 2-6% drawn this way (README.md,
    "Steadiness").  The driver judges a metric's spread over ten seeds.
    """
    lo, hi = window
    width = max(int((DEFAULT_DOMAIN[1] - DEFAULT_DOMAIN[0]) * selectivity), 1)
    edges = lo + (hi - lo - width) * np.arange(count + 1, dtype=np.int64) // count
    starts = rng.integers(edges[:-1], edges[1:], endpoint=True)
    starts = starts[np.random.default_rng(count).permutation(count)]
    return np.stack([starts, starts + width], axis=1)


def _hotspot_ranges(
    count: int, selectivity: float, hotspot_fraction: float, phases: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``repro.workloads.queries.shifting_hotspot``'s sequence — a window
    of ``hotspot_fraction`` of the domain moving across it in ``phases``
    steps — with each phase's ranges spread evenly over its window."""
    lo_dom, hi_dom = DEFAULT_DOMAIN
    span = hi_dom - lo_dom
    hotspot = int(span * hotspot_fraction)
    per_phase = -(-count // phases)
    ranges = []
    for phase in range(phases):
        window_lo = lo_dom + (span - hotspot) * phase // max(phases - 1, 1)
        here = min(per_phase, count - phase * per_phase)
        ranges.append(_spread_ranges(here, selectivity, rng, (window_lo, window_lo + hotspot)))
    return np.concatenate(ranges)


def generate(workload: str, seed: int) -> dict[str, np.ndarray]:
    """All inputs of one workload as named int64 arrays."""
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")
    size = WORKLOADS[workload]
    sub = lambda stream: _stream_seed(seed, workload, stream)  # noqa: E731
    lo_dom, hi_dom = DEFAULT_DOMAIN

    if workload in ("adaptive_clustered", "sharded_scan"):
        make = sine if size["distribution"] == "sine" else linear
        return {
            "values": make(size["pages"], seed=sub(0)),
            "reads": _spread_ranges(
                size["reads"], size["selectivity"], np.random.default_rng(sub(1))
            ),
        }

    if workload == "mixed_updates":
        batches = size["reads"] // size["reads_per_batch"]
        rng = np.random.default_rng(sub(2))
        rows = size["pages"] * VALUES_PER_PAGE
        shape = (batches, size["updates_per_batch"])
        return {
            "values": sine(size["pages"], seed=sub(0)),
            "reads": _hotspot_ranges(
                size["reads"], size["selectivity"], size["hotspot_fraction"],
                size["phases"], np.random.default_rng(sub(1)),
            ),
            "update_rows": rng.integers(0, rows, size=shape),
            "update_values": rng.integers(lo_dom, hi_dom, size=shape, endpoint=True),
        }

    if workload == "tiered_hotspot":
        return {
            "values": sine(size["pages"], seed=sub(0)),
            "reads": _hotspot_ranges(
                size["reads"], size["selectivity"], size["hotspot_fraction"],
                size["phases"], np.random.default_rng(sub(1)),
            ),
        }

    if workload == "durable_ingest":
        rng = np.random.default_rng(sub(0))
        initial, inserts = size["initial_rows"], size["inserts"]
        draw = lambda n: rng.integers(lo_dom, hi_dom, size=n, endpoint=True)  # noqa: E731
        return {
            "initial_k": draw(initial),
            "initial_v": draw(initial),
            "insert_k": draw(inserts),
            "insert_v": draw(inserts),
            "reads": _spread_ranges(
                inserts // size["inserts_per_read"], size["selectivity"],
                np.random.default_rng(sub(1)),
            ),
            # The seeded mid-stream crash point, away from both ends and
            # from the half-way checkpoint.
            "crash_at": rng.integers(inserts * 5 // 8, inserts * 7 // 8, size=1),
        }

    if workload == "served_mixed":
        ops = size["ops_per_session"]
        writes = ops // size["write_every"]
        reads = ops - writes
        rows = size["pages"] * VALUES_PER_PAGE
        chunk = rows // MAX_SESSIONS
        rng = np.random.default_rng(sub(2))
        # Session i writes only rows of its own quarter, so the final
        # column is the same under any interleaving.
        update_rows = np.stack(
            [
                rng.integers(i * chunk, (i + 1) * chunk, size=writes)
                for i in range(MAX_SESSIONS)
            ]
        )
        return {
            "values": sine(size["pages"], seed=sub(0)),
            "values_w": sine(size["pages"], seed=sub(1)),
            "reads": np.stack(
                [
                    _spread_ranges(reads, size["selectivity"], np.random.default_rng(sub(10 + i)))
                    for i in range(MAX_SESSIONS)
                ]
            ),
            "update_rows": update_rows,
            "update_values": rng.integers(
                lo_dom, hi_dom, size=update_rows.shape, endpoint=True
            ),
        }

    raise KeyError(f"unknown workload {workload!r}")


def fingerprint(inputs: dict[str, np.ndarray]) -> str:
    """Digest of every input byte (the determinism selftest compares these)."""
    digest = hashlib.blake2b(digest_size=16)
    for name in sorted(inputs):
        array = np.ascontiguousarray(inputs[name], dtype=np.int64)
        digest.update(name.encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()
