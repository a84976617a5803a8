"""How fast the machine is right now, measured beside the work.

The sandbox this benchmark runs in shares its cores with other guests.
For seconds at a time, and now and then for minutes, everything runs
slower: interpreter bytecode by 1.6-1.8x, numpy's vector loops by
1.25-1.35x, the workloads by 1.3-1.65x (README.md, "Steadiness").  A
slow phase shorter than a run is filtered out op by op (``worker.py``,
floors); one longer than a run moves every number of that run, whatever
is done inside it.

So every run also times two fixed kernels of the benchmark's own — one
all bytecode, one all numpy, neither calling the program under test —
before each round and after the last, and keeps each kernel's floor.
The geometric mean of the two floors over :data:`REFERENCE_MS` says how
much slower than usual the kernels ran; the workloads show
:data:`WORKLOAD_SHARE` of that, and the result is the run's *slowdown*.
The wall-clock metrics are reported divided by it (rates multiplied),
so they read as on the reference container at its usual speed.  A
change to the program cannot move the kernels, so it shows in full; a
slow phase moves both and mostly cancels.  The uncorrected values are
in every result's ``detail``.

Nothing here imports from ``src/``.
"""

from __future__ import annotations

import time
from math import sqrt

import numpy as np

#: sqrt(bytecode floor x vector floor), in ms, on the 2-core reference
#: container outside slow phases.  Fixed: it only sets the scale.
REFERENCE_MS = 0.274

#: How much of the kernels' slowdown the workloads show.  Measured per
#: workload as the slope of a round's summed op time against the kernels'
#: slowdown around it, over 150-280 rounds each: 0.5 (``sharded_scan``
#: and ``durable_ingest``, which wait for memory and the kernel more than
#: they interpret) to 1.1 (``tiered_hotspot``, nearly all bytecode).  One
#: share for all keeps the correction a single rule; it leaves a run that
#: sits wholly inside a slow phase within 15% instead of 30-60% off.
WORKLOAD_SHARE = 0.8

#: Times each kernel is run per measurement; the floor is kept.
REPEATS = 20

_VECTOR = np.arange(200_000, dtype=np.int64)


def _bytecode_kernel() -> int:
    """Dict, list and integer bytecode; no C loop of any length."""
    seen: dict[int, int] = {}
    trail: list[int] = []
    total = 0
    for i in range(3000):
        seen[i & 63] = i
        total += seen[i & 31 if i & 31 in seen else i & 63]
        trail.append(total & 255)
    return total


def _vector_kernel() -> int:
    """Three numpy passes over 1.6 MB: C loops, cache-resident."""
    return int(((_VECTOR * 3 + 1) & 1023).sum())


def _floor_ms(kernel) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


class Speed:
    """The kernels' floors over every measurement of one run."""

    def __init__(self) -> None:
        self.bytecode_ms = float("inf")
        self.vector_ms = float("inf")

    def measure(self) -> None:
        self.bytecode_ms = min(self.bytecode_ms, _floor_ms(_bytecode_kernel))
        self.vector_ms = min(self.vector_ms, _floor_ms(_vector_kernel))

    def slowdown(self) -> float:
        """How much slower than on the reference container at its usual
        speed the workloads ran: 1.0 when the kernels took the reference."""
        kernels = sqrt(self.bytecode_ms * self.vector_ms) / REFERENCE_MS
        return 1.0 + WORKLOAD_SHARE * (kernels - 1.0)
