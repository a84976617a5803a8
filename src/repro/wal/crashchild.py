"""Subprocess workload for the real-SIGKILL crash harness.

``python -m repro.wal.crashchild DIR SEED COUNT [BACKEND]`` opens (or
creates) a durable database in ``DIR``, journals ``COUNT`` seeded
inserts, and prints one flushed ``acked <i> <value>`` line *after* each
write returns — i.e. after the WAL append the ack contract requires.
The parent test SIGKILLs the process mid-stream, recovers the
directory, and asserts every acked value is present: lines the kernel
delivered are writes the log must replay.

After each ``acked`` line the child waits for a one-byte go-ahead on
stdin, which the parent writes once it has read the line.  The child is
therefore never more than one insert ahead of the acks the parent holds,
however the two processes are scheduled, and a kill sent right after a
go-ahead still lands anywhere inside the next insert.  End-of-file on
stdin (the parent is gone) ends the stream early.
"""

from __future__ import annotations

import sys

import numpy as np

from ..core.facade import AdaptiveDatabase
from .config import DurabilityConfig

TABLE = "crash"


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(
            "usage: python -m repro.wal.crashchild DIR SEED COUNT [BACKEND]",
            file=sys.stderr,
        )
        return 2
    durable_dir = argv[0]
    seed = int(argv[1])
    count = int(argv[2])
    backend = argv[3] if len(argv) > 3 else "simulated"

    rng = np.random.default_rng(seed)
    db = AdaptiveDatabase(
        backend=backend,
        durable_dir=durable_dir,
        # fsync never blocks the harness: SIGKILL keeps the page cache,
        # so "off" exercises the pure append/ack path at full speed.
        durability=DurabilityConfig(fsync="off"),
    )
    # "v" before "k": not alphabetical, so a replay that lost the
    # definition order would swap the positional row values.
    db.create_table(
        TABLE,
        {"v": np.zeros(4, dtype=np.int64), "k": np.arange(4, dtype=np.int64)},
    )
    print("ready", flush=True)
    for i in range(count):
        value = int(rng.integers(0, 1_000_000))
        db.insert(TABLE, {"k": 1000 + i, "v": value})
        print(f"acked {i} {value}", flush=True)
        if not sys.stdin.read(1):
            break
    db.close()
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
