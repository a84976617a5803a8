"""Real-process crash harness: SIGKILL the child, recover, check acks.

The child (``repro.wal.crashchild``) prints a flushed ``acked i value``
line only *after* each insert returns — after the WAL append the ack
contract requires. A line the parent read is therefore a write the
recovered database must contain, no matter where the kill landed.

The child then waits for a go-ahead byte on stdin, written here after
each line is read, so it is at most one insert ahead of the acks this
process holds whatever the scheduler does: the bound on the recovered
rows rests on that handshake, not on timing.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.native import is_supported as native_supported
from repro.wal import recover_database
from repro.wal.crashchild import TABLE

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")
KILL_AFTER_ACKS = 10
CHILD_COUNT = 100_000  # far more than the parent ever lets it finish
GO_AHEAD = "\n"


def _spawn_child(durable_dir: str, seed: int, backend: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.wal.crashchild",
            durable_dir,
            str(seed),
            str(CHILD_COUNT),
            backend,
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )


def _kill_after_acks(proc, n: int) -> list[tuple[int, int]]:
    """Read ``n`` ack lines then SIGKILL; returns the acked pairs.

    Every line, the last included, is answered with the go-ahead, so the
    kill races the child's next insert: that one may land or not.
    """
    acked: list[tuple[int, int]] = []
    line = proc.stdout.readline().strip()
    assert line == "ready", f"child failed to start: {line!r}\n{proc.stderr.read()}"
    for _ in range(n):
        line = proc.stdout.readline().strip()
        assert line.startswith("acked "), line
        _, i, value = line.split()
        acked.append((int(i), int(value)))
        proc.stdin.write(GO_AHEAD)
        proc.stdin.flush()
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL
    return acked


def _recovered_pairs(durable_dir, backend: str) -> dict[int, int]:
    db, report = recover_database(durable_dir, backend=backend)
    try:
        audit = db.audit()
        assert audit.ok, audit.render()
        keys = db.query(TABLE, "k", 1000, 2_000_000)
        values = db.query(TABLE, "v", -1, 2_000_000)
        by_rowid = dict(
            zip((int(r) for r in values.rowids), (int(v) for v in values.values))
        )
        return {
            int(k) - 1000: by_rowid[int(r)]
            for k, r in zip(keys.values, keys.rowids)
        }
    finally:
        db.close()


def _run_harness(tmp_path, backend: str) -> None:
    proc = _spawn_child(str(tmp_path), seed=1234, backend=backend)
    try:
        acked = _kill_after_acks(proc, KILL_AFTER_ACKS)
    finally:
        if proc.poll() is None:  # belt and braces: never leak the child
            proc.kill()
            proc.wait(timeout=30)
    assert len(acked) == KILL_AFTER_ACKS
    recovered = _recovered_pairs(tmp_path, backend)
    for i, value in acked:
        assert recovered.get(i) == value, (
            f"acked insert {i}={value} lost after SIGKILL "
            f"(recovered {len(recovered)} rows)"
        )
    # At most one in-limbo insert beyond the acked prefix.
    assert len(recovered) <= acked[-1][0] + 2


class TestSigkillRecovery:
    def test_simulated_backend_survives_sigkill(self, tmp_path):
        _run_harness(tmp_path, "simulated")

    @pytest.mark.skipif(
        not native_supported(), reason="native mmap backend unavailable"
    )
    def test_native_backend_survives_sigkill(self, tmp_path):
        _run_harness(tmp_path, "native")

    def test_child_acks_match_its_seeded_stream(self, tmp_path):
        """The acked values are the seeded stream — the harness really
        observes the child's writes, not an echo."""
        proc = _spawn_child(str(tmp_path), seed=77, backend="simulated")
        try:
            acked = _kill_after_acks(proc, 5)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        rng = np.random.default_rng(77)
        want = [int(rng.integers(0, 1_000_000)) for _ in range(5)]
        assert [v for _, v in acked] == want

    def test_child_stops_at_end_of_file_on_stdin(self, tmp_path):
        """With no parent left to send the go-ahead the child ends its
        stream after the insert in flight instead of running on."""
        proc = _spawn_child(str(tmp_path), seed=77, backend="simulated")
        out, err = proc.communicate(input="", timeout=60)
        assert proc.returncode == 0, err
        assert [line.split()[0] for line in out.splitlines()] == [
            "ready",
            "acked",
            "done",
        ]
