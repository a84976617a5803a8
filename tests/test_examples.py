"""Smoke tests: the example scripts run end to end.

Each example is executed in a subprocess exactly as a user would run it.
Only the quicker examples run here (the full-suite drivers are exercised
by the benchmarks); each must exit cleanly and print its key lines.
"""

import pathlib
import subprocess
import sys

from repro.native import is_supported

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "routed to the new partial view" in out
        assert "partial views now held" in out

    def test_sql_session(self):
        out = run_example("sql_session.py")
        assert "partial view" in out
        assert "views realigned" in out

    def test_native_rewiring_demo(self):
        out = run_example("native_rewiring_demo.py")
        if not is_supported():
            assert "not supported on this platform" in out
            return
        assert "write 4242 through view[6], read via view[0]: 4242" in out
        assert "...and via the file: 4242" in out

    def test_snapshot_analytics(self):
        out = run_example("snapshot_analytics.py")
        assert "consistent" in out
        assert "conserved" in out

    def test_explicit_vs_virtual(self):
        out = run_example("explicit_vs_virtual.py")
        assert "identical rows" in out
        assert "virtual_view" in out

    def test_traced_query_session(self):
        out = run_example("traced_query_session.py")
        assert "simulated-time decomposition" in out
        assert "query " in out and "scan-view" in out
        assert "queries_total 24" in out

    def test_served_session(self):
        out = run_example("served_session.py")
        assert "snapshot 1 pinned" in out
        assert "repeatable read = True" in out
        assert "writer sees the moved state = True" in out
        assert "session shed (capacity; health=healthy)" in out

    def test_checkpoint_and_replay(self):
        out = run_example("checkpoint_and_replay.py")
        assert "no cold start" in out
        assert "replaying" in out
