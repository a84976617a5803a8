"""Tests for the interactive SQL shell (driven via StringIO)."""

import io

from repro.sql.repl import run_repl


def run_script(script: str) -> str:
    stdout = io.StringIO()
    code = run_repl(stdin=io.StringIO(script), stdout=stdout)
    assert code == 0
    return stdout.getvalue()


class TestRepl:
    def test_create_insert_select(self):
        out = run_script(
            "CREATE TABLE t (a, b);\n"
            "INSERT INTO t VALUES (1, 10), (2, 20);\n"
            "SELECT b FROM t WHERE a = 2;\n"
        )
        assert "table t created" in out
        assert "2 rows inserted" in out
        assert "| 20 |" in out
        assert "(1 rows)" in out

    def test_multiline_statement(self):
        out = run_script(
            "CREATE TABLE t (a);\n"
            "INSERT INTO t VALUES (5);\n"
            "SELECT a\n"
            "FROM t\n"
            "WHERE a = 5;\n"
        )
        assert "| 5 |" in out

    def test_error_is_reported_and_session_continues(self):
        out = run_script(
            "SELECT * FROM ghost;\n"
            "CREATE TABLE t (a);\n"
            "INSERT INTO t VALUES (1);\n"
            "SELECT COUNT(a) FROM t;\n"
        )
        assert "error:" in out
        assert "count(a)" in out and "1" in out

    def test_cost_meta_command(self):
        out = run_script("\\cost\n")
        assert "accumulated simulated time" in out

    def test_quit_commands(self):
        for quit_cmd in ("\\q", "exit", "quit"):
            out = run_script(f"{quit_cmd}\nSELECT 1;\n")
            assert "bye" in out
            # nothing after the quit command ran
            assert "error" not in out

    def test_blank_lines_ignored(self):
        out = run_script("\n\n\\cost\n")
        assert "accumulated simulated time" in out

    def test_eof_exits_cleanly(self):
        assert "bye" in run_script("")
