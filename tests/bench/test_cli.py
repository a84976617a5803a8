"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("fig2", "fig3", "fig4", "fig5", "table1", "fig6",
                        "fig7", "ablations", "all"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_options(self):
        args = build_parser().parse_args(
            ["fig4", "--pages", "512", "--queries", "40", "--out", "x.txt"]
        )
        assert args.pages == 512
        assert args.queries == 40
        assert args.out == "x.txt"


class TestMain:
    def test_fig2_runs_and_prints(self, capsys):
        assert main(["fig2", "--pages", "256"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "finished in" in out

    def test_fig6_runs(self, capsys):
        assert main(["fig6", "--pages", "256"]) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_out_file_written(self, capsys, tmp_path):
        out_file = tmp_path / "report.txt"
        assert main(["fig2", "--pages", "256", "--out", str(out_file)]) == 0
        assert "Figure 2" in out_file.read_text()

    def test_fig5_respects_query_count(self, capsys):
        assert main(["fig5", "--pages", "512", "--queries", "30"]) == 0
        assert "30 queries" in capsys.readouterr().out

    def test_analytic_command(self, capsys):
        assert main(["analytic"]) == 0
        assert "paper-scale predictions" in capsys.readouterr().out

    def test_export_then_regress(self, capsys, tmp_path):
        out = tmp_path / "suite"
        assert main(
            ["export", str(out), "--pages", "256", "--queries", "15"]
        ) == 0
        assert (out / "manifest.json").exists()
        capsys.readouterr()
        # identical suites: regress passes with exit code 0
        assert main(["regress", str(out), str(out)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_regress_detects_changes(self, capsys, tmp_path):
        import json

        a = tmp_path / "a"
        assert main(["export", str(a), "--pages", "256", "--queries", "15"]) == 0
        b = tmp_path / "b"
        b.mkdir()
        for path in a.iterdir():
            (b / path.name).write_text(path.read_text())
        fig6 = json.loads((b / "fig6.json").read_text())
        fig6["points"][0]["elapsed_ms"] *= 3
        (b / "fig6.json").write_text(json.dumps(fig6))
        capsys.readouterr()
        assert main(["regress", str(a), str(b)]) == 1
        assert "regressed" in capsys.readouterr().out


class TestBackendsCommand:
    def test_backends_registered(self):
        args = build_parser().parse_args(["backends"])
        assert args.command == "backends"

    def test_backends_reports_both_backends(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "substrate backends" in out
        assert "simulated : available" in out
        assert "native    :" in out
        assert "observe    :" in out

    def test_backends_matches_is_supported(self, capsys):
        from repro.native import is_supported

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        expected = "available" if is_supported() else "unavailable"
        assert f"native    : {expected}" in out
