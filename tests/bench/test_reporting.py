"""Unit tests for the plain-text reporting helpers."""

import pytest

from repro.bench.reporting import (
    format_phases,
    format_table,
    sparkline,
)


class TestFormatTable:
    def test_alignment(self):
        out = format_table(
            ["name", "value"],
            [["a", 1], ["bbbb", 22.5]],
            title="demo",
        )
        lines = out.splitlines()
        assert lines[0] == "demo"
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows equally wide

    def test_number_formatting(self):
        out = format_table(["v"], [[1234567], [0.12345], [3.14159], [0]])
        assert "1,234,567" in out
        assert "0.1235" in out or "0.1234" in out
        assert "3.14" in out

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows(self):
        out = format_table(["a"], [])
        assert "a" in out


class TestOtherFormatters:
    def test_format_phases(self):
        line = format_phases("sine", [1.0, 0.5])
        assert "sine" in line
        assert "1.000 -> 0.500" in line

    def test_sparkline_shape(self):
        line = sparkline([0, 1, 2, 3], width=4)
        assert len(line) == 4
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_sparkline_downsamples(self):
        line = sparkline(list(range(1000)), width=10)
        assert len(line) == 10

    def test_sparkline_constant_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_sparkline_empty(self):
        assert sparkline([]) == ""
