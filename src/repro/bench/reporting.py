"""Plain-text reporting of experiment results.

Renders ASCII tables and compact per-phase series so every benchmark can
print "the same rows/series the paper reports" next to the paper's own
numbers (see :mod:`repro.bench.paper`).
"""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Render a list of rows as an aligned ASCII table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match header width")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.rjust(w) for c, w in zip(cells, widths)) + " |"

    sep = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    out = []
    if title:
        out.append(title)
    out.extend([sep, line(list(headers)), sep])
    out.extend(line(row) for row in str_rows)
    out.append(sep)
    return "\n".join(out)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:,.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    if isinstance(cell, int):
        return f"{cell:,}"
    return str(cell)


def format_phases(label: str, phases: Sequence[float], unit: str = "ms") -> str:
    """Render per-phase means as one compact line."""
    cells = " -> ".join(f"{p:.3f}" for p in phases)
    return f"{label:<24} [{unit}/query by phase] {cells}"


def sparkline(series: Sequence[float], width: int = 60) -> str:
    """Down-sample a series into a unicode sparkline (report garnish)."""
    if not series:
        return ""
    blocks = "▁▂▃▄▅▆▇█"
    if len(series) > width:
        chunk = len(series) / width
        sampled = [
            max(series[int(i * chunk) : max(int((i + 1) * chunk), int(i * chunk) + 1)])
            for i in range(width)
        ]
    else:
        sampled = list(series)
    lo, hi = min(sampled), max(sampled)
    span = (hi - lo) or 1.0
    return "".join(blocks[int((v - lo) / span * (len(blocks) - 1))] for v in sampled)
