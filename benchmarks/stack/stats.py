"""Pure arithmetic for stackbench: percentiles, spreads and verdicts.

No imports from ``src/`` and none from ``trace.py``; ``--selftest``
exercises everything here on synthetic numbers.
"""

from __future__ import annotations

import statistics

#: A percentile is reported only when this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10

#: Percentiles a tail metric may fall back through, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def supported_percentile(n: int, cap: float = 100.0) -> float:
    """Highest percentile <= ``cap`` with >= 10 of ``n`` samples beyond it."""
    for p in TAIL_PERCENTILES:
        # rounded: 100.0 - 99.9 is not exactly 0.1
        if p <= cap and round(n * (100.0 - p) / 100.0, 6) >= MIN_SAMPLES_BEYOND:
            return p
    return TAIL_PERCENTILES[-1]


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile ``p`` (0-100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's runs."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule).

    Unknown (infinite) for fewer than two runs; zero when every run
    reads the same, even when that reading is zero.
    """
    if len(values) < 2:
        return float("inf")
    summary = summarize(values)
    iqr = summary["q3"] - summary["q1"]
    if iqr == 0:
        return 0.0
    if summary["median"] == 0:
        return float("inf")
    return abs(iqr / summary["median"])


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``.

    Negative when ``new`` is better.  With a zero base any worsening
    is infinite (the ``failed_share`` rule: any increase counts).
    """
    delta = new - base if better == "lower" else base - new
    if delta == 0:
        return 0.0
    if base == 0:
        return float("inf") if delta > 0 else float("-inf")
    return delta / abs(base)


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """One (workload, metric) row of ``compare``.

    With both sides' run-to-run spread inside the bound, the medians
    decide: ``regression`` when the new one is worse by more than the
    bound, ``better`` when it is better by more, else ``unchanged``.
    When either spread exceeds the bound the row is ``unresolved`` —
    not ``unchanged`` — unless the sides do not overlap at all: every
    new run better than every base run is ``better``, every new run
    worse a ``regression``.  A zero bound (``failed_share``) means any
    increase counts, so there the means are compared — one failing run
    in five moves no median.
    """
    if bound == 0:
        change = worse_by(statistics.fmean(base), statistics.fmean(new), better)
        return "regression" if change > 0 else "better" if change < 0 else "unchanged"
    change = worse_by(statistics.median(base), statistics.median(new), better)
    if max(spread(base), spread(new)) > bound:
        low, high = (new, base) if better == "lower" else (base, new)
        if max(low) < min(high):
            return "better"
        if max(high) < min(low) and change > bound:
            return "regression"
        return "unresolved"
    if change > bound:
        return "regression"
    return "better" if change < -bound else "unchanged"
