"""Global switch between the wall-clock fast paths and the reference paths.

The substrate has two implementations of several hot operations:

* the **fast path** (default) — the extent-first scan kernel and the
  column-built :class:`~repro.vm.procmaps.MappingSnapshot`;
* the **reference path** — the straightforward per-page implementations
  the fast paths were derived from.

Both paths charge *exactly* the same simulated cost to the
:class:`~repro.vm.cost.CostLedger` and produce bit-identical results;
the property tests in ``tests/core/test_fastpath_parity.py`` enforce
this.  The toggle exists purely so that the parity can be asserted and
so that regressions can be bisected: end users never need to turn the
fast paths off.

Set the environment variable ``REPRO_FAST_PATHS=0`` to start with the
reference paths, or use :func:`set_enabled` / :func:`reference_paths`
from tests.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

#: Environment variable controlling the startup default.
ENV_VAR = "REPRO_FAST_PATHS"

_enabled: bool = os.environ.get(ENV_VAR, "1").lower() not in (
    "0",
    "false",
    "off",
)


def enabled() -> bool:
    """Whether the wall-clock fast paths are active (default: yes)."""
    return _enabled


def set_enabled(flag: bool) -> bool:
    """Switch fast paths on/off; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


@contextmanager
def reference_paths() -> Iterator[None]:
    """Run the ``with`` body on the reference (per-page) paths."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


@contextmanager
def fast_paths() -> Iterator[None]:
    """Run the ``with`` body on the fast paths (useful inside tests)."""
    previous = set_enabled(True)
    try:
        yield
    finally:
        set_enabled(previous)
