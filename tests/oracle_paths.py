"""Swap the kernels' parity oracles in for their production paths.

Each kernel has one production implementation in ``src/``; the code it
replaced lives on beside the tests as its oracle.  :func:`reference_paths`
patches the module attributes the production callers look up, so a
whole stack runs on the oracles inside the ``with`` body:

* the whole-page scan (:mod:`tests.core.scan_oracle`) for
  ``repro.core.scan._scan_by_extent``;
* the rendered-and-parsed dict snapshot (:mod:`tests.vm.snapshot_oracle`)
  for ``snapshot_address_space`` (in ``repro.vm.procmaps`` and where the
  simulated backend imported it) and for ``MappingSnapshot`` on the
  native one;
* the per-request view-creation loop (:mod:`tests.core.creation_oracle`)
  for ``materialize_pages``.

:data:`production_paths` is its no-op twin, for tests that run one
workload under each.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Iterator
from unittest import mock

from repro.core import adaptive, maintenance, scan
from repro.substrate import native, simulated
from repro.vm import procmaps

from .core.creation_oracle import oracle_materialize_pages
from .core.scan_oracle import oracle_scan_by_extent
from .vm.snapshot_oracle import OracleMappingSnapshot, oracle_snapshot_address_space

#: Run the ``with`` body on the production paths (patches nothing).
production_paths = nullcontext


@contextmanager
def reference_paths() -> Iterator[None]:
    """Run the ``with`` body on the oracles of every replaced kernel."""
    with (
        mock.patch.object(scan, "_scan_by_extent", oracle_scan_by_extent),
        mock.patch.object(
            procmaps, "snapshot_address_space", oracle_snapshot_address_space
        ),
        mock.patch.object(
            simulated, "snapshot_address_space", oracle_snapshot_address_space
        ),
        mock.patch.object(native, "MappingSnapshot", OracleMappingSnapshot),
        mock.patch.object(adaptive, "materialize_pages", oracle_materialize_pages),
        mock.patch.object(maintenance, "materialize_pages", oracle_materialize_pages),
    ):
        yield
