"""Swap the kernels' parity oracles in for their production paths.

Each kernel has one production implementation in ``src/``; the code it
replaced lives on beside the tests as its oracle.  :func:`reference_paths`
patches the module attributes the production callers look up, so a
whole stack runs on the oracles inside the ``with`` body:

* the whole-page scan (:mod:`tests.core.scan_oracle`) for
  ``repro.core.scan._scan_by_extent``;
* the rendered-and-parsed dict snapshot (:mod:`tests.vm.snapshot_oracle`)
  for the rows of ``Substrate.maps_snapshot`` (``Substrate._maps_rows``
  and the native backend's override: the maps text parsed by
  ``parse_maps``) and for ``MappingSnapshot``, where the substrate base
  class looks it up;
* the per-request view-creation loop (:mod:`tests.core.creation_oracle`)
  for ``materialize_pages``, where the one view builder looks it up;
* the per-pair alignment loop (:mod:`tests.core.alignment_oracle`) for
  ``align_partial_views`` where the adaptive layer, the virtual-view
  baseline and Figure 7 look it up; it takes the production keywords
  (``observer=``, ``retry=``) and fires the same spans and hooks;
* the per-insert journal (:mod:`tests.wal.journal_oracle`: record dict
  → ``encode_record`` → ``append`` → ``CostLedger.book``) for
  ``WriteAheadLog.append`` and ``WriteAheadLog.append_row``.

:data:`production_paths` is its no-op twin, for tests that run one
workload under each.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Iterator
from unittest import mock

from repro.baselines import virtual_view_index
from repro.bench import fig7
from repro.core import adaptive, creation, scan
from repro.substrate import interface
from repro.substrate.native import NativeSubstrate
from repro.wal.log import WriteAheadLog

from .core.alignment_oracle import oracle_align_partial_views
from .core.creation_oracle import oracle_materialize_pages
from .core.scan_oracle import oracle_scan_by_extent
from .vm.snapshot_oracle import OracleMappingSnapshot, oracle_maps_rows
from .wal.journal_oracle import oracle_append, oracle_append_row

#: Run the ``with`` body on the production paths (patches nothing).
production_paths = nullcontext


@contextmanager
def reference_paths() -> Iterator[None]:
    """Run the ``with`` body on the oracles of every replaced kernel."""
    with (
        mock.patch.object(scan, "_scan_by_extent", oracle_scan_by_extent),
        mock.patch.object(interface.Substrate, "_maps_rows", oracle_maps_rows),
        mock.patch.object(NativeSubstrate, "_maps_rows", oracle_maps_rows),
        mock.patch.object(interface, "MappingSnapshot", OracleMappingSnapshot),
        mock.patch.object(creation, "materialize_pages", oracle_materialize_pages),
        mock.patch.object(adaptive, "align_partial_views", oracle_align_partial_views),
        mock.patch.object(
            virtual_view_index, "align_partial_views", oracle_align_partial_views
        ),
        mock.patch.object(fig7, "align_partial_views", oracle_align_partial_views),
        mock.patch.object(WriteAheadLog, "append", oracle_append),
        mock.patch.object(WriteAheadLog, "append_row", oracle_append_row),
    ):
        yield
