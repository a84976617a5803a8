"""Checkpointing an adaptive database to disk (extension).

The paper's system is purely in-memory; production deployments need a
way to survive restarts.  A checkpoint stores every table's column
values plus the *adaptive state* — each column's partial view ranges —
so a reloaded database starts with warm views instead of re-learning the
workload from scratch.

Format: one ``.npz`` archive (stored, not deflated; archives written
deflated load the same) containing the column arrays plus a JSON
manifest (schema, config, view ranges).  Only value ranges are stored
for views; their page sets are rebuilt deterministically at load time by
the normal creation path, which also re-establishes correct mappings for
data that changed since the checkpoint was taken.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from ..faults.errors import SubstrateFault
from .config import AdaptiveConfig, RoutingMode
from .creation import build_view
from .facade import AdaptiveDatabase
from .routing import scan_views

#: Manifest format version (bump on breaking changes).  Version 2 adds
#: tombstone bitmaps, the staged-row flush before save, and the
#: ``wal_lsn`` watermark the recovery path replays from.
CHECKPOINT_VERSION = 2

#: Versions :func:`load_database` understands.  Version-1 archives
#: (no tombstones, no ``wal_lsn``) load as fully-live tables with a
#: zero watermark.
SUPPORTED_VERSIONS = (1, 2)

_MANIFEST_KEY = "__manifest__"


def save_database(
    db: AdaptiveDatabase, path: str, wal_lsn: int | None = None
) -> None:
    """Write a checkpoint of ``db`` (data + schema + view ranges).

    Staged write-buffer rows are merged first and tombstone bitmaps are
    persisted, so a checkpoint round-trips a post-insert/delete
    database exactly.  ``wal_lsn`` stamps the log position the archive
    is consistent with (recovery replays everything after it).
    """
    for table_name in list(db._write_buffers):
        db.flush_inserts(table_name)
    arrays: dict[str, np.ndarray] = {}
    manifest: dict = {
        "version": CHECKPOINT_VERSION,
        "config": _config_to_dict(db.config),
        "wal_lsn": int(wal_lsn or 0),
        "tables": {},
    }
    for table in db.catalog.tables():
        table_meta: dict = {"columns": {}}
        tombstones = table.tombstones.mask()
        if tombstones is not None:
            key = f"{table.name}::__tombstones__"
            arrays[key] = tombstones
            table_meta["tombstones"] = key
        for column_name, column in table.columns.items():
            key = f"{table.name}::{column_name}"
            arrays[key] = column.values()
            layer_key = (table.name, column_name)
            views = []
            generation_stopped = False
            if layer_key in db._layers:
                index = db._layers[layer_key].view_index
                views = [[view.lo, view.hi] for view in index.partial_views]
                generation_stopped = index.generation_stopped
            table_meta["columns"][column_name] = {
                "array": key,
                "views": views,
                "generation_stopped": generation_stopped,
            }
        manifest["tables"][table.name] = table_meta

    arrays[_MANIFEST_KEY] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    # Stored, not deflated: random int64 columns barely compress, and
    # deflating them costs tens of ms a checkpoint.  np.load reads
    # either kind.
    np.savez(path, **arrays)


def load_database(
    path: str, backend: str | object = "simulated", **db_kwargs
) -> AdaptiveDatabase:
    """Reload a checkpoint: recreate tables and rebuild the views warm.

    ``backend`` selects the substrate the restored database runs on —
    a backend name or a pre-built substrate (e.g. a
    :class:`~repro.faults.FaultySubstrate` for recovery testing).
    Extra keyword arguments pass through to the
    :class:`AdaptiveDatabase` constructor; with ``durable_dir=`` set,
    the reload itself is not re-journaled (the checkpoint already
    covers it) and the manifest's ``wal_lsn`` watermark is exposed as
    ``db._checkpoint_wal_lsn`` for the recovery replay.
    """
    with np.load(path) as archive:
        manifest = json.loads(bytes(archive[_MANIFEST_KEY].tobytes()).decode("utf-8"))
        if manifest.get("version") not in SUPPORTED_VERSIONS:
            raise ValueError(
                f"unsupported checkpoint version: {manifest.get('version')}"
            )
        db = AdaptiveDatabase(
            _config_from_dict(manifest["config"]), backend=backend, **db_kwargs
        )
        restore_guard = db._wal is not None
        if restore_guard:
            db._replaying = True
        try:
            for table_name, table_meta in manifest["tables"].items():
                data = {
                    column_name: archive[column_meta["array"]]
                    for column_name, column_meta in table_meta["columns"].items()
                }
                db.create_table(table_name, data)
                tombstone_key = table_meta.get("tombstones")
                if tombstone_key is not None:
                    db.table(table_name).tombstones.restore(
                        archive[tombstone_key]
                    )
                for column_name, column_meta in table_meta["columns"].items():
                    if (
                        not column_meta["views"]
                        and not column_meta["generation_stopped"]
                    ):
                        continue
                    layer = db.layer(table_name, column_name)
                    _rebuild_views(layer, column_meta["views"])
                    layer.view_index.generation_stopped = column_meta[
                        "generation_stopped"
                    ]
        finally:
            if restore_guard:
                db._replaying = False
        db._checkpoint_wal_lsn = int(manifest.get("wal_lsn", 0))
    return db


def _rebuild_views(layer, ranges: list[list[int]]) -> None:
    """Recreate partial views for the checkpointed value ranges.

    A substrate fault while rebuilding one view rolls that view back
    and skips it — the restored database stays consistent (the full
    view answers its range) and simply re-learns the view later.
    """
    column = layer.column
    index = layer.view_index
    for lo, hi in ranges:
        routed = scan_views(column, [index.full_view], lo, hi)
        try:
            view, _ = build_view(
                column,
                lo,
                hi,
                routed.qualifying_fpages,
                coalesce=layer.config.coalesce_mmap,
            )
        except SubstrateFault:
            index.record_fault(lo, hi)
            continue
        index.insert(view)


def _config_to_dict(config: AdaptiveConfig) -> dict:
    out = asdict(config)
    out["mode"] = config.mode.value
    out["eviction"] = config.eviction.value
    return out


def _config_from_dict(data: dict) -> AdaptiveConfig:
    from .config import EvictionPolicy

    data = dict(data)
    data["mode"] = RoutingMode(data["mode"])
    if "eviction" in data:
        data["eviction"] = EvictionPolicy(data["eviction"])
    return AdaptiveConfig(**data)
