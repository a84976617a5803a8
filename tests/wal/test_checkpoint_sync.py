"""A checkpoint is durable before the log behind it is pruned.

Under ``batch`` and ``always`` the archive is fsynced before its rename
and the directory after it, and only then are covered segments
unlinked; under ``off`` neither sync happens.  Neither sync is charged
to the ledger.  The archive is stored, not deflated, and an archive
written deflated (as earlier versions did) still loads.
"""

from __future__ import annotations

import os
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.core import checkpoint as checkpoint_module
from repro.core.checkpoint import load_database, save_database
from repro.core.config import AdaptiveConfig
from repro.core.facade import CHECKPOINT_FILE, AdaptiveDatabase
from repro.wal import DurabilityConfig, recover_database

CONFIG = AdaptiveConfig(background_mapping=False)


def _filled(directory, policy: str) -> AdaptiveDatabase:
    db = AdaptiveDatabase(
        config=CONFIG,
        durable_dir=str(directory),
        durability=DurabilityConfig(fsync=policy, segment_bytes=256),
    )
    db.create_table("t", {"k": np.arange(64, dtype=np.int64), "v": np.zeros(64, dtype=np.int64)})
    for i in range(40):
        db.insert("t", {"k": 1000 + i, "v": i})
    return db


def _record_calls(monkeypatch) -> list[tuple[str, str]]:
    """Log ``os.fsync`` (by the path its fd names), ``os.replace`` and
    ``Path.unlink`` in call order; each still does its work."""
    calls: list[tuple[str, str]] = []
    fsync, replace, unlink = os.fsync, os.replace, Path.unlink

    def recorded_fsync(fd):
        calls.append(("fsync", os.readlink(f"/proc/self/fd/{fd}")))
        return fsync(fd)

    def recorded_replace(src, dst, *args, **kwargs):
        calls.append(("replace", os.fspath(dst)))
        return replace(src, dst, *args, **kwargs)

    def recorded_unlink(self, *args, **kwargs):
        calls.append(("unlink", str(self)))
        return unlink(self, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", recorded_fsync)
    monkeypatch.setattr(os, "replace", recorded_replace)
    monkeypatch.setattr(Path, "unlink", recorded_unlink)
    return calls


@pytest.mark.parametrize("policy", ["always", "batch", "off"])
def test_the_archive_and_its_rename_are_synced_before_any_prune(tmp_path, monkeypatch, policy):
    root = os.path.realpath(tmp_path)
    db = _filled(tmp_path, policy)
    fsyncs_before = db.cost.ledger.counter("fsyncs")
    calls = _record_calls(monkeypatch)
    db.checkpoint()
    monkeypatch.undo()

    tmp = os.path.join(root, "checkpoint.tmp.npz")
    final = os.path.join(root, CHECKPOINT_FILE)
    kinds = [kind for kind, _ in calls]
    assert ("replace", final) in calls
    assert "unlink" in kinds, "the checkpoint pruned no segment"
    first_unlink = kinds.index("unlink")
    replaced = calls.index(("replace", final))
    if policy == "off":
        assert ("fsync", tmp) not in calls
        assert ("fsync", root) not in calls
        assert "fsync" not in kinds[:first_unlink]
    else:
        assert calls.index(("fsync", tmp)) < replaced
        assert replaced < calls.index(("fsync", root)) < first_unlink
    # The two syncs are uncharged: the ledger counts the log's own only.
    segment_syncs = sum(
        1 for kind, path in calls if kind == "fsync" and path.endswith(".seg")
    )
    assert db.cost.ledger.counter("fsyncs") - fsyncs_before == segment_syncs
    db.close()


def test_archives_are_stored_and_deflated_ones_still_load(tmp_path, monkeypatch):
    stored, deflated = str(tmp_path / "stored.npz"), str(tmp_path / "deflated.npz")
    with AdaptiveDatabase(config=CONFIG) as db:
        db.create_table("t", {"k": np.arange(5000, dtype=np.int64) % 977})
        db.insert("t", {"k": 5})
        db.flush_inserts("t")
        db.query("t", "k", 10, 40)  # a warm view for the archive to carry
        views = [(v.lo, v.hi) for v in db.layer("t", "k").view_index.partial_views]
        assert views
        save_database(db, stored, wal_lsn=7)
        # What earlier versions wrote: the same archive, deflated.
        monkeypatch.setattr(checkpoint_module.np, "savez", np.savez_compressed)
        save_database(db, deflated, wal_lsn=7)
        monkeypatch.undo()
        want = db.query("t", "k", 0, 1000)
    kinds = {}
    for path in (stored, deflated):
        with zipfile.ZipFile(path) as archive:
            kinds[path] = {info.compress_type for info in archive.infolist()}
    assert kinds[stored] == {zipfile.ZIP_STORED}
    assert kinds[deflated] == {zipfile.ZIP_DEFLATED}
    for path in (stored, deflated):
        loaded = load_database(path)
        try:
            got = loaded.query("t", "k", 0, 1000)
            assert sorted(got.rowids.tolist()) == sorted(want.rowids.tolist())
            assert loaded._checkpoint_wal_lsn == 7
            index = loaded.layer("t", "k").view_index
            assert [(v.lo, v.hi) for v in index.partial_views] == views
        finally:
            loaded.close()


def test_recovery_reads_a_deflated_checkpoint_plus_its_tail(tmp_path, monkeypatch):
    db = _filled(tmp_path, "batch")
    monkeypatch.setattr(checkpoint_module.np, "savez", np.savez_compressed)
    db.checkpoint()
    monkeypatch.undo()
    db.insert("t", {"k": 9999, "v": 1})
    want = sorted(db.query("t", "k", 0, 10_000).values.tolist())
    db.close()
    with zipfile.ZipFile(tmp_path / CHECKPOINT_FILE) as archive:
        assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_DEFLATED}
    recovered, report = recover_database(tmp_path)
    try:
        assert not report.started_cold
        assert sorted(recovered.query("t", "k", 0, 10_000).values.tolist()) == want
    finally:
        recovered.close()
