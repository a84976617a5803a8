"""Durability observability: WAL counters, fsync spans, recovery counts."""

import numpy as np

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.wal import DurabilityConfig, recover_database

CONFIG = AdaptiveConfig(background_mapping=False)


def _values() -> np.ndarray:
    return np.arange(256, dtype=np.int64)


class TestWalMetrics:
    def test_appends_and_bytes_counted(self, tmp_path):
        with AdaptiveDatabase(
            config=CONFIG, durable_dir=str(tmp_path), observe=True
        ) as db:
            db.create_table("t", {"x": _values()})
            db.insert("t", {"x": 1})
            db.insert("t", {"x": 2})
            metrics = db.observer.metrics
            appends = metrics.get("wal_appends_total").value()
            assert appends == db.wal_status()["lsn"] == 3
            assert (
                metrics.get("wal_bytes_total").value()
                == db.wal_status()["total_bytes"]
            )

    def test_fsync_counter_tracks_policy(self, tmp_path):
        with AdaptiveDatabase(
            config=CONFIG,
            durable_dir=str(tmp_path),
            durability=DurabilityConfig(fsync="always"),
            observe=True,
        ) as db:
            db.create_table("t", {"x": _values()})
            db.insert("t", {"x": 1})
            assert db.observer.metrics.get("wal_fsyncs_total").value() >= 2

    def test_fsync_off_counts_nothing(self, tmp_path):
        with AdaptiveDatabase(
            config=CONFIG,
            durable_dir=str(tmp_path),
            durability=DurabilityConfig(fsync="off"),
            observe=True,
        ) as db:
            db.create_table("t", {"x": _values()})
            db.insert("t", {"x": 1})
            assert db.observer.metrics.get("wal_fsyncs_total").value() == 0

    def test_non_durable_observed_session_stays_at_zero(self):
        with AdaptiveDatabase(config=CONFIG, observe=True) as db:
            db.create_table("t", {"x": _values()})
            db.insert("t", {"x": 1})
            assert db.observer.metrics.get("wal_appends_total").value() == 0


class TestWalSpans:
    def test_append_emits_wal_span(self, tmp_path):
        with AdaptiveDatabase(
            config=CONFIG, durable_dir=str(tmp_path), observe=True
        ) as db:
            db.create_table("t", {"x": _values()})
            spans = [s.name for s in db.observer.tracer.finished_spans()]
            assert "wal.append" in spans


class TestRecoveryObservability:
    def test_recovery_counts_and_publishes(self, tmp_path):
        """The recovery is counted once and its report tells the LSNs."""
        db = AdaptiveDatabase(config=CONFIG, durable_dir=str(tmp_path))
        db.create_table("t", {"x": _values()})
        db.insert("t", {"x": 1})
        db._wal._fh.flush()  # abandon without close

        recovered, report = recover_database(tmp_path, observe=True)
        try:
            observer = recovered.observer
            assert observer.metrics.get("recoveries_total").value() == 1
            assert report.replayed_ops == 2  # the create and the insert
            assert report.checkpoint_lsn == 0
            assert report.wal_lsn == recovered._wal.lsn
        finally:
            recovered.close()
        db.close()
