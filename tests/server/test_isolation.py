"""Snapshot isolation: pinned readers get repeatable, oracle-exact reads."""

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.server import DatabaseManager, SessionOptions, result_digest
from repro.vm.constants import VALUES_PER_PAGE

NUM_PAGES = 8
NUM_ROWS = NUM_PAGES * VALUES_PER_PAGE
FULL_RANGE = (0, 2_000_000)


def _values() -> np.ndarray:
    return np.arange(NUM_ROWS, dtype=np.int64)


def _digest_of(values: np.ndarray, deleted: np.ndarray | None = None) -> str:
    """Numpy oracle: the digest a full-domain query must return."""
    rowids = np.arange(values.size, dtype=np.int64)
    if deleted is not None:
        rowids = rowids[~deleted]
        values = values[~deleted]
    return result_digest(rowids, values)


@pytest.fixture
def manager():
    with DatabaseManager() as mgr:
        db = mgr.create_database(
            config=AdaptiveConfig(background_mapping=False)
        )
        db.create_table("t", {"x": _values()})
        yield mgr


class TestSnapshotReads:
    def test_pinned_reader_is_repeatable_across_flushed_writes(self, manager):
        """The acceptance scenario: reader pins, a writer interleaves
        update+flush cycles, and every pinned read answers the pin-time
        state exactly (checked against the numpy oracle)."""
        reader = manager.open_session()
        writer = manager.open_session()

        pin_oracle = _digest_of(_values())
        pinned = reader.snapshot("t", "x")
        assert pinned.ok
        assert pinned.data["table"] == "t"

        live = _values()
        for step in range(4):
            row = step * VALUES_PER_PAGE + 7
            value = 1_000_000 + step
            assert writer.update("t", "x", row, value).ok  # autocommit flush
            live[row] = value

            view = reader.query("t", "x", *FULL_RANGE)
            assert view.ok
            assert view.data["snapshot"] is True
            assert view.data["rows"] == NUM_ROWS
            assert view.data["checksum"] == pin_oracle

        # The live state really did move underneath the snapshot.
        fresh = writer.query("t", "x", *FULL_RANGE)
        assert fresh.data["checksum"] == _digest_of(live)
        assert fresh.data["checksum"] != pin_oracle

        reader.close()
        writer.close()

    def test_release_returns_to_the_live_state(self, manager):
        with manager.open_session() as reader, manager.open_session() as writer:
            reader.snapshot("t", "x")
            writer.update("t", "x", 5, 1_234_567)
            live = _values()
            live[5] = 1_234_567

            pinned_view = reader.query("t", "x", *FULL_RANGE)
            assert pinned_view.data["checksum"] == _digest_of(_values())

            released = reader.release_snapshot("t", "x")
            assert released.ok
            assert released.data["copied_pages"] >= 1

            live_view = reader.query("t", "x", *FULL_RANGE)
            assert live_view.data["snapshot"] is False
            assert live_view.data["checksum"] == _digest_of(live)

    def test_pinned_reader_ignores_later_deletes(self, manager):
        with manager.open_session() as reader, manager.open_session() as writer:
            reader.snapshot("t", "x")
            assert writer.delete("t", "x", 100, 199).data["deleted"] == 100

            pinned_view = reader.query("t", "x", *FULL_RANGE)
            assert pinned_view.data["rows"] == NUM_ROWS
            assert pinned_view.data["checksum"] == _digest_of(_values())

            deleted = np.zeros(NUM_ROWS, dtype=bool)
            deleted[100:200] = True
            live_view = writer.query("t", "x", *FULL_RANGE)
            assert live_view.data["rows"] == NUM_ROWS - 100
            assert live_view.data["checksum"] == _digest_of(
                _values(), deleted
            )

    def test_pin_time_tombstones_are_honoured(self, manager):
        with manager.open_session() as session:
            session.delete("t", "x", 0, 49)
            session.snapshot("t", "x")
            deleted = np.zeros(NUM_ROWS, dtype=bool)
            deleted[0:50] = True
            view = session.query("t", "x", *FULL_RANGE)
            assert view.data["rows"] == NUM_ROWS - 50
            assert view.data["checksum"] == _digest_of(_values(), deleted)

    def test_snapshot_shields_reader_from_batched_writer(self, manager):
        """Values land in the pages at write time (pending updates are
        view alignment, not visibility) — the snapshot still answers
        pin time through the whole batch-then-commit cycle."""
        options = SessionOptions(autocommit=False)
        db = manager.database()
        with manager.open_session(options=options) as writer:
            with manager.open_session() as reader:
                reader.snapshot("t", "x")
                assert writer.update("t", "x", 9, 1_111_111).data == {
                    "old_value": 9,
                    "flushed": False,
                }
                assert len(db.table("t").pending_updates("x")) == 1

                live = _values()
                live[9] = 1_111_111
                # A live read aligns the batch and sees the new value...
                assert (
                    writer.query("t", "x", *FULL_RANGE).data["checksum"]
                    == _digest_of(live)
                )
                writer.commit()
                # ... while the pinned reader still answers pin time.
                pinned_view = reader.query("t", "x", *FULL_RANGE)
                assert pinned_view.data["checksum"] == _digest_of(_values())


class TestTieredSnapshotIsolation:
    """Bit-identity regression: pinning over a :class:`TieredPageStore`
    answers pin time while demotion/promotion churns the placement."""

    @pytest.fixture
    def tiered_manager(self):
        from repro.tier import TierConfig

        with DatabaseManager() as mgr:
            db = mgr.create_database(
                config=AdaptiveConfig(background_mapping=False),
                tiering=TierConfig(hot_budget=2),
            )
            db.create_table("t", {"x": _values()})
            yield mgr

    def test_pinned_reader_survives_tier_churn(self, tiered_manager):
        """A pinned reader stays bit-identical to pin time while a
        writer's updates and flushes demote and promote pages under it."""
        db = tiered_manager.database()
        store = db.table("t").column("x").tier
        assert store.hot_count() <= 2

        reader = tiered_manager.open_session()
        writer = tiered_manager.open_session()
        pin_oracle = _digest_of(_values())
        assert reader.snapshot("t", "x").ok

        live = _values()
        promotions, demotions = store.promotions, store.demotions
        for step in range(6):
            row = (step % NUM_PAGES) * VALUES_PER_PAGE + 3
            value = 1_500_000 + step
            assert writer.update("t", "x", row, value).ok
            live[row] = value
            # Repeated live reads of a narrow range on one cold page,
            # a different page each step, drive the placement around:
            # the page out-counts the hot set and swaps in, and the
            # coldest hot page is demoted for it.
            lo = (2 + step) * VALUES_PER_PAGE + 10
            for _ in range(4):
                assert writer.query("t", "x", lo, lo + 50).ok
            store.maintenance(db.cost)

            view = reader.query("t", "x", *FULL_RANGE)
            assert view.ok and view.data["snapshot"] is True
            assert view.data["checksum"] == pin_oracle, (
                f"step {step}: pinned read diverged from pin time"
            )

        # The placement genuinely churned underneath the snapshot and
        # the live state moved on.
        assert store.promotions >= promotions + 6
        assert store.demotions >= demotions + 6
        assert store.hot_count() <= 2 + store.governor.debt
        fresh = writer.query("t", "x", *FULL_RANGE)
        assert fresh.data["checksum"] == _digest_of(live)
        assert fresh.data["checksum"] != pin_oracle

        reader.close()
        writer.close()
        # Pins released: the audit (tier-placement included) is clean.
        audit = db.audit()
        assert audit.ok, audit.render()

    def test_release_over_tiered_store_returns_to_live(self, tiered_manager):
        db = tiered_manager.database()
        with tiered_manager.open_session() as session:
            session.snapshot("t", "x")
            session_live = _values()
            assert session.release_snapshot("t", "x").ok
            view = session.query("t", "x", *FULL_RANGE)
            assert view.data["snapshot"] is False
            assert view.data["checksum"] == _digest_of(session_live)
            audit = db.audit()
            assert audit.ok, audit.render()


class TestSnapshotLifecycle:
    def test_double_pin_rejected(self, manager):
        with manager.open_session() as session:
            assert session.snapshot("t", "x").ok
            second = session.snapshot("t", "x")
            assert not second.ok
            assert "already pinned" in second.error

    def test_release_without_pin_rejected(self, manager):
        with manager.open_session() as session:
            response = session.release_snapshot("t", "x")
            assert not response.ok
            assert "no snapshot pinned" in response.error

    def test_close_releases_pins(self, manager):
        session = manager.open_session()
        session.snapshot("t", "x")
        assert session.status().data["pinned_snapshots"] == ["t.x"]
        session.close()
        # A fresh session can pin again: the slot was truly released.
        with manager.open_session() as again:
            assert again.snapshot("t", "x").ok
