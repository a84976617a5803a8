"""Unit tests for the AdaptiveDatabase facade."""

import shutil

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.wal import recover_database

from ..conftest import reference_rows


@pytest.fixture
def db():
    database = AdaptiveDatabase(AdaptiveConfig(max_views=5))
    rng = np.random.default_rng(0)
    database.create_table(
        "readings",
        {
            "temp": rng.integers(0, 100_000, 5110),
            "pressure": rng.integers(0, 1_000, 5110),
        },
    )
    yield database
    database.close()


class TestQueries:
    def test_query_matches_reference(self, db):
        column = db.table("readings").column("temp")
        result = db.query("readings", "temp", 1000, 5000)
        expected = reference_rows(column.values(), 1000, 5000)
        assert np.array_equal(np.sort(result.rowids), expected)

    def test_layers_are_cached_per_column(self, db):
        a = db.layer("readings", "temp")
        b = db.layer("readings", "temp")
        c = db.layer("readings", "pressure")
        assert a is b
        assert a is not c

    def test_independent_columns(self, db):
        db.query("readings", "temp", 0, 100)
        assert db.layer("readings", "pressure").view_index.num_partials == 0

    def test_missing_table_or_column(self, db):
        with pytest.raises(KeyError):
            db.query("ghost", "temp", 0, 1)
        with pytest.raises(KeyError):
            db.query("readings", "ghost", 0, 1)


class TestUpdates:
    def test_update_and_flush(self, db):
        db.query("readings", "temp", 1000, 5000)  # create a view
        old = db.update("readings", "temp", 0, 2222)
        assert isinstance(old, int)
        stats = db.flush_updates("readings", "temp")
        assert stats.batch_size == 1
        column = db.table("readings").column("temp")
        result = db.query("readings", "temp", 1000, 5000)
        expected = reference_rows(column.values(), 1000, 5000)
        assert np.array_equal(np.sort(result.rowids), expected)

    def test_flush_drains_log(self, db):
        db.update("readings", "temp", 0, 1)
        db.flush_updates("readings", "temp")
        assert len(db.table("readings").pending_updates("temp")) == 0

    def test_flush_without_updates(self, db):
        stats = db.flush_updates("readings", "temp")
        assert stats.batch_size == 0


class TestLifecycle:
    def test_context_manager(self):
        with AdaptiveDatabase() as database:
            database.create_table("t", {"x": np.arange(100)})
            database.query("t", "x", 0, 10)
        # close() ran; layers are gone
        assert database._layers == {}

    def test_shared_cost_model(self, db):
        before = db.cost.ledger.lane_ns()
        db.query("readings", "temp", 0, 10)
        assert db.cost.ledger.lane_ns() > before


REFUSED_CREATES = {
    "a 2-D column": {"a": np.arange(3), "b": np.zeros((2, 2), dtype=np.int64)},
    "row counts that disagree": {"a": np.arange(3), "b": np.arange(4)},
}


class TestRefusedCreate:
    """A create the facade refuses builds no column: the name stays free."""

    @pytest.mark.parametrize("data", REFUSED_CREATES.values(), ids=REFUSED_CREATES.keys())
    def test_leaves_no_file_behind(self, data):
        database = AdaptiveDatabase()
        with pytest.raises(ValueError):
            database.create_table("t", data)
        assert database.substrate.files() == []
        database.create_table("t", {"a": np.arange(3)})
        database.close()

    def test_durable_refusal_journals_nothing(self, tmp_path):
        database = AdaptiveDatabase(durable_dir=str(tmp_path / "live"))
        with pytest.raises(ValueError, match="1-D"):
            database.create_table("t", {"a": np.zeros((2, 2), dtype=np.int64)})
        assert database.wal_status()["lsn"] == 0
        shutil.copytree(tmp_path / "live", tmp_path / "copy")
        recovered, _ = recover_database(tmp_path / "copy")
        assert recovered.table_names() == []
        recovered.close()
        database.close()
