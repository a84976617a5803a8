"""Unit tests for tables and the catalog."""

import numpy as np
import pytest

from repro.storage.table import Catalog, Table
from repro.storage.column import PhysicalColumn


@pytest.fixture
def catalog():
    return Catalog()


@pytest.fixture
def table(catalog):
    return catalog.create_table(
        "t",
        {"a": np.arange(100), "b": np.arange(100) * 10},
    )


class TestTable:
    def test_columns(self, table):
        assert table.column_names == ["a", "b"]
        assert table.num_rows == 100
        assert table.column("a").num_rows == 100

    def test_missing_column(self, table):
        with pytest.raises(KeyError):
            table.column("ghost")

    def test_get_record(self, table):
        assert table.get_record(7) == (7, 70)

    def test_record_iterator(self, table):
        records = list(table.record_iterator())
        assert len(records) == 100
        assert records[3] == (3, 30)

    def test_row_count_mismatch_rejected(self, catalog):
        cols = {
            "a": PhysicalColumn.create(catalog.substrate, "x.a", np.arange(10)),
            "b": PhysicalColumn.create(catalog.substrate, "x.b", np.arange(20)),
        }
        with pytest.raises(ValueError):
            Table("x", cols)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            Table("x", {})


class TestUpdates:
    def test_update_writes_through_and_logs(self, table):
        old = table.update("a", 5, 999)
        assert old == 5
        assert table.column("a").read(5) == 999
        pending = table.pending_updates("a")
        assert len(pending) == 1
        assert pending[0].row == 5 and pending[0].old == 5 and pending[0].new == 999

    def test_logs_are_per_column(self, table):
        table.update("a", 0, 1)
        assert len(table.pending_updates("b")) == 0

    def test_drain_updates_resets_log(self, table):
        table.update("a", 0, 1)
        batch = table.drain_updates("a")
        assert len(batch) == 1
        assert len(table.pending_updates("a")) == 0

    def test_pending_updates_validates_name(self, table):
        with pytest.raises(KeyError):
            table.pending_updates("ghost")


class TestCatalog:
    def test_create_and_get(self, catalog, table):
        assert catalog.get_table("t") is table
        assert catalog.tables() == [table]

    def test_duplicate_table_rejected(self, catalog, table):
        with pytest.raises(ValueError):
            catalog.create_table("t", {"a": np.arange(5)})

    def test_missing_table(self, catalog):
        with pytest.raises(KeyError):
            catalog.get_table("ghost")

    def test_shared_cost_model(self, catalog):
        assert catalog.cost is catalog.substrate.cost

    def test_column_files_are_namespaced(self, catalog, table):
        assert table.column("a").file.name == "t.a"
