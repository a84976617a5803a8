"""Unit tests for the query layer (selection, projection, aggregation)."""

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.core.query import AggregateResult, QueryEngine, exact_sum

from ..conftest import reference_rows


@pytest.fixture
def db():
    rng = np.random.default_rng(3)
    n = 5110
    with AdaptiveDatabase(AdaptiveConfig(max_views=10)) as database:
        database.create_table(
            "sales",
            {
                "amount": rng.integers(0, 100_000, n),
                "customer": rng.integers(0, 500, n),
                "region": rng.integers(0, 10, n),
            },
        )
        yield database


@pytest.fixture
def table(db):
    return db.table("sales")


@pytest.fixture
def engine(db):
    return QueryEngine(db, "sales")


class TestSelect:
    def test_matches_reference(self, table, engine):
        result = engine.select("amount", 10_000, 20_000)
        expected = reference_rows(table.column("amount").values(), 10_000, 20_000)
        assert np.array_equal(np.sort(result.rowids), expected)

    def test_layers_cached(self, db, engine):
        engine.select("amount", 10_000, 20_000)
        engine.select("region", 0, 5)
        engine.select("amount", 0, 5_000)
        assert list(db._layers) == [("sales", "amount"), ("sales", "region")]
        assert db.layer("sales", "amount") is not db.layer("sales", "region")

    def test_adaptive_behaviour_carries_over(self, db, engine):
        engine.select("amount", 10_000, 20_000)
        assert db.layer("sales", "amount").view_index.num_partials >= 0

    def test_full_scan_tier_skips_deleted_rows_and_builds_no_view(
        self, db, table, engine
    ):
        db.delete("sales", "region", 0, 0)
        got = engine.select("amount", 10_000, 20_000, full_scan=True)
        want = table.tombstones.filter_live(
            reference_rows(table.column("amount").values(), 10_000, 20_000)
        )
        assert np.array_equal(np.sort(got.rowids), want)
        assert db.layer("sales", "amount").view_index.num_partials == 0


class TestFetch:
    def test_projection_values_correct(self, table, engine):
        rowids = np.array([0, 100, 4_000])
        out = engine.fetch(rowids, ["customer", "region"])
        customer = table.column("customer")
        region = table.column("region")
        assert out["customer"].tolist() == [customer.read(int(r)) for r in rowids]
        assert out["region"].tolist() == [region.read(int(r)) for r in rowids]

    def test_empty_projection(self, engine):
        out = engine.fetch(np.array([], dtype=np.int64), ["customer"])
        assert out["customer"].size == 0

    def test_out_of_range_rowid_rejected(self, table, engine):
        with pytest.raises(IndexError):
            engine.fetch(np.array([table.num_rows]), ["customer"])
        with pytest.raises(IndexError):
            engine.fetch(np.array([-1]), ["customer"])

    def test_charges_random_accesses(self, table, engine):
        cost = table.column("customer").cost
        before = cost.ledger.counter("pages_accessed")
        engine.fetch(np.array([0, 1, 600]), ["customer"])
        # rows 0/1 share a page, row 600 is on another: 2 page accesses
        assert cost.ledger.counter("pages_accessed") == before + 2


class TestSelectRecords:
    def test_full_pipeline(self, table, engine):
        record_set = engine.select_records(
            "amount", 10_000, 20_000, project=["customer"]
        )
        assert set(record_set.columns) == {"amount", "customer"}
        assert len(record_set) == record_set.columns["customer"].size
        # spot-check one record against the raw table
        records = record_set.records()
        rowid, amount, customer = records[0]
        assert table.get_record(rowid)[0] == amount
        assert table.get_record(rowid)[1] == customer

    def test_filter_column_not_projected_twice(self, engine):
        record_set = engine.select_records(
            "amount", 0, 50_000, project=["amount", "region"]
        )
        assert set(record_set.columns) == {"amount", "region"}

    def test_records_sorted_by_rowid(self, engine):
        record_set = engine.select_records("amount", 0, 5_000, project=["region"])
        rows = [r[0] for r in record_set.records()]
        assert rows == sorted(rows)

    def test_empty_recordset(self, engine):
        record_set = engine.select_records("amount", -10, -1)
        assert len(record_set) == 0
        assert record_set.records() == []


class TestSelectConjunction:
    def test_matches_reference(self, table, engine):
        rows = engine.select_conjunction(
            {"amount": (10_000, 60_000), "customer": (0, 100)}
        )
        amount = table.column("amount").values()
        customer = table.column("customer").values()
        expected = np.nonzero(
            (amount >= 10_000)
            & (amount <= 60_000)
            & (customer >= 0)
            & (customer <= 100)
        )[0]
        assert np.array_equal(np.sort(rows), expected)

    def test_single_predicate(self, table, engine):
        rows = engine.select_conjunction({"amount": (0, 50_000)})
        expected = reference_rows(table.column("amount").values(), 0, 50_000)
        assert np.array_equal(np.sort(rows), expected)

    def test_disjoint_predicates_empty(self, engine):
        rows = engine.select_conjunction(
            {"amount": (0, 100_000), "customer": (-10, -1)}
        )
        assert rows.size == 0

    def test_empty_predicates_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.select_conjunction({})

    def test_three_way_conjunction(self, table, engine):
        rows = engine.select_conjunction(
            {
                "amount": (0, 80_000),
                "customer": (100, 400),
                "region": (0, 5),
            }
        )
        amount = table.column("amount").values()
        customer = table.column("customer").values()
        region = table.column("region").values()
        expected = np.nonzero(
            (amount <= 80_000)
            & (amount >= 0)
            & (customer >= 100)
            & (customer <= 400)
            & (region >= 0)
            & (region <= 5)
        )[0]
        assert np.array_equal(np.sort(rows), expected)


class TestAggregate:
    def test_matches_numpy(self, table, engine):
        agg = engine.aggregate("amount", 10_000, 20_000)
        values = table.column("amount").values()
        selected = values[(values >= 10_000) & (values <= 20_000)]
        assert agg.count == selected.size
        assert agg.total == int(selected.sum())
        assert agg.minimum == int(selected.min())
        assert agg.maximum == int(selected.max())
        assert agg.average == pytest.approx(selected.mean())

    def test_empty_range(self, engine):
        agg = engine.aggregate("amount", -100, -1)
        assert agg == AggregateResult(count=0, total=0, minimum=None, maximum=None)
        assert agg.average is None

    def test_repeated_aggregates_use_views(self, engine):
        first = engine.select("amount", 30_000, 40_000).stats.pages_scanned
        engine.aggregate("amount", 30_000, 40_000)
        second = engine.select("amount", 30_000, 40_000).stats.pages_scanned
        assert second <= first


class TestExactSum:
    """``exact_sum`` against Python's unbounded integer sum."""

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [7],
            [1, 2**62, 2**62, 2**62, 4],
            [2**63 - 1] * 3,
            [-(2**63)] * 3,
            [2**63 - 1, -(2**63), 2**63 - 1, 5],
            list(range(-1000, 1000, 7)),
        ],
    )
    def test_matches_python_sum(self, values):
        assert exact_sum(np.array(values, dtype=np.int64)) == sum(values)

    def test_random_extremes(self):
        rng = np.random.default_rng(0)
        for size in (1, 2, 3, 100, 10_000):
            values = rng.integers(-(2**63), 2**63 - 1, size=size, dtype=np.int64)
            assert exact_sum(values) == sum(values.tolist())

    def test_aggregate_total_is_exact(self):
        values = np.array([1, 2**62, 2**62, 2**62, 4], dtype=np.int64)
        with AdaptiveDatabase() as database:
            database.create_table("t", {"v": values})
            total = QueryEngine(database, "t").aggregate("v", 1, 2**63 - 1).total
        assert total == 3 * 2**62 + 5
