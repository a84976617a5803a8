"""Additional facade configuration and boundary tests."""

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig, RoutingMode
from repro.core.facade import AdaptiveDatabase
from repro.vm.constants import PAGE_SIZE, VALUES_PER_PAGE
from repro.vm.cost import CostModel, CostParameters


class TestFacadeConfiguration:
    def test_custom_capacity_enforced(self):
        from repro.vm.errors import OutOfMemoryError

        db = AdaptiveDatabase(capacity_bytes=16 * PAGE_SIZE)
        db.create_table("small", {"x": np.arange(VALUES_PER_PAGE * 2)})
        with pytest.raises(OutOfMemoryError):
            db.create_table("big", {"x": np.arange(VALUES_PER_PAGE * 200)})
        db.close()

    def test_custom_cost_model_used(self):
        params = CostParameters(seq_value_read_ns=100.0)
        db = AdaptiveDatabase(cost=CostModel(params))
        db.create_table("t", {"x": np.arange(VALUES_PER_PAGE)})
        result = db.query("t", "x", 0, 10)
        # one page * 511 values * 100 ns dominates everything else
        assert result.stats.sim_ns > 40_000
        db.close()

    def test_config_propagates_to_layers(self):
        config = AdaptiveConfig(max_views=3, mode=RoutingMode.MULTI)
        db = AdaptiveDatabase(config)
        db.create_table("t", {"x": np.arange(VALUES_PER_PAGE * 4)})
        layer = db.layer("t", "x")
        assert layer.config is config
        assert layer.view_index.config.max_views == 3
        db.close()

    def test_two_tables_share_one_address_space(self):
        db = AdaptiveDatabase()
        db.create_table("a", {"x": np.arange(VALUES_PER_PAGE)})
        db.create_table("b", {"x": np.arange(VALUES_PER_PAGE)})
        col_a = db.table("a").column("x")
        col_b = db.table("b").column("x")
        assert col_a.substrate.address_space is col_b.substrate.address_space
        assert col_a.file is not col_b.file
        db.close()

    def test_query_on_second_column_isolated(self):
        db = AdaptiveDatabase(AdaptiveConfig(max_views=5))
        db.create_table(
            "t",
            {
                "sorted": np.arange(VALUES_PER_PAGE * 8),
                "flat": np.zeros(VALUES_PER_PAGE * 8, dtype=np.int64),
            },
        )
        db.query("t", "sorted", 100, 600)
        assert db.layer("t", "sorted").view_index.num_partials == 1
        assert db.layer("t", "flat").view_index.num_partials == 0
        db.close()


class TestQueryResultSurface:
    def test_len_matches_rowids(self):
        db = AdaptiveDatabase()
        db.create_table("t", {"x": np.arange(VALUES_PER_PAGE)})
        result = db.query("t", "x", 10, 19)
        assert len(result) == 10
        assert result.rowids.size == 10
        assert result.values.size == 10
        db.close()

    def test_values_align_with_rowids(self):
        db = AdaptiveDatabase()
        db.create_table("t", {"x": np.arange(VALUES_PER_PAGE) * 3})
        result = db.query("t", "x", 30, 60)
        for row, value in zip(result.rowids.tolist(), result.values.tolist()):
            assert value == row * 3
        db.close()
