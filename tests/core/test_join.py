"""Unit tests for the hash-join operator."""

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.core.query import QueryEngine
from repro.storage.table import Catalog


@pytest.fixture
def engines():
    catalog = Catalog()
    rng = np.random.default_rng(7)
    orders = catalog.create_table(
        "orders",
        {
            "customer_id": rng.integers(0, 200, 3000),
            "amount": rng.integers(1, 10_000, 3000),
        },
    )
    customers = catalog.create_table(
        "customers",
        {
            "id": np.arange(200),
            "region": rng.integers(0, 5, 200),
        },
    )
    left = QueryEngine(orders, AdaptiveConfig(max_views=5))
    right = QueryEngine(customers, AdaptiveConfig(max_views=5))
    yield left, right
    left.close()
    right.close()


def reference_join(left_vals, right_vals, left_rows=None, right_rows=None):
    left_rows = left_rows if left_rows is not None else range(len(left_vals))
    right_rows = right_rows if right_rows is not None else range(len(right_vals))
    pairs = set()
    right_map = {}
    for row in right_rows:
        right_map.setdefault(right_vals[row], []).append(row)
    for row in left_rows:
        for match in right_map.get(left_vals[row], ()):
            pairs.add((row, match))
    return pairs


class TestHashJoin:
    def test_full_join_matches_reference(self, engines):
        left, right = engines
        pairs = left.hash_join(right, "customer_id", "id")
        expected = reference_join(
            left.table.column("customer_id").values().tolist(),
            right.table.column("id").values().tolist(),
        )
        assert {tuple(p) for p in pairs.tolist()} == expected
        assert pairs.shape[1] == 2

    def test_pair_orientation(self, engines):
        left, right = engines
        pairs = left.hash_join(right, "customer_id", "id")
        customer = left.table.column("customer_id")
        ids = right.table.column("id")
        for l_row, r_row in pairs[:50].tolist():
            assert customer.read(l_row) == ids.read(r_row)

    def test_filtered_join(self, engines):
        left, right = engines
        pairs = left.hash_join(
            right,
            "customer_id",
            "id",
            left_predicates={"amount": (5_000, 10_000)},
            right_predicates={"region": (0, 1)},
        )
        amount = left.table.column("amount").values()
        region = right.table.column("region").values()
        cust = left.table.column("customer_id").values().tolist()
        ids = right.table.column("id").values().tolist()
        left_rows = [i for i in range(len(cust)) if 5_000 <= amount[i] <= 10_000]
        right_rows = [i for i in range(len(ids)) if 0 <= region[i] <= 1]
        expected = reference_join(cust, ids, left_rows, right_rows)
        assert {tuple(p) for p in pairs.tolist()} == expected

    def test_empty_sides(self, engines):
        left, right = engines
        pairs = left.hash_join(
            right, "customer_id", "id",
            left_predicates={"amount": (-5, -1)},
        )
        assert pairs.shape == (0, 2)

    def test_self_join(self, engines):
        left, _ = engines
        pairs = left.hash_join(left, "customer_id", "customer_id")
        # every row joins at least with itself
        assert pairs.shape[0] >= left.table.num_rows
        self_pairs = {(i, i) for i in range(left.table.num_rows)}
        assert self_pairs <= {tuple(p) for p in pairs.tolist()}

    def test_join_uses_views_for_predicates(self, engines):
        left, right = engines
        left.hash_join(
            right, "customer_id", "id",
            left_predicates={"amount": (5_000, 10_000)},
        )
        # the amount predicate went through the adaptive layer
        assert "amount" in left._layers
