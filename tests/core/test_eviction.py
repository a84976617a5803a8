"""Unit tests for the LRU view-eviction policy (extension)."""

import numpy as np

from repro.core.adaptive import AdaptiveStorageLayer
from repro.core.config import AdaptiveConfig, EvictionPolicy
from repro.core.stats import ViewEvent
from repro.vm.constants import VALUES_PER_PAGE

from ..conftest import build_column, reference_rows


def clustered_column(num_pages=24, band=1000):
    return build_column(np.repeat(np.arange(num_pages) * band, VALUES_PER_PAGE))


def lru_layer(max_views=2):
    return AdaptiveStorageLayer(
        clustered_column(),
        AdaptiveConfig(max_views=max_views, eviction=EvictionPolicy.LRU),
    )


class TestLruEviction:
    def test_generation_never_stops(self):
        layer = lru_layer(max_views=2)
        for band in (1, 5, 9, 13, 17):
            layer.answer_query(band * 1000, band * 1000 + 999)
        assert not layer.view_index.generation_stopped
        assert layer.view_index.num_partials == 2

    def test_least_recently_used_is_evicted(self):
        layer = lru_layer(max_views=2)
        layer.answer_query(1000, 1999)   # view A
        layer.answer_query(5000, 5999)   # view B
        layer.answer_query(1000, 1999)   # touch A (B becomes LRU)
        layer.answer_query(9000, 9999)   # C arrives: B must go
        ranges = [
            (v.lo, v.hi) for v in layer.view_index.partial_views
        ]
        assert any(lo <= 1000 <= hi for lo, hi in ranges)   # A survived
        assert not any(lo <= 5000 <= hi for lo, hi in ranges)  # B evicted

    def test_eviction_event_journaled(self):
        layer = lru_layer(max_views=1)
        layer.answer_query(1000, 1999)
        layer.answer_query(5000, 5999)
        events = [e.event for e in layer.view_index.history]
        assert events == [ViewEvent.INSERTED, ViewEvent.EVICTED_LRU]
        evicted = layer.view_index.history[-1]
        assert evicted.other_range is not None

    def test_evicted_view_is_destroyed(self):
        layer = lru_layer(max_views=1)
        layer.answer_query(1000, 1999)
        victim = layer.view_index.partial_views[0]
        base = victim.base_vpn
        layer.answer_query(5000, 5999)
        assert not layer.column.substrate.mapper.address_space.is_mapped(base)

    def test_correctness_under_churn(self):
        layer = lru_layer(max_views=2)
        values = layer.column.values()
        rng = np.random.default_rng(3)
        for _ in range(20):
            lo = int(rng.integers(0, 20_000))
            hi = lo + int(rng.integers(100, 3_000))
            result = layer.answer_query(lo, hi)
            expected = reference_rows(values, lo, hi)
            assert np.array_equal(np.sort(result.rowids), expected)

    def test_stop_policy_unchanged_by_default(self):
        layer = AdaptiveStorageLayer(
            clustered_column(), AdaptiveConfig(max_views=1)
        )
        layer.answer_query(1000, 1999)
        layer.answer_query(5000, 5999)
        assert layer.view_index.generation_stopped
        assert layer.view_index.num_partials == 1


class TestDriftWithEviction:
    def test_lru_beats_stop_under_drift(self):
        """Under a drifting hotspot, a tight limit with LRU eviction
        outperforms the same limit with the paper's stop policy."""
        from repro.bench.harness import fresh_column, run_adaptive_sequence
        from repro.workloads.distributions import sine
        from repro.workloads.queries import shifting_hotspot

        values = sine(512, seed=31)
        queries = shifting_hotspot(num_queries=80, selectivity=0.01, seed=31)
        results = {}
        for label, eviction in (
            ("stop", EvictionPolicy.STOP),
            ("lru", EvictionPolicy.LRU),
        ):
            layer = AdaptiveStorageLayer(
                fresh_column(values),
                AdaptiveConfig(max_views=8, eviction=eviction),
            )
            run = run_adaptive_sequence(layer, queries)
            results[label] = run.stats.accumulated_seconds
            layer.shutdown()
        assert results["lru"] < results["stop"]
