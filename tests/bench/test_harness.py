"""Unit tests for the benchmark harness utilities."""

import numpy as np
import pytest

from repro.bench.harness import (
    DEFAULT_DIVISOR,
    PAPER_COLUMN_PAGES,
    SequenceRun,
    fresh_column,
    make_update_batch,
    moving_average,
    phase_means,
    run_adaptive_sequence,
    run_full_scan_sequence,
    scale_divisor,
    scaled_pages,
    session_seed,
    verify_runs_agree,
)
from repro.core.adaptive import AdaptiveStorageLayer
from repro.core.config import AdaptiveConfig
from repro.core.stats import QueryStats
from repro.workloads.distributions import sine
from repro.workloads.queries import QuerySequence, RangeQuery


class TestScaling:
    def test_default_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scaled_pages() == PAPER_COLUMN_PAGES // DEFAULT_DIVISOR

    def test_env_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2")
        assert scaled_pages() == 2 * (PAPER_COLUMN_PAGES // DEFAULT_DIVISOR)

    def test_non_integer_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "banana")
        with pytest.raises(ValueError, match="REPRO_SCALE"):
            scaled_pages()

    def test_fractional_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "1.5")
        with pytest.raises(ValueError, match="REPRO_SCALE"):
            scaled_pages()

    def test_non_positive_env_rejected(self, monkeypatch):
        for bad in ("0", "-4"):
            monkeypatch.setenv("REPRO_SCALE", bad)
            with pytest.raises(ValueError, match="REPRO_SCALE"):
                scaled_pages()

    def test_floor(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scaled_pages(64) == 64

    def test_scale_divisor(self):
        assert scale_divisor(1000) == pytest.approx(1000.0)


class TestSessionSeed:
    def test_default_is_base_seed(self, monkeypatch):
        monkeypatch.delenv("REPRO_SEED", raising=False)
        assert session_seed() == 0

    def test_env_seed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "7")
        assert session_seed() == 7

    def test_shard_seeds_are_distinct(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "11")
        seeds = {session_seed(shard=i) for i in range(8)}
        assert len(seeds) == 8
        assert session_seed() not in seeds

    def test_shard_seed_matches_derive_seed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "5")
        from repro.seeds import derive_seed

        assert session_seed(shard=3) == derive_seed(3)

    def test_negative_shard_rejected(self):
        with pytest.raises(ValueError, match="shard index"):
            session_seed(shard=-1)


class TestFreshColumn:
    def test_isolated_cost_models(self):
        a = fresh_column(np.arange(100))
        b = fresh_column(np.arange(100))
        assert a.mapper.cost is not b.mapper.cost
        before = b.mapper.cost.ledger.lane_ns()
        a.mapper.cost.ledger.charge(100.0)
        assert b.mapper.cost.ledger.lane_ns() == before


class TestMakeUpdateBatch:
    def test_applies_and_logs(self):
        col = fresh_column(np.zeros(1000, dtype=np.int64))
        batch = make_update_batch(col, 50, 10, 20, seed=1)
        assert len(batch) == 50
        for record in batch:
            assert record.old == 0
            assert 10 <= record.new <= 20
            assert col.read(record.row) in range(10, 21)

    def test_without_applying(self):
        col = fresh_column(np.zeros(1000, dtype=np.int64))
        batch = make_update_batch(col, 10, 5, 9, seed=1, apply_to_column=False)
        assert all(col.read(r.row) == 0 for r in batch)

    def test_deterministic(self):
        col_a = fresh_column(np.zeros(1000, dtype=np.int64))
        col_b = fresh_column(np.zeros(1000, dtype=np.int64))
        a = make_update_batch(col_a, 20, 0, 100, seed=3)
        b = make_update_batch(col_b, 20, 0, 100, seed=3)
        assert [(u.row, u.new) for u in a] == [(u.row, u.new) for u in b]


class TestSequenceRunners:
    def queries(self):
        return QuerySequence([RangeQuery(0, 50_000), RangeQuery(100, 900)])

    def test_adaptive_and_full_agree(self):
        values = sine(32, 0, 100_000, seed=2)
        layer = AdaptiveStorageLayer(fresh_column(values), AdaptiveConfig(max_views=4))
        adaptive = run_adaptive_sequence(layer, self.queries())
        full = run_full_scan_sequence(fresh_column(values), self.queries())
        verify_runs_agree(adaptive, full)
        assert len(adaptive.stats) == 2
        assert adaptive.accumulated_seconds > 0

    def test_disagreement_raises(self):
        a = SequenceRun(engine="a", total_rows=10)
        b = SequenceRun(engine="b", total_rows=11)
        with pytest.raises(AssertionError):
            verify_runs_agree(a, b)


class TestSeriesHelpers:
    def test_moving_average(self):
        assert moving_average([1, 1, 4, 4], window=2) == [1, 1, 2.5, 4]

    def test_moving_average_window_one(self):
        assert moving_average([3, 2, 1], window=1) == [3, 2, 1]

    def test_moving_average_empty(self):
        assert moving_average([]) == []

    def _stats(self, sim_ms_values):
        return [QueryStats(lo=0, hi=1, sim_ns=v * 1e6) for v in sim_ms_values]

    def test_phase_means(self):
        stats = self._stats([1, 1, 2, 2, 3, 3, 4, 4, 5, 5])
        assert phase_means(stats, phases=5) == [1, 2, 3, 4, 5]

    def test_phase_means_short_series(self):
        stats = self._stats([2, 4])
        assert phase_means(stats, phases=5) == [2, 4]

    def test_phase_means_empty(self):
        assert phase_means([], phases=5) == []
