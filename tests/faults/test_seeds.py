"""Unit tests for ``REPRO_SEED`` resolution and derivation."""

import numpy as np
import pytest

from repro.seeds import ENV_VAR, base_seed, derive_seed, resolve_seed
from repro.workloads.distributions import sine, uniform
from repro.workloads.queries import fixed_selectivity


class TestBaseSeed:
    def test_default_is_zero(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert base_seed() == 0

    def test_env_var_is_read(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1234")
        assert base_seed() == 1234

    @pytest.mark.parametrize("bad", ["x", "1.5", "-1", ""])
    def test_invalid_values_raise(self, monkeypatch, bad):
        monkeypatch.setenv(ENV_VAR, bad)
        with pytest.raises(ValueError, match="REPRO_SEED"):
            base_seed()

    def test_resolve_prefers_explicit_seed(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "99")
        assert resolve_seed(7) == 7
        assert resolve_seed(None) == 99

    def test_derive_seed_is_distinct_per_index(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        derived = [derive_seed(i) for i in range(500)]
        assert len(set(derived)) == len(derived)
        assert derived == [derive_seed(i) for i in range(500)]


class TestGeneratorsFollowTheSeed:
    def test_unseeded_generators_follow_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "42")
        from_env = uniform(4)
        assert np.array_equal(from_env, uniform(4, seed=42))
        monkeypatch.setenv(ENV_VAR, "43")
        assert not np.array_equal(from_env, uniform(4))

    def test_explicit_seed_unaffected_by_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "42")
        pinned = sine(4, seed=7)
        monkeypatch.setenv(ENV_VAR, "43")
        assert np.array_equal(pinned, sine(4, seed=7))

    def test_query_sequences_follow_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "5")
        a = list(fixed_selectivity(num_queries=5, selectivity=0.01))
        assert a == list(fixed_selectivity(num_queries=5, selectivity=0.01, seed=5))
        monkeypatch.setenv(ENV_VAR, "6")
        assert a != list(fixed_selectivity(num_queries=5, selectivity=0.01))
