"""Tests for the speculative-decoding acceptance model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.models.config import get_model
from repro.serving.engine import ServingEngine
from repro.serving.request import Request
from repro.serving.speculative import SpeculationConfig, SpeculativeSampler
from repro.systems.registry import build_system


class TestSpeculationConfig:
    def test_serial_decoding_defaults(self):
        config = SpeculationConfig()
        assert config.tlp == 1
        assert config.expected_tokens_per_iteration() == 1.0
        assert config.draft_overhead_s() == 0.0

    def test_expected_tokens_closed_form(self):
        config = SpeculationConfig(speculation_length=4, acceptance_rate=0.8)
        expected = (1 - 0.8 ** 4) / (1 - 0.8)
        assert config.expected_tokens_per_iteration() == pytest.approx(expected)

    def test_zero_acceptance_yields_one_token(self):
        config = SpeculationConfig(speculation_length=8, acceptance_rate=0.0)
        assert config.expected_tokens_per_iteration() == 1.0

    def test_draft_overhead_scales_with_length(self):
        c2 = SpeculationConfig(speculation_length=2)
        c8 = SpeculationConfig(speculation_length=8)
        assert c8.draft_overhead_s() == pytest.approx(7 * c2.draft_overhead_s())

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            SpeculationConfig(speculation_length=0)
        with pytest.raises(ConfigurationError):
            SpeculationConfig(acceptance_rate=1.01)
        with pytest.raises(ConfigurationError):
            SpeculationConfig(acceptance_rate=-0.1)

    @pytest.mark.parametrize("s", [1, 2, 4, 8])
    def test_always_accept_boundary_yields_s_tokens(self, s):
        """a = 1.0 is a valid boundary: the a->1 limit of the geometric
        sum is exactly s, not a division by zero."""
        config = SpeculationConfig(speculation_length=s, acceptance_rate=1.0)
        assert config.expected_tokens_per_iteration() == float(s)

    def test_expected_tokens_continuous_near_one(self):
        """The closed form approaches the a = 1.0 limit smoothly."""
        s = 6
        near = SpeculationConfig(
            speculation_length=s, acceptance_rate=1.0 - 1e-9
        )
        exact = SpeculationConfig(speculation_length=s, acceptance_rate=1.0)
        assert near.expected_tokens_per_iteration() == pytest.approx(
            exact.expected_tokens_per_iteration(), abs=1e-6
        )


class TestSampler:
    def test_deterministic_given_seed(self):
        config = SpeculationConfig(speculation_length=4)
        a = [SpeculativeSampler(config, seed=9).accepted_tokens() for _ in range(1)]
        b = [SpeculativeSampler(config, seed=9).accepted_tokens() for _ in range(1)]
        assert a == b

    def test_serial_always_one(self):
        sampler = SpeculativeSampler(SpeculationConfig(speculation_length=1))
        assert all(sampler.accepted_tokens() == 1 for _ in range(100))

    @settings(max_examples=20, deadline=None)
    @given(s=st.integers(2, 8), a=st.floats(0.0, 0.95))
    def test_samples_within_bounds(self, s, a):
        sampler = SpeculativeSampler(
            SpeculationConfig(speculation_length=s, acceptance_rate=a), seed=1
        )
        for _ in range(50):
            accepted = sampler.accepted_tokens()
            assert 1 <= accepted <= s

    def test_sample_mean_matches_expectation(self):
        config = SpeculationConfig(speculation_length=4, acceptance_rate=0.8)
        sampler = SpeculativeSampler(config, seed=42)
        n = 20000
        mean = sum(sampler.accepted_tokens() for _ in range(n)) / n
        assert mean == pytest.approx(config.expected_tokens_per_iteration(), rel=0.03)

    @pytest.mark.parametrize("s", [2, 5, 8])
    def test_always_accept_sampler_returns_exactly_s(self, s):
        config = SpeculationConfig(speculation_length=s, acceptance_rate=1.0)
        sampler = SpeculativeSampler(config, seed=3)
        assert all(sampler.accepted_tokens() == s for _ in range(200))

    def test_always_accept_does_not_consume_rng(self):
        """The a = 1.0 fast path must leave the draw stream untouched so
        a later dynamic-TLP iteration sees the same sequence."""
        config = SpeculationConfig(speculation_length=4, acceptance_rate=1.0)
        sampler = SpeculativeSampler(config, seed=7)
        before = (sampler._pos, sampler._buffer.shape[0])
        sampler.accepted_tokens()
        assert (sampler._pos, sampler._buffer.shape[0]) == before


class TestNegativeSeed:
    """A negative seed is a ConfigurationError naming ``seed``, not
    numpy's bare ValueError."""

    def test_sampler_rejects_negative_seed(self):
        config = SpeculationConfig(speculation_length=2)
        with pytest.raises(ConfigurationError, match="seed must be"):
            SpeculativeSampler(config, seed=-1)

    def test_engine_with_speculation_rejects_negative_seed(self):
        engine = ServingEngine(
            system=build_system("papi"),
            model=get_model("llama-65b"),
            speculation=SpeculationConfig(speculation_length=2),
            seed=-1,
        )
        requests = [
            Request(request_id=i, input_len=16, output_len=8) for i in range(2)
        ]
        with pytest.raises(ConfigurationError, match="seed must be"):
            engine.run(requests)
