"""Whole-pipeline integration and property tests.

These tests exercise the complete stack (dataset -> batcher -> engine ->
system -> scheduler -> devices) and assert conservation/consistency
invariants that should hold for any configuration.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.models.config import get_model
from repro.serving.dataset import sample_requests
from repro.serving.engine import ServingEngine
from repro.serving.speculative import SpeculationConfig
from repro.serving.tlp_policy import UtilizationAdaptiveTLP
from repro.systems.registry import available_systems, build_system

MODELS = ("llama-65b", "gpt3-66b", "gpt3-175b")


class TestTokenConservation:
    @pytest.mark.parametrize("system_name", sorted(available_systems()))
    def test_tokens_generated_equal_requested(self, system_name):
        """Every system must generate exactly the requested output tokens."""
        requests = sample_requests("general-qa", 6, seed=21)
        expected = sum(r.output_len for r in requests)
        engine = ServingEngine(
            system=build_system(system_name),
            model=get_model("llama-65b"),
            speculation=SpeculationConfig(speculation_length=2),
            seed=21,
        )
        summary = engine.run(requests)
        assert summary.tokens_generated == expected

    @settings(max_examples=8, deadline=None)
    @given(
        batch=st.integers(1, 12),
        spec=st.integers(1, 4),
        seed=st.integers(0, 50),
    )
    def test_conservation_under_random_configs(self, batch, spec, seed):
        requests = sample_requests("general-qa", batch, seed=seed)
        expected = sum(r.output_len for r in requests)
        engine = ServingEngine(
            system=build_system("papi"),
            model=get_model("llama-65b"),
            speculation=SpeculationConfig(speculation_length=spec),
            seed=seed,
        )
        summary = engine.run(requests)
        assert summary.tokens_generated == expected
        assert all(r.is_finished for r in requests)


class TestCrossSystemConsistency:
    def test_same_iteration_counts_across_systems(self):
        """Hardware choice changes time/energy, never the token math: all
        systems perform identical iteration counts on the same workload."""
        counts = {}
        for name in available_systems():
            engine = ServingEngine(
                system=build_system(name),
                model=get_model("llama-65b"),
                speculation=SpeculationConfig(speculation_length=2),
                seed=25,
            )
            summary = engine.run(sample_requests("general-qa", 8, seed=25))
            counts[name] = summary.iterations
        assert len(set(counts.values())) == 1

    @pytest.mark.parametrize("model_name", MODELS)
    def test_all_models_serve_on_all_systems(self, model_name):
        for name in available_systems():
            engine = ServingEngine(
                system=build_system(name),
                model=get_model(model_name),
                seed=1,
            )
            summary = engine.run(sample_requests("general-qa", 2, seed=1))
            assert summary.total_seconds > 0
            assert summary.total_energy > 0
            assert summary.decode_seconds == pytest.approx(
                sum(r.result.seconds for r in summary.records)
            )

    def test_energy_breakdown_consistency(self):
        engine = ServingEngine(
            system=build_system("papi"), model=get_model("llama-65b"), seed=2
        )
        summary = engine.run(sample_requests("general-qa", 4, seed=2))
        assert sum(summary.energy_breakdown.values()) == pytest.approx(
            summary.decode_energy
        )
        assert sum(summary.time_breakdown.values()) == pytest.approx(
            summary.decode_seconds
        )


class TestFullFeatureComposition:
    def test_continuous_batching_with_adaptive_tlp_on_papi(self):
        """All the dynamic features composed: continuous batching refills
        RLP, the adaptive policy moves TLP, PAPI schedules through both."""
        model = get_model("llama-65b")
        queue = sample_requests("general-qa", 30, seed=27)
        expected = sum(r.output_len for r in queue)
        system = build_system("papi")
        engine = ServingEngine(
            system=system,
            model=model,
            speculation=SpeculationConfig(speculation_length=2),
            tlp_policy=UtilizationAdaptiveTLP(target_tokens=24, max_tlp=8),
            seed=27,
        )
        summary = engine.run_trace(queue, max_batch_size=8)
        assert summary.tokens_generated == expected
        assert engine.tlp_trace.changes >= 1
        assert system.scheduler.tlp_register.writes >= 2

    def test_prefill_dominated_by_decode_for_long_outputs(self):
        """The paper's premise: decoding dominates end-to-end time for
        generation-heavy workloads."""
        engine = ServingEngine(
            system=build_system("a100-attacc"),
            model=get_model("gpt3-175b"),
            seed=3,
        )
        summary = engine.run(sample_requests("creative-writing", 8, seed=3))
        assert summary.decode_seconds > 5 * summary.prefill_seconds
