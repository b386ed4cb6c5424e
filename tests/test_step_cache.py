"""Tests for the step-cost cache and cached pricing paths."""

import pytest

from repro.analysis.design_space import sweep_attn_link, sweep_fc_stacks
from repro.errors import ConfigurationError
from repro.models.config import get_model
from repro.models.workload import build_decode_step
from repro.serving.dataset import sample_requests
from repro.serving.engine import ServingEngine, StepPricer
from repro.serving.request import Request
from repro.serving.speculative import SpeculationConfig
from repro.serving.stepcache import StepCostCache
from repro.systems.registry import build_system


def summary_fingerprint(summary):
    return (
        summary.tokens_generated,
        summary.iterations,
        summary.prefill_seconds,
        summary.decode_seconds,
        summary.total_energy,
        summary.fc_target_iterations,
        tuple(summary.request_latencies),
        tuple(r.result.seconds for r in summary.records),
    )


class TestCacheMechanics:
    def test_hit_after_put(self):
        system = build_system("papi")
        model = get_model("llama-65b")
        step = build_decode_step(model, 4, 1, 128)
        result = system.execute_step(step)
        cache = StepCostCache()
        key = ("fc-pim", 4, 1, 128)
        assert cache.get(system, key) is None
        cache.put(system, key, result)
        assert cache.get(system, key) is result
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_entries_scoped_per_system(self):
        a, b = build_system("papi"), build_system("papi")
        model = get_model("llama-65b")
        result = a.execute_step(build_decode_step(model, 4, 1, 128))
        cache = StepCostCache()
        key = ("fc-pim", 4, 1, 128)
        cache.put(a, key, result)
        assert cache.get(b, key) is None
        assert cache.get(a, key) is result

    def test_lru_eviction(self):
        system = build_system("papi")
        model = get_model("llama-65b")
        result = system.execute_step(build_decode_step(model, 1, 1, 64))
        cache = StepCostCache(max_entries=2)
        cache.put(system, "k1", result)
        cache.put(system, "k2", result)
        assert cache.get(system, "k1") is result  # refresh k1
        cache.put(system, "k3", result)  # evicts k2 (LRU)
        assert cache.get(system, "k2") is None
        assert cache.get(system, "k1") is result
        assert cache.get(system, "k3") is result

    def test_clear_resets(self):
        system = build_system("papi")
        model = get_model("llama-65b")
        result = system.execute_step(build_decode_step(model, 1, 1, 64))
        cache = StepCostCache()
        cache.put(system, "k", result)
        cache.get(system, "k")
        cache.clear()
        assert cache.get(system, "k") is None
        assert cache.stats()["hits"] == 0

    def test_shared_scope_serves_equal_systems(self):
        """``share_equal_systems`` lets configuration-equal systems read
        each other's entries — the fleet-wide cache behind the step
        and admission prices."""
        a, b = build_system("papi"), build_system("papi")
        model = get_model("llama-65b")
        result = a.execute_step(build_decode_step(model, 4, 1, 128))
        cache = StepCostCache(share_equal_systems=True)
        key = ("llama-65b", "fc-pim", 4, 1, 128)
        cache.put(a, key, result)
        assert cache.get(b, key) is result
        assert cache.scope_key(a) == cache.scope_key(b)
        assert cache.stats()["systems"] == 1  # one scope for the pair

    def test_shared_scope_still_separates_unequal_systems(self):
        papi, baseline = build_system("papi"), build_system("a100-attacc")
        model = get_model("llama-65b")
        result = papi.execute_step(build_decode_step(model, 4, 1, 128))
        cache = StepCostCache(share_equal_systems=True)
        key = ("llama-65b", "fc-pim", 4, 1, 128)
        cache.put(papi, key, result)
        assert cache.get(baseline, key) is None
        assert cache.scope_key(papi) != cache.scope_key(baseline)

    def test_shared_scope_never_derived_from_object_identity(self):
        """Shared scopes are counter-allocated, so a recycled ``id()``
        can never alias a dead system's cached prices."""
        a = build_system("papi")
        cache = StepCostCache(share_equal_systems=True)
        assert cache.scope_key(a) != id(a)

    def test_shared_scope_purged_when_last_system_dies(self):
        import gc

        cache = StepCostCache(share_equal_systems=True)
        a, b = build_system("papi"), build_system("papi")
        cache.put(a, ("k",), 1.0)
        assert cache.get(b, ("k",)) == 1.0
        del a
        gc.collect()
        assert cache.entries == 1  # b keeps the scope alive
        del b
        gc.collect()
        assert cache.entries == 0  # last holder gone -> entries purged
        assert cache._scope_reps == []

    def test_unshared_cache_keeps_identity_scoping(self):
        a, b = build_system("papi"), build_system("papi")
        cache = StepCostCache()
        assert cache.scope_key(a) == id(a)
        assert cache.scope_key(a) != cache.scope_key(b)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            StepCostCache(max_entries=0)


class TestCachedEngineRuns:
    @pytest.mark.parametrize("context_mode", ["mean", "per-request"])
    def test_cache_does_not_change_results(self, context_mode):
        """With bucket 1 the cache is exact: cached and uncached runs of
        the same workload produce identical summaries."""
        model = get_model("llama-65b")

        def run(step_cache):
            engine = ServingEngine(
                system=build_system("papi"),
                model=model,
                speculation=SpeculationConfig(speculation_length=2),
                seed=11,
                context_mode=context_mode,
                step_cache=step_cache,
            )
            return engine.run(sample_requests("creative-writing", 8, seed=11))

        cached = run(StepCostCache())
        plain = run(None)
        assert summary_fingerprint(cached) == summary_fingerprint(plain)

    def test_cache_observes_hits_with_bucketing(self):
        model = get_model("llama-65b")
        cache = StepCostCache()
        engine = ServingEngine(
            system=build_system("papi"),
            model=model,
            seed=13,
            context_mode="mean",
            context_bucket=32,
            step_cache=cache,
        )
        engine.run(sample_requests("general-qa", 8, seed=13))
        assert cache.hits > cache.misses  # bucketing makes the path hot

    def test_cache_keys_include_model(self):
        """One system + one cache serving two models must not cross-read
        entries: identical (rlp, tlp, context) steps price differently per
        model."""
        system = build_system("papi")
        cache = StepCostCache()

        def requests():
            return [
                Request(request_id=i, input_len=64, output_len=8)
                for i in range(2)
            ]

        small = StepPricer(
            system=system, model=get_model("llama-65b"), step_cache=cache
        ).price(requests(), tlp=1)
        large = StepPricer(
            system=system, model=get_model("gpt3-175b"), step_cache=cache
        ).price(requests(), tlp=1)
        assert large.seconds > small.seconds  # no stale cross-model hit

    def test_design_space_identical_with_and_without_cache(self):
        """The acceptance property: sweeps report identical outputs with
        the cache on and off (same context bucketing either way)."""
        on = sweep_fc_stacks(stack_counts=(10, 30), use_cache=True)
        off = sweep_fc_stacks(stack_counts=(10, 30), use_cache=False)
        assert on == off
        on = sweep_attn_link(use_cache=True)
        off = sweep_attn_link(use_cache=False)
        assert on == off


class TestStepPricer:
    def test_rejects_unknown_context_mode(self):
        with pytest.raises(ConfigurationError):
            StepPricer(
                system=build_system("papi"),
                model=get_model("llama-65b"),
                context_mode="median",
            )

    def test_rejects_bad_bucket(self):
        with pytest.raises(ConfigurationError):
            StepPricer(
                system=build_system("papi"),
                model=get_model("llama-65b"),
                context_bucket=0,
            )

    def test_mean_and_per_request_agree_on_uniform_contexts(self):
        """When every request has the same context, per-request pricing
        collapses to the mean approximation exactly."""
        model = get_model("llama-65b")
        requests = [
            Request(request_id=i, input_len=256, output_len=64)
            for i in range(4)
        ]
        mean = StepPricer(
            system=build_system("papi"), model=model, context_mode="mean"
        ).price(requests, tlp=2)
        exact = StepPricer(
            system=build_system("papi"), model=model,
            context_mode="per-request",
        ).price(requests, tlp=2)
        assert mean.seconds == pytest.approx(exact.seconds)
        assert mean.energy_joules == pytest.approx(exact.energy_joules)
