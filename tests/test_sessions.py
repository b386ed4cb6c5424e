"""Session workloads: prefix cache, dynamic follow-up scheduling,
affinity routing, and the two-core equivalence contract over them.

Sessions inject the one thing the static arrival lanes never had —
events scheduled *from simulation outcomes* (a follow-up turn arrives a
think time after its predecessor finishes). This suite pins that the
dynamic lane keeps every standing guarantee: bit-identical summaries
across the scalar and vectorized cores, shard-order-independent
per-tenant traces, byte-identical results for session-free scenarios,
and a prefix-cache hit rate the affinity router actually improves.
"""

import dataclasses
import random

import pytest

from repro.cluster.prefixcache import PrefixCache
from repro.errors import ConfigurationError
from repro.scenario.build import build_requests
from repro.scenario.run import apply_core_mode, run_scenario
from repro.scenario.spec import (
    ArrivalProcessSpec,
    FleetSpec,
    InterconnectSpec,
    PrefixCacheSpec,
    ReplicaSpec,
    RoutingSpec,
    ScenarioSpec,
    SessionSpec,
    SLOSpec,
    TenantSpec,
    TrafficSpec,
)

from test_cluster_equivalence import aggregate_fields


def _session_scenario(
    policy: str = "session-affinity",
    turns: int = 3,
    tenants: int = 2,
    requests: int = 16,
    rate: float = 2.0,
    replicas: int = 3,
    disaggregated: bool = False,
    admission: str = "admit",
    arrival_kind: str = "poisson",
    seed: int = 11,
    cache_gb: float = 64.0,
) -> ScenarioSpec:
    groups = (
        (
            ReplicaSpec(count=2, max_batch_size=8, role="prefill"),
            ReplicaSpec(count=replicas, max_batch_size=8, role="decode"),
        )
        if disaggregated
        else (ReplicaSpec(count=replicas, max_batch_size=8),)
    )
    tenant_specs = []
    for index in range(tenants):
        tenant_specs.append(
            TenantSpec(
                name=f"tenant{index}",
                traffic=TrafficSpec(
                    category="general-qa" if index % 2 else "creative-writing",
                    requests=requests,
                    rate_per_s=rate,
                    arrival=(
                        ArrivalProcessSpec(kind=arrival_kind)
                        if arrival_kind != "poisson"
                        else None
                    ),
                    session=SessionSpec(turns=turns, think_time_s=1.0),
                ),
                slo=SLOSpec(
                    p99_seconds=30.0,
                    admission=admission,
                ),
            )
        )
    return ScenarioSpec(
        name="sessions",
        seed=seed,
        fleet=FleetSpec(
            replicas=groups,
            interconnect=InterconnectSpec() if disaggregated else None,
            prefix_cache=PrefixCacheSpec(capacity_gb=cache_gb),
        ),
        tenants=tuple(tenant_specs),
        routing=RoutingSpec(policy=policy),
    )


class TestPrefixCache:
    def test_miss_then_hit_after_insert(self):
        cache = PrefixCache(capacity_tokens=1000)
        assert cache.lookup(7, 100) == 0
        cache.insert(7, 300)
        assert cache.lookup(7, 100) == 100
        assert cache.hits == 1 and cache.misses == 1
        assert cache.cached_tokens == 100

    def test_hit_capped_at_requested_prefix(self):
        cache = PrefixCache(capacity_tokens=1000)
        cache.insert(1, 500)
        assert cache.lookup(1, 200) == 200
        assert cache.lookup(1, 900) == 500

    def test_peek_moves_no_counters_or_recency(self):
        cache = PrefixCache(capacity_tokens=700)
        cache.insert(1, 300)
        cache.insert(2, 300)
        # Peeking session 1 must NOT renew it: inserting a third entry
        # should still evict 1 (the least recently *used*).
        assert cache.peek(1, 250) == 250
        assert cache.hits == 0 and cache.misses == 0
        cache.insert(3, 300)
        assert cache.peek(1, 250) == 0
        assert cache.peek(2, 250) == 250

    def test_lru_eviction_order_respects_lookups(self):
        cache = PrefixCache(capacity_tokens=700)
        cache.insert(1, 300)
        cache.insert(2, 300)
        cache.lookup(1, 100)  # renews 1; 2 becomes LRU
        cache.insert(3, 300)
        assert cache.peek(2, 100) == 0
        assert cache.peek(1, 100) == 100
        assert cache.evictions == 1

    def test_insert_replaces_resident_session_in_place(self):
        cache = PrefixCache(capacity_tokens=1000)
        cache.insert(5, 400)
        cache.insert(5, 600)
        assert cache.resident_tokens == 600
        assert len(cache) == 1
        assert cache.evictions == 0

    def test_oversized_context_not_admitted(self):
        cache = PrefixCache(capacity_tokens=500)
        cache.insert(1, 200)
        cache.insert(2, 900)  # larger than the whole cache
        assert cache.peek(2, 100) == 0
        assert cache.peek(1, 100) == 100  # resident entries untouched
        assert cache.evictions == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            PrefixCache(capacity_tokens=0)
        cache = PrefixCache(capacity_tokens=10)
        with pytest.raises(ConfigurationError):
            cache.insert(1, 0)


class TestSessionTraceBuild:
    def test_openings_only_in_built_trace(self):
        spec = _session_scenario(turns=4)
        trace = build_requests(spec)
        assert all(r.turn_index == 0 for r in trace)
        assert all(r.session_id == r.request_id for r in trace)

    def test_chain_structure(self):
        spec = _session_scenario(turns=4, tenants=1)
        for opening in build_requests(spec):
            context = opening.input_len + opening.output_len
            node = opening.followup
            turn = 1
            while node is not None:
                assert node.session_id == opening.request_id
                assert node.turn_index == turn
                assert node.prefix_len == context
                assert node.input_len > context  # fresh suffix appended
                assert node.tenant == opening.tenant
                assert not node.arrival_stamped
                assert node.think_time_s > 0.0
                context = node.input_len + node.output_len
                node = node.followup
                turn += 1

    def test_turns_one_means_independent_requests(self):
        spec = _session_scenario(turns=1)
        trace = build_requests(spec)
        assert all(r.followup is None for r in trace)
        assert all(r.session_id is None for r in trace)

    def test_build_is_deterministic(self):
        spec = _session_scenario(turns=3)

        def facts(trace):
            out = []
            for opening in trace:
                node = opening
                while node is not None:
                    out.append(
                        (node.input_len, node.output_len, node.prefix_len,
                         node.think_time_s)
                    )
                    node = node.followup
            return out

        assert facts(build_requests(spec)) == facts(build_requests(spec))

    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_session_chains_shard_order_independent(self, shards):
        """Tenant session chains regenerate bit-identically on any shard
        split — the per-tenant sub-stream depends only on the tenant's
        pinned seed offset, never on which shard serves it."""
        from repro.scenario.run import _shard_specs

        spec = _session_scenario(turns=3, tenants=5, requests=6)

        def chains_by_tenant(sub_spec):
            chains: dict = {}
            for opening in build_requests(sub_spec):
                chain = []
                node = opening
                while node is not None:
                    chain.append(
                        (node.input_len, node.output_len, node.prefix_len,
                         node.think_time_s, node.deadline_budget_s)
                    )
                    node = node.followup
                chains.setdefault(opening.tenant, []).append(
                    (opening.arrival_s, tuple(chain))
                )
            return chains

        baseline = chains_by_tenant(spec)
        seen: dict = {}
        for sub_spec in _shard_specs(spec, shards):
            seen.update(chains_by_tenant(sub_spec))
        assert seen == baseline


class TestSessionSimulation:
    def test_followups_scheduled_and_served(self):
        spec = apply_core_mode(_session_scenario(turns=3), "scalar")
        openings = build_requests(spec)
        expected = 0
        for opening in openings:
            node = opening
            while node is not None:  # chains may truncate at the context cap
                expected += 1
                node = node.followup
        result = run_scenario(spec)
        sessions = result.summary.sessions
        assert sessions["sessions"] == float(len(openings))
        assert sessions["turns_submitted"] == float(expected)
        assert sessions["turns_served"] == float(expected)
        assert sessions["followup_latency"]["samples"] == float(
            expected - len(openings)
        )
        assert result.summary.total_requests == expected
        assert expected > len(openings)  # follow-ups actually ran

    def test_followup_arrives_after_think_time(self):
        """Every follow-up turn's arrival is its predecessor's finish
        plus the pre-drawn think time — load conditioned on outcomes."""
        from repro.scenario.build import (
            build_admission,
            build_interconnect,
            build_replicas,
            build_routing,
        )
        from repro.cluster.cluster import ClusterSimulator

        spec = apply_core_mode(_session_scenario(turns=3, tenants=1), "scalar")
        trace = build_requests(spec)
        simulator = ClusterSimulator(
            build_replicas(spec),
            build_routing(spec),
            admission=build_admission(spec),
            interconnect=build_interconnect(spec),
        )
        simulator.run(trace)
        by_id = {}
        for opening in trace:
            node = opening
            while node is not None:
                by_id[id(node)] = node
                node = node.followup
        checked = 0
        for node in by_id.values():
            if node.followup is not None and node.is_finished:
                assert node.followup.arrival_s == pytest.approx(
                    node.finish_s + node.followup.think_time_s
                )
                checked += 1
        assert checked > 0

    def test_prefix_cache_counters_reported(self):
        spec = apply_core_mode(_session_scenario(turns=3), "vectorized")
        result = run_scenario(spec)
        cache = result.summary.prefix_cache
        assert cache["hits"] > 0
        assert cache["hit_rate"] == pytest.approx(
            cache["hits"] / (cache["hits"] + cache["misses"])
        )
        assert cache["cached_tokens"] > 0
        agg = result.to_dict()["aggregate"]
        assert agg["prefix_cache"] == cache
        assert agg["sessions"]["cached_prefix_tokens"] == pytest.approx(
            result.summary.sessions["cached_prefix_tokens"]
        )

    def test_sessionless_results_omit_session_keys(self):
        spec = apply_core_mode(
            _session_scenario(turns=1, cache_gb=64.0), "scalar"
        )
        spec = dataclasses.replace(
            spec, fleet=dataclasses.replace(spec.fleet, prefix_cache=None)
        )
        agg = run_scenario(spec).to_dict()["aggregate"]
        assert "prefix_cache" not in agg
        assert "sessions" not in agg

    def test_affinity_beats_min_cost_hit_rate(self):
        """The tentpole payoff: steering follow-up turns back to the
        replica holding their prefix lifts the cache hit rate over
        load-only routing on the same workload."""

        def hit_rate(policy):
            spec = apply_core_mode(
                _session_scenario(policy=policy, turns=4, requests=24),
                "vectorized",
            )
            return run_scenario(spec).summary.prefix_cache["hit_rate"]

        assert hit_rate("session-affinity") > hit_rate("min-cost")

    def test_rejected_opening_kills_session_remainder(self):
        """A rejected turn never finishes, so its follow-ups are never
        scheduled: submitted counts stay consistent."""
        spec = apply_core_mode(
            _session_scenario(
                turns=3, requests=24, rate=50.0, replicas=1,
                admission="reject",
            ),
            "scalar",
        )
        spec = dataclasses.replace(
            spec,
            tenants=tuple(
                dataclasses.replace(
                    tenant,
                    slo=dataclasses.replace(tenant.slo, p99_seconds=0.5),
                )
                for tenant in spec.tenants
            ),
        )
        result = run_scenario(spec)
        rejected = sum(t.rejected for t in result.tenants.values())
        sessions = result.summary.sessions
        assert rejected > 0
        assert sessions["turns_submitted"] < 48 * 3
        assert sessions["turns_served"] == (
            sessions["turns_submitted"] - rejected
        )


def _both_cores(spec: ScenarioSpec):
    """``aggregate_fields`` of ``spec`` on the scalar and vectorized cores."""
    return tuple(
        aggregate_fields(run_scenario(apply_core_mode(spec, core)))
        for core in ("scalar", "vectorized")
    )


class TestSessionCoreEquivalence:
    """Scalar / vectorized bit-identity over session workloads.

    (Test names keep "three" from when a third, fleet-batched core sat
    between the two.)
    """

    @pytest.mark.parametrize(
        "policy", ["session-affinity", "min-cost", "slo-slack", "round-robin"]
    )
    def test_three_cores_match_colocated(self, policy):
        spec = _session_scenario(policy=policy, turns=3)
        scalar, vectorized = _both_cores(spec)
        assert vectorized == scalar

    @pytest.mark.parametrize("policy", ["session-affinity", "slo-slack"])
    def test_three_cores_match_disaggregated(self, policy):
        spec = _session_scenario(policy=policy, turns=3, disaggregated=True)
        scalar, vectorized = _both_cores(spec)
        assert vectorized == scalar

    def test_session_reports_match_across_cores(self):
        spec = _session_scenario(turns=4)
        scalar, vectorized = (
            run_scenario(apply_core_mode(spec, core)).summary
            for core in ("scalar", "vectorized")
        )
        assert vectorized.prefix_cache == scalar.prefix_cache
        assert vectorized.sessions == scalar.sessions

    def test_bursty_and_diurnal_openings_match_across_cores(self):
        for kind in ("bursty", "diurnal"):
            spec = _session_scenario(turns=3, arrival_kind=kind)
            scalar, vectorized = _both_cores(spec)
            assert vectorized == scalar, kind

    def test_seeded_fuzz_over_session_matrix(self):
        rng = random.Random(20250807)
        for _ in range(6):
            spec = _session_scenario(
                policy=rng.choice(
                    ["session-affinity", "min-cost", "slo-slack"]
                ),
                turns=rng.randint(2, 4),
                tenants=rng.randint(1, 3),
                requests=rng.randint(6, 14),
                rate=rng.choice([1.0, 4.0, 16.0]),
                replicas=rng.randint(2, 4),
                disaggregated=rng.random() < 0.5,
                admission=rng.choice(["admit", "reject", "defer"]),
                arrival_kind=rng.choice(["poisson", "bursty", "diurnal"]),
                seed=rng.randint(0, 2**16),
                cache_gb=rng.choice([0.5, 8.0, 64.0]),
            )
            scalar, vectorized = _both_cores(spec)
            assert vectorized == scalar, spec


class TestSessionSharding:
    def test_sharded_session_stats_merge(self):
        spec = apply_core_mode(
            _session_scenario(turns=3, tenants=4, requests=6), "vectorized"
        )
        from repro.scenario.run import _shard_specs

        merged = run_scenario(spec, shards=2)
        parts = [run_scenario(sub) for sub in _shard_specs(spec, 2)]
        for key in ("sessions", "turns_submitted", "turns_served",
                    "cached_prefix_tokens"):
            assert merged.summary.sessions[key] == sum(
                part.summary.sessions[key] for part in parts
            )
        assert merged.summary.sessions["followup_latency"]["samples"] == sum(
            part.summary.sessions["followup_latency"]["samples"]
            for part in parts
        )
        assert merged.summary.prefix_cache["hits"] == sum(
            part.summary.prefix_cache["hits"] for part in parts
        )
        lookups = (
            merged.summary.prefix_cache["hits"]
            + merged.summary.prefix_cache["misses"]
        )
        assert merged.summary.prefix_cache["hit_rate"] == pytest.approx(
            merged.summary.prefix_cache["hits"] / lookups
        )
