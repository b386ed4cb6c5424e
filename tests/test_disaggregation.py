"""Prefill/decode disaggregation: spec contract, equivalence, reporting.

A disaggregated fleet routes every request through a two-stage path —
prefill pool, KV transfer over the fleet interconnect, decode pool —
and promises the same bit-identical-cores contract as colocated fleets:
the scalar reference core and the array-backed vectorized core must
agree digit for digit on every summary a study reads. This suite pins
that promise across routers x admission policies x pool shapes
(including asymmetric splits) x PAPI and static-baseline pools, plus a
seeded fuzz harness; it also pins the spec-validation surface (role
mixing, missing pools, interconnect presence rules), the transfer cost
model, the per-pool / handoff-latency reporting, and the
order-independence of the sharded merge.
"""

import dataclasses
import random

import pytest

from repro.cluster.fleetstate import FleetState, VectorReplica
from repro.cluster.router import projected_step_seconds
from repro.errors import ConfigurationError
from repro.models.config import get_model
from repro.scenario.run import (
    _merge_pool_reports,
    _merge_sample_stats,
    apply_core_mode,
    run_scenario,
)
from repro.scenario.spec import (
    FleetSpec,
    InterconnectSpec,
    ReplicaSpec,
    RoutingSpec,
    ScenarioSpec,
    SLOSpec,
    TenantSpec,
    TrafficSpec,
    WorkloadSpec,
)
from repro.serving.request import Request
from repro.systems.registry import build_system

INTERCONNECT = InterconnectSpec(
    kv_bytes_per_token=1_310_720.0, bandwidth_gb_s=50.0, hop_latency_s=50e-6
)


def _pools(prefill: int, decode: int, system: str = "papi") -> FleetSpec:
    return FleetSpec(
        replicas=(
            ReplicaSpec(
                count=prefill, max_batch_size=8, role="prefill", system=system
            ),
            ReplicaSpec(
                count=decode, max_batch_size=8, role="decode", system=system
            ),
        ),
        interconnect=INTERCONNECT,
    )


def _scenario(
    policy: str,
    admission: str = "admit",
    prefill: int = 2,
    decode: int = 2,
    requests: int = 40,
    seed: int = 11,
    system: str = "papi",
) -> ScenarioSpec:
    tenants = [
        TenantSpec(
            name="interactive",
            traffic=TrafficSpec(requests=requests, rate_per_s=24.0),
            slo=SLOSpec(p99_seconds=20.0, admission=admission)
            if admission != "admit"
            else SLOSpec(p99_seconds=20.0),
        ),
        TenantSpec(
            name="batch",
            traffic=TrafficSpec(
                category="general-qa", requests=requests, rate_per_s=24.0
            ),
        ),
    ]
    return ScenarioSpec(
        name="disaggregation",
        seed=seed,
        workload=WorkloadSpec(),
        fleet=_pools(prefill, decode, system),
        tenants=tuple(tenants),
        routing=RoutingSpec(policy=policy),
    )


def _core_fields(spec: ScenarioSpec, core: str) -> dict:
    """``comparable_fields`` of ``spec`` run on one core."""
    return comparable_fields(run_scenario(apply_core_mode(spec, core)))


def comparable_fields(result) -> dict:
    """Every output of a disaggregated run except instrumentation
    counters (``router_cache`` / ``probe_memo`` count probes differently
    across cores by design)."""
    summary = result.summary
    return {
        "makespan": summary.makespan_seconds,
        "total_requests": summary.total_requests,
        "tokens": summary.tokens_generated,
        "latencies": sorted(summary.request_latencies),
        "p50": summary.latency_percentile(50),
        "p99": summary.latency_percentile(99),
        "mean": summary.mean_latency,
        "reschedules": summary.total_reschedules,
        "ttft": dict(summary.ttft),
        "transfer_wait": dict(summary.transfer_wait),
        "pools": {
            role: dataclasses.asdict(report)
            for role, report in summary.pools.items()
        },
        "replicas": [
            {
                "role": report.role,
                "served": report.requests_served,
                "transferred": report.requests_transferred,
                "tokens": report.tokens_generated,
                "iterations": report.iterations,
                "busy": report.busy_seconds,
                "utilization": report.utilization,
                "reschedules": report.reschedules,
                "queueing_seconds": report.summary.queueing_seconds,
            }
            for report in summary.replicas
        ],
        "tenants": {
            name: dataclasses.asdict(report)
            for name, report in summary.tenants.items()
        },
    }


class TestSpecValidation:
    def test_colocated_cannot_mix_with_pools(self):
        fleet = FleetSpec(
            replicas=(
                ReplicaSpec(role="prefill"),
                ReplicaSpec(role="colocated"),
                ReplicaSpec(role="decode"),
            ),
            interconnect=INTERCONNECT,
        )
        with pytest.raises(ConfigurationError, match="cannot mix"):
            fleet.validate()

    def test_disaggregated_needs_prefill_pool(self):
        fleet = FleetSpec(
            replicas=(ReplicaSpec(role="decode"),), interconnect=INTERCONNECT
        )
        with pytest.raises(ConfigurationError, match="role='prefill'"):
            fleet.validate()

    def test_disaggregated_needs_decode_pool(self):
        fleet = FleetSpec(
            replicas=(ReplicaSpec(role="prefill"),), interconnect=INTERCONNECT
        )
        with pytest.raises(ConfigurationError, match="role='decode'"):
            fleet.validate()

    def test_disaggregated_needs_interconnect(self):
        fleet = FleetSpec(
            replicas=(
                ReplicaSpec(role="prefill"),
                ReplicaSpec(role="decode"),
            )
        )
        with pytest.raises(ConfigurationError, match="interconnect"):
            fleet.validate()

    def test_colocated_rejects_interconnect(self):
        fleet = FleetSpec(
            replicas=(ReplicaSpec(),), interconnect=INTERCONNECT
        )
        with pytest.raises(ConfigurationError, match="interconnect"):
            fleet.validate()

    def test_unknown_role_rejected(self):
        with pytest.raises(ConfigurationError, match="role"):
            ReplicaSpec(role="draft").validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("kv_bytes_per_token", 0.0),
            ("bandwidth_gb_s", -1.0),
            ("hop_latency_s", -1e-6),
        ],
    )
    def test_interconnect_bounds(self, field, value):
        spec = dataclasses.replace(INTERCONNECT, **{field: value})
        with pytest.raises(ConfigurationError, match=field):
            spec.validate()

    def test_disaggregated_property(self):
        assert _pools(1, 1).disaggregated
        assert not FleetSpec().disaggregated


class TestTransferCost:
    def test_transfer_seconds_formula(self):
        spec = InterconnectSpec(
            kv_bytes_per_token=2e6, bandwidth_gb_s=100.0, hop_latency_s=1e-4
        )
        # 512 tokens x 2 MB / 100 GB/s = 10.24 ms, plus the 0.1 ms hop.
        assert spec.transfer_seconds(512) == pytest.approx(1e-4 + 1.024e-2)

    def test_zero_context_costs_the_hop(self):
        assert INTERCONNECT.transfer_seconds(0) == INTERCONNECT.hop_latency_s

    def test_monotone_in_context(self):
        assert INTERCONNECT.transfer_seconds(2048) > (
            INTERCONNECT.transfer_seconds(64)
        )


CASES = [
    pytest.param("round-robin", "admit", 2, 2, "papi", id="round-robin-2x2"),
    pytest.param("least-outstanding", "admit", 2, 2, "papi", id="least-2x2"),
    pytest.param("min-cost", "admit", 2, 2, "papi", id="min-cost-2x2"),
    pytest.param(
        "min-cost", "admit", 1, 3, "papi", id="min-cost-asymmetric-1x3"
    ),
    pytest.param("min-cost", "defer", 2, 2, "papi", id="min-cost-defer"),
    pytest.param("slo-slack", "admit", 2, 2, "papi", id="slo-slack-2x2"),
    pytest.param(
        "slo-slack", "admit", 3, 1, "papi", id="slo-slack-asymmetric-3x1"
    ),
    pytest.param("slo-slack", "defer", 2, 2, "papi", id="slo-slack-defer"),
    pytest.param(
        "slo-slack", "reject", 1, 2, "papi", id="slo-slack-reject-1x2"
    ),
    pytest.param(
        "least-outstanding", "reject", 2, 1, "papi", id="least-reject-2x1"
    ),
    # Static AttAcc pools (constant FC planner) run deep enough decode
    # queues that the vectorized probe walks queued mid-life requests;
    # TestDecodeQueueProbe pins that walk directly.
    pytest.param(
        "min-cost", "admit", 2, 2, "attacc-only", id="min-cost-attacc-only"
    ),
    pytest.param(
        "slo-slack", "admit", 2, 2, "attacc-only", id="slo-slack-attacc-only"
    ),
    pytest.param(
        "session-affinity", "admit", 2, 2, "attacc-only",
        id="session-affinity-attacc-only",
    ),
]


class TestCoreEquivalence:
    """The scalar oracle against the vectorized core."""

    @pytest.mark.parametrize("policy,admission,prefill,decode,system", CASES)
    def test_scalar_event_bit_identical(
        self, policy, admission, prefill, decode, system
    ):
        spec = _scenario(
            policy,
            admission=admission,
            prefill=prefill,
            decode=decode,
            system=system,
        )
        assert _core_fields(spec, "vectorized") == _core_fields(spec, "scalar")

    @pytest.mark.parametrize(
        "policy,admission",
        [
            ("round-robin", "admit"),
            ("min-cost", "admit"),
            ("slo-slack", "defer"),
            ("least-outstanding", "reject"),
        ],
    )
    def test_vectorized_three_way_bit_identical(self, policy, admission):
        spec = _scenario(policy, admission=admission, prefill=2, decode=3)
        assert _core_fields(spec, "vectorized") == _core_fields(spec, "scalar")

    def test_seeded_fuzz_matrix(self):
        """Random corners of the config cross-product agree across both
        cores — the same harness shape as the colocated fuzz."""
        rng = random.Random(20250807)
        for _ in range(4):
            spec = _scenario(
                rng.choice(
                    ["round-robin", "least-outstanding", "min-cost", "slo-slack"]
                ),
                admission=rng.choice(["admit", "defer", "reject"]),
                prefill=rng.randint(1, 3),
                decode=rng.randint(1, 3),
                requests=rng.randint(16, 48),
                seed=rng.randint(0, 999),
            )
            assert _core_fields(spec, "vectorized") == _core_fields(
                spec, "scalar"
            ), spec.name

    def test_vectorized_probes_through_decode_fleet_state(self):
        """Vectorized disaggregated runs probe the decode pool through
        its FleetState. The comparisons above skip ``probe_memo``, so a
        loop handed the plain replica list would stay bit-identical and
        pass them while losing the verdict memo."""
        spec = _scenario("slo-slack", admission="defer")
        vectorized = run_scenario(apply_core_mode(spec, "vectorized"))
        memo = vectorized.summary.probe_memo
        assert memo["probe_hits"] + memo["probe_misses"] > 0
        scalar = run_scenario(apply_core_mode(spec, "scalar")).summary
        assert scalar.probe_memo == {}


def _mid_life(request_id: int, input_len: int, generated: int) -> Request:
    """A request handed to a decode pool after ``generated`` tokens."""
    return Request(
        request_id=request_id,
        input_len=input_len,
        output_len=256,
        generated=generated,
    )


class TestDecodeQueueProbe:
    def test_waiting_prefix_walk_counts_generated_tokens(self):
        """A decode replica queues mid-life requests. When its queue is
        longer than its free slots, the vectorized probe walks the
        queued prefix, and must count each request's current KV
        context (prompt plus generated tokens), as the reference probe
        does. Pinned on the full vector pass and the incremental lane
        refresh, with contexts chosen so that dropping the generated
        tokens moves the projected mean context down one price bucket.
        """
        model = get_model("llama-65b")
        replicas = [
            VectorReplica(
                replica_id=i,
                system=build_system("papi"),
                model=model,
                max_batch_size=4,
                role="decode",
            )
            for i in range(5)
        ]
        busy = replicas[0]
        busy.enqueue(_mid_life(0, 500, 1))
        busy.enqueue(_mid_life(1, 500, 1))
        assert busy.poke(0.0) is not None  # two active, step in flight
        for request_id in (2, 3, 4):
            busy.enqueue(_mid_life(request_id, 400, 64))
        # Two free slots, three queued: the projection walks two.
        candidate = Request(request_id=9, input_len=300, output_len=32)
        expected = [
            projected_step_seconds(replica, candidate) for replica in replicas
        ]
        fleet = FleetState(replicas)
        assert fleet.fleet_step_seconds(candidate) == expected  # vector pass
        fleet.mark_dirty(0)
        assert fleet.fleet_step_seconds(candidate) == expected  # lane refresh


class TestReporting:
    def test_disaggregated_summary_reports_pools_and_handoff(self):
        result = run_scenario(_scenario("min-cost"))
        summary = result.summary
        assert set(summary.pools) == {"prefill", "decode"}
        prefill, decode = summary.pools["prefill"], summary.pools["decode"]
        assert prefill.replicas == 2 and decode.replicas == 2
        # Multi-token requests all cross the interconnect exactly once.
        assert prefill.requests_transferred > 0
        assert decode.requests_transferred == 0
        assert (
            prefill.requests_served + decode.requests_served
            == summary.total_requests
        )
        assert 0.0 <= prefill.utilization <= 1.0
        for stats in (summary.ttft, summary.transfer_wait):
            assert stats["samples"] > 0
            assert stats["mean_s"] > 0.0
            assert stats["p50_s"] <= stats["p99_s"]
        # Handoff leaves after the first token, so waiting for the KV
        # cache is strictly part of (not on top of) request latency.
        assert summary.ttft["mean_s"] < summary.mean_latency
        roles = {report.role for report in summary.replicas}
        assert roles == {"prefill", "decode"}

    def test_prefill_pool_counts_first_tokens(self):
        result = run_scenario(_scenario("round-robin"))
        prefill = result.summary.pools["prefill"]
        # Every admitted request earns exactly one token in prefill.
        assert prefill.tokens_generated == result.summary.total_requests

    def test_colocated_summary_has_no_pool_sections(self):
        spec = ScenarioSpec(
            name="colocated",
            seed=3,
            tenants=(
                TenantSpec(
                    name="t",
                    traffic=TrafficSpec(requests=8, rate_per_s=16.0),
                ),
            ),
        )
        summary = run_scenario(spec).summary
        assert summary.pools == {}
        assert summary.ttft == {}
        assert summary.transfer_wait == {}

    def test_result_dict_carries_roles_and_pools(self):
        payload = run_scenario(_scenario("min-cost")).to_dict()
        assert set(payload["pools"]) == {"prefill", "decode"}
        assert {r["role"] for r in payload["replicas"]} == {
            "prefill", "decode"
        }
        assert all("requests_transferred" in r for r in payload["replicas"])
        assert payload["aggregate"]["ttft"]["samples"] > 0
        assert payload["aggregate"]["transfer_wait"]["samples"] > 0


class TestShardedMerge:
    def test_sharded_run_merges_pools_and_handoff_stats(self):
        spec = _scenario("min-cost", requests=24)
        single = run_scenario(spec).summary
        sharded = run_scenario(spec, shards=2).summary
        assert set(sharded.pools) == {"prefill", "decode"}
        # Each shard runs its tenant on its own fleet copy.
        assert sharded.pools["prefill"].replicas == 2 * single.pools[
            "prefill"
        ].replicas
        assert (
            sharded.pools["prefill"].requests_transferred
            == sharded.pools["decode"].requests_served
        )
        assert sharded.ttft["samples"] == sum(
            t.admitted for t in sharded.tenants.values()
        )
        assert sharded.transfer_wait["samples"] == sharded.ttft["samples"]

    def test_pool_merge_is_shard_order_independent(self):
        spec = _scenario("slo-slack", admission="defer", requests=24)
        shards = [
            run_scenario(
                dataclasses.replace(
                    spec,
                    tenants=(
                        dataclasses.replace(tenant, seed_offset=index),
                    ),
                )
            ).summary
            for index, tenant in enumerate(spec.tenants)
        ]
        forward = _merge_pool_reports(shards)
        reverse = _merge_pool_reports(list(reversed(shards)))
        assert forward == reverse
        for stats in ("ttft", "transfer_wait"):
            forward_stats = _merge_sample_stats(
                [getattr(s, stats) for s in shards]
            )
            reverse_stats = _merge_sample_stats(
                [getattr(s, stats) for s in reversed(shards)]
            )
            assert forward_stats == reverse_stats

    def test_sample_merge_skips_empty_shards(self):
        assert _merge_sample_stats([{}, {}]) == {}
        stats = {"mean_s": 0.5, "p50_s": 0.4, "p99_s": 0.9, "samples": 8.0}
        assert _merge_sample_stats([{}, stats]) == stats
