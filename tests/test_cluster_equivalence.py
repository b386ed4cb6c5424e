"""Scalar/vectorized cluster equivalence: the optimization contract.

The array-backed vectorized core (``fleet.core_mode="vectorized"``, the
default) — incremental load counters, fleet-wide probe arrays, dense
price tables, verdict memos — and streaming metrics (``fleet.detail``)
promise *bit-identical* cluster outputs to the scalar reference core,
which probes every replica one at a time and rescans its queues. This
suite pins that promise across a matrix of workloads: routers x
admission policies x dense/MoE x speculation depths x PAPI and
static-baseline fleets, plus a seeded fuzz harness that samples the
cross-product at random. If an optimization ever reorders a routing
decision, drifts a float, or drops a tenant counter, the mismatch
surfaces here (and in the ``bench_cluster`` equivalence gate) instead
of silently skewing a study.
"""

import dataclasses
import random
from pathlib import Path

import pytest
from test_fleet_version_memo import _storm_scenario

from repro.cluster.admission import SLOAdmissionController
from repro.cluster.replica import Replica
from repro.errors import ConfigurationError
from repro.scenario import load_scenario
from repro.scenario.spec import (
    FleetSpec,
    MoESpec,
    ReplicaSpec,
    RoutingSpec,
    ScenarioSpec,
    SLOSpec,
    TenantSpec,
    TrafficSpec,
    WorkloadSpec,
)
from repro.scenario.run import apply_core_mode, run_scenario
from repro.serving.clock import EventCalendar


def _scenario(
    policy: str,
    admission: str = "admit",
    moe: bool = False,
    speculation_length: int = 2,
    context_mode: str = "per-request",
    requests: int = 48,
    replicas: int = 3,
    system: str = "papi",
) -> ScenarioSpec:
    tenants = [
        TenantSpec(
            name="interactive",
            traffic=TrafficSpec(requests=requests, rate_per_s=24.0),
            slo=SLOSpec(
                p99_seconds=20.0,
                admission=admission,
            ) if admission != "admit" else SLOSpec(p99_seconds=20.0),
        ),
        TenantSpec(
            name="batch",
            traffic=TrafficSpec(
                category="general-qa", requests=requests, rate_per_s=24.0
            ),
        ),
    ]
    workload = WorkloadSpec(
        speculation_length=speculation_length,
        context_mode=context_mode,
        moe=MoESpec(num_experts=8, experts_per_token=2) if moe else None,
    )
    return ScenarioSpec(
        name="equivalence",
        seed=11,
        workload=workload,
        fleet=FleetSpec(
            replicas=(
                ReplicaSpec(
                    count=replicas, max_batch_size=8, system=system
                ),
            )
        ),
        tenants=tuple(tenants),
        routing=RoutingSpec(policy=policy),
    )


def _scalar(spec: ScenarioSpec) -> ScenarioSpec:
    """The reference core: per-replica probes + scans + full records."""
    return apply_core_mode(spec, "scalar")


def _vectorized(spec: ScenarioSpec) -> ScenarioSpec:
    """The array-backed core with streamed aggregates."""
    return apply_core_mode(spec, "vectorized")


def aggregate_fields(result) -> dict:
    """Every output of a cluster run except instrumentation counters.

    ``router_cache`` statistics are deliberately excluded: the vectorized
    core reports its dense price tables' counters there, the scalar core
    its price cache's. Everything
    a study reads — latencies, throughput, placement, energy, per-tenant
    SLO accounting — is compared exactly.
    """
    summary = result.summary
    return {
        "router": summary.router,
        "makespan": summary.makespan_seconds,
        "total_requests": summary.total_requests,
        "tokens": summary.tokens_generated,
        "latencies": sorted(summary.request_latencies),
        "p50": summary.latency_percentile(50),
        "p99": summary.latency_percentile(99),
        "mean": summary.mean_latency,
        "reschedules": summary.total_reschedules,
        "replicas": [
            {
                "served": report.requests_served,
                "tokens": report.tokens_generated,
                "iterations": report.iterations,
                "busy": report.busy_seconds,
                "utilization": report.utilization,
                "reschedules": report.reschedules,
                "acceptance": report.acceptance_rate,
                "expert_visits": report.expert_token_visits,
                "active_experts": report.mean_active_experts,
                "decode_seconds": report.summary.decode_seconds,
                "decode_energy": report.summary.decode_energy,
                "prefill_seconds": report.summary.prefill_seconds,
                "queueing_seconds": report.summary.queueing_seconds,
                "fc_targets": dict(report.summary.fc_target_iterations),
                "time_breakdown": dict(report.summary.time_breakdown),
                "energy_breakdown": dict(report.summary.energy_breakdown),
            }
            for report in summary.replicas
        ],
        "tenants": {
            name: dataclasses.asdict(report)
            for name, report in summary.tenants.items()
        },
    }


CASES = [
    pytest.param("min-cost", "admit", False, 2, "papi", id="min-cost-dense"),
    pytest.param("min-cost", "admit", True, 2, "papi", id="min-cost-moe"),
    pytest.param(
        "intensity", "admit", False, 2, "papi", id="intensity-dense"
    ),
    pytest.param(
        "intensity", "defer", False, 1, "papi", id="intensity-defer-serial"
    ),
    pytest.param(
        "slo-slack", "admit", False, 2, "papi", id="slo-slack-dense"
    ),
    pytest.param(
        "slo-slack", "reject", False, 2, "papi", id="slo-slack-reject"
    ),
    pytest.param(
        "slo-slack", "defer", False, 4, "papi", id="slo-slack-defer-spec4"
    ),
    pytest.param(
        "slo-slack", "defer", True, 2, "papi", id="slo-slack-defer-moe"
    ),
    pytest.param(
        "least-outstanding", "reject", False, 2, "papi", id="least-reject"
    ),
    # Static baselines carry no scheduler load signal: the intensity
    # router ranks them by projected admission cost, through constant
    # (a100-attacc, attacc-only) and generic (a100-hbm-pim) FC planners.
    pytest.param(
        "intensity", "admit", False, 2, "a100-attacc",
        id="intensity-a100-attacc",
    ),
    pytest.param(
        "intensity", "defer", False, 2, "attacc-only",
        id="intensity-attacc-only",
    ),
    pytest.param(
        "intensity", "admit", False, 2, "a100-hbm-pim",
        id="intensity-a100-hbm-pim",
    ),
]


class TestBatchedScalarEquivalence:
    @pytest.mark.parametrize("policy,admission,moe,spec_len,system", CASES)
    def test_bit_identical_outputs(
        self, policy, admission, moe, spec_len, system
    ):
        spec = _scenario(
            policy,
            admission=admission,
            moe=moe,
            speculation_length=spec_len,
            system=system,
        )
        scalar = aggregate_fields(run_scenario(_scalar(spec)))
        vectorized = aggregate_fields(run_scenario(_vectorized(spec)))
        assert vectorized == scalar

    def test_mean_context_mode_equivalent(self):
        spec = _scenario("slo-slack", admission="defer", context_mode="mean")
        scalar = aggregate_fields(run_scenario(_scalar(spec)))
        vectorized = aggregate_fields(run_scenario(_vectorized(spec)))
        assert vectorized == scalar

    def test_mixed_fleet_groups_split_by_workload(self):
        """A mixed MoE + dense fleet on identical hardware must not let
        the vectorized probes collapse different workloads into one
        price table."""
        base = _scenario("min-cost")
        moe_group = ReplicaSpec(
            count=2,
            max_batch_size=8,
            workload=dataclasses.replace(
                base.workload, moe=MoESpec(num_experts=8, experts_per_token=2)
            ),
        )
        dense_group = ReplicaSpec(count=2, max_batch_size=8)
        spec = dataclasses.replace(
            base,
            fleet=dataclasses.replace(
                base.fleet, replicas=(moe_group, dense_group)
            ),
        )
        scalar = aggregate_fields(run_scenario(_scalar(spec)))
        vectorized = aggregate_fields(run_scenario(_vectorized(spec)))
        assert vectorized == scalar

    def test_aggregate_detail_drops_records_only(self):
        spec = _scenario("min-cost")
        full = run_scenario(spec)
        aggregate = run_scenario(
            dataclasses.replace(
                spec, fleet=dataclasses.replace(spec.fleet, detail="aggregate")
            )
        )
        for full_report, agg_report in zip(
            full.summary.replicas, aggregate.summary.replicas
        ):
            assert full_report.summary.records, "full mode keeps records"
            assert agg_report.summary.records == []
            assert agg_report.summary.rlp_trace() == []
            assert (
                full_report.summary.request_latencies
                == agg_report.summary.request_latencies
            )
        assert aggregate_fields(full) == aggregate_fields(aggregate)

    def test_load_accounting_counters_match_scans(self):
        """The incremental counters answer exactly what a rescan would.

        Runs the scalar core, whose replicas keep request objects current
        every iteration, and flips each replica between scan and
        incremental accounting mid-run to compare the two answers.
        """
        from repro.scenario.build import (
            build_replicas,
            build_requests,
            build_routing,
        )
        from repro.cluster.cluster import ClusterSimulator

        spec = _scalar(_scenario("min-cost", requests=32, replicas=2))
        replicas = build_replicas(spec)
        assert {replica.load_accounting for replica in replicas} == {"scan"}
        probed = []
        simulator = ClusterSimulator(replicas, build_routing(spec))
        # Interpose on the router to cross-check counters mid-run.
        original_select = simulator.router.select

        def load_views(replica, input_len):
            return (
                replica.outstanding_remaining_tokens(),
                replica.projected_admission_load(input_len),
            )

        def checking_select(request, fleet, now):
            for replica in fleet:
                scan = load_views(replica, request.input_len)
                replica.load_accounting = "incremental"
                incremental = load_views(replica, request.input_len)
                replica.load_accounting = "scan"
                assert incremental == scan
                probed.append(replica.replica_id)
            return original_select(request, fleet, now)

        simulator.router.select = checking_select
        simulator.run(build_requests(spec))
        assert probed, "router probes exercised the counters"


FUZZ_ROUTERS = (
    "round-robin", "least-outstanding", "intensity", "min-cost", "slo-slack"
)
FUZZ_ADMISSIONS = ("admit", "defer", "reject")
FUZZ_TLP_POLICIES = ("fixed", "acceptance", "utilization")


class TestVectorizedCoreFuzz:
    """Seeded random sampling of the configuration cross-product.

    Each case draws a router, admission policy, dense/MoE workload,
    speculation depth, context mode, TLP policy, detail mode, trace
    seed, and fleet shape from a deterministic RNG, then demands the
    vectorized and scalar cores agree bit-for-bit. The cases are
    reproducible (fixed base seed per case index) so a failure here is
    a regression, never flakiness. (The test keeps its historical name
    from when a third, fleet-batched core sat between the two.)
    """

    @pytest.mark.parametrize("case_seed", range(6))
    def test_three_cores_agree(self, case_seed):
        rng = random.Random(9000 + case_seed)
        spec = _scenario(
            rng.choice(FUZZ_ROUTERS),
            admission=rng.choice(FUZZ_ADMISSIONS),
            moe=rng.random() < 0.4,
            speculation_length=rng.choice((1, 2, 4)),
            context_mode=rng.choice(("per-request", "mean")),
            requests=rng.randrange(16, 33),
            replicas=rng.choice((2, 3)),
        )
        spec = dataclasses.replace(
            spec,
            seed=rng.randrange(1, 10_000),
            workload=dataclasses.replace(
                spec.workload, tlp_policy=rng.choice(FUZZ_TLP_POLICIES)
            ),
        )
        vec_spec = _vectorized(spec)
        if rng.random() < 0.5:
            # The vectorized core must match under full detail too.
            vec_spec = dataclasses.replace(
                vec_spec,
                fleet=dataclasses.replace(vec_spec.fleet, detail="full"),
            )
        scalar = aggregate_fields(run_scenario(_scalar(spec)))
        vectorized = aggregate_fields(run_scenario(vec_spec))
        assert vectorized == scalar


class TestCoreModeSpec:
    def test_unknown_core_mode_rejected(self):
        spec = _scenario("min-cost")
        spec = dataclasses.replace(
            spec, fleet=dataclasses.replace(spec.fleet, core_mode="turbo")
        )
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_vectorized_is_the_default_core(self):
        """A spec that names no core runs the vectorized simulator, whose
        fleet-version verdict memo shows in the summary."""
        spec = _scenario("slo-slack", admission="defer", requests=16)
        assert spec.fleet.core_mode == "vectorized"
        memo = run_scenario(spec).summary.probe_memo
        assert memo["probe_hits"] + memo["probe_misses"] > 0
        assert not run_scenario(_scalar(spec)).summary.probe_memo

    @pytest.mark.parametrize(
        "section,field,value",
        [
            ("routing", "batched", False),
            ("fleet", "load_accounting", "scan"),
            ("fleet", "core_mode", "event"),
        ],
    )
    def test_removed_knobs_rejected_with_path(
        self, tmp_path, section, field, value
    ):
        """Scenario files written for the retired fleet-batched core fail
        loudly, naming the field, instead of silently changing meaning."""
        import json

        data = _scenario("min-cost").to_dict()
        data[section][field] = value
        path = tmp_path / "retired.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match=f"{section}.{field}"):
            load_scenario(str(path))


MIXED_FLEET = (
    Path(__file__).resolve().parent.parent
    / "examples" / "scenarios" / "mixed_fleet.json"
)


def _with_replicas(spec: ScenarioSpec, **changes) -> ScenarioSpec:
    replicas = tuple(
        dataclasses.replace(replica, **changes)
        for replica in spec.fleet.replicas
    )
    return dataclasses.replace(
        spec, fleet=dataclasses.replace(spec.fleet, replicas=replicas)
    )


def _one_replica(spec: ScenarioSpec) -> ScenarioSpec:
    replica = dataclasses.replace(spec.fleet.replicas[0], count=1)
    return dataclasses.replace(
        spec, fleet=dataclasses.replace(spec.fleet, replicas=(replica,))
    )


def _with_slo(spec: ScenarioSpec, slo: SLOSpec) -> ScenarioSpec:
    return dataclasses.replace(
        spec,
        tenants=tuple(
            dataclasses.replace(tenant, slo=slo) for tenant in spec.tenants
        ),
    )


def _single_request(spec: ScenarioSpec) -> ScenarioSpec:
    tenant = spec.tenants[0]
    tenant = dataclasses.replace(
        tenant, traffic=dataclasses.replace(tenant.traffic, requests=1)
    )
    return dataclasses.replace(spec, tenants=(tenant,))


#: Degenerate variants of the checked-in mixed fleet.
DEGENERATE_FLEETS = {
    "one-replica": _one_replica,
    "batch-1": lambda spec: _with_replicas(spec, max_batch_size=1),
    "one-replica-batch-1": lambda spec: _with_replicas(
        _one_replica(spec), max_batch_size=1
    ),
    "single-request": _single_request,
    "all-rejected": lambda spec: _with_slo(
        spec, SLOSpec(p99_seconds=1e-6, admission="reject")
    ),
    "deferred-twice-then-rejected": lambda spec: _with_slo(
        spec, SLOSpec(p99_seconds=1e-6, admission="defer", max_defers=2)
    ),
}


class TestDegenerateFleets:
    @pytest.mark.parametrize("variant", sorted(DEGENERATE_FLEETS))
    def test_cores_agree_and_conserve_requests(self, variant):
        """One replica, one slot, one request, or nothing admitted: both
        cores finish, agree exactly, and account for every request."""
        spec = load_scenario(str(MIXED_FLEET))
        spec = dataclasses.replace(
            spec,
            tenants=tuple(
                dataclasses.replace(
                    tenant,
                    traffic=dataclasses.replace(tenant.traffic, requests=8),
                )
                for tenant in spec.tenants
            ),
        )
        spec = DEGENERATE_FLEETS[variant](spec)
        aggregates = {}
        for core in ("scalar", "vectorized"):
            result = run_scenario(apply_core_mode(spec, core))
            for name, report in result.tenants.items():
                assert report.submitted == report.served + report.rejected, (
                    core, name,
                )
                if variant == "all-rejected":
                    assert report.rejected == report.submitted
                if variant == "deferred-twice-then-rejected":
                    assert report.rejected == report.submitted
                    assert report.deferrals == 2 * report.submitted
            aggregates[core] = aggregate_fields(result)
        assert aggregates["scalar"] == aggregates["vectorized"]


def _loop_scenario(name: str) -> ScenarioSpec:
    """The deferral storm, or one of the checked-in example scenarios."""
    if name == "storm":
        return _storm_scenario()
    return load_scenario(str(MIXED_FLEET.with_name(f"{name}.json")))


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` so every call bumps the returned one-item list."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestOneEventLoop:
    """Both cores, on every fleet topology, run ``_run_strict``: pin the
    two rules through which its behaviour depends on the fleet."""

    @pytest.mark.parametrize(
        "scenario", ["storm", "mixed_fleet", "disaggregated"]
    )
    def test_admission_decides_once_per_popped_arrival(
        self, monkeypatch, scenario
    ):
        """Admission is always ``SLOAdmissionController.decide``: one
        call per popped arrival (every submission plus every deferred
        re-arrival), the same count on both cores."""
        calls = _count_calls(monkeypatch, SLOAdmissionController, "decide")
        decided = {}
        for core in ("scalar", "vectorized"):
            calls[0] = 0
            result = run_scenario(
                apply_core_mode(_loop_scenario(scenario), core)
            )
            tenants = result.summary.tenants.values()
            assert calls[0] == sum(
                report.submitted + report.deferrals for report in tenants
            ), core
            decided[core] = calls[0]
        assert decided["scalar"] == decided["vectorized"] > 0

    @pytest.mark.parametrize(
        "scenario, core, relaxed",
        [
            ("storm", "vectorized", True),
            ("mixed_fleet", "vectorized", True),
            ("sessions", "vectorized", False),
            ("disaggregated", "vectorized", False),
            ("storm", "scalar", False),
            ("mixed_fleet", "scalar", False),
            ("sessions", "scalar", False),
            ("disaggregated", "scalar", False),
        ],
    )
    def test_relaxed_horizon_only_on_vectorized_colocated_sessionless(
        self, monkeypatch, scenario, core, relaxed
    ):
        """Only a vectorized colocated sessionless fleet bursts to the
        next interaction event and plans macro-runs; the scalar oracle,
        session traces and disaggregated fleets keep the strict
        ``peek_time`` horizon and step every iteration."""
        peeks = _count_calls(
            monkeypatch, EventCalendar, "peek_interaction_time"
        )
        plans = _count_calls(monkeypatch, Replica, "plan_run")
        result = run_scenario(apply_core_mode(_loop_scenario(scenario), core))
        if relaxed:
            assert peeks[0] > 0
            assert plans[0] > 0
        else:
            assert peeks[0] == 0
            assert plans[0] == 0
            assert result.summary.step_macro == {}


def _many_tenant_spec(tenants: int = 5, requests: int = 12) -> ScenarioSpec:
    """A spec with several independent tenants for sharding tests."""
    categories = ("creative-writing", "general-qa")
    tenant_specs = tuple(
        TenantSpec(
            name=f"tenant-{index}",
            traffic=TrafficSpec(
                category=categories[index % len(categories)],
                requests=requests,
                rate_per_s=16.0 + 4.0 * index,
            ),
            slo=(
                SLOSpec(p99_seconds=20.0, admission="defer")
                if index % 2
                else SLOSpec(p99_seconds=20.0)
            ),
        )
        for index in range(tenants)
    )
    return ScenarioSpec(
        name="sharded",
        seed=23,
        workload=WorkloadSpec(speculation_length=2),
        fleet=FleetSpec(replicas=(ReplicaSpec(count=2, max_batch_size=8),)),
        tenants=tenant_specs,
        routing=RoutingSpec(policy="slo-slack"),
    )


def _traces_by_tenant(spec: ScenarioSpec) -> dict:
    """Tenant name -> the trace facts that define the stream."""
    from repro.scenario.build import build_requests

    traces: dict = {}
    for request in build_requests(spec):
        traces.setdefault(request.tenant, []).append(
            (
                request.arrival_s,
                request.input_len,
                request.output_len,
                request.deadline_s,
            )
        )
    return traces


class TestShardedScenarios:
    """``run_scenario(spec, shards=N)``: trace determinism and merging."""

    @pytest.mark.parametrize("shards", [2, 3, 5, 8])
    def test_per_tenant_traces_bit_identical(self, shards):
        """Every tenant's stream is the single-process stream, any N.

        The pinned ``seed_offset`` keeps tenant ``i`` drawing from
        ``spec.seed + i`` no matter which shard serves it or how many
        tenants share that shard.
        """
        from repro.scenario.run import _shard_specs

        spec = _many_tenant_spec()
        baseline = _traces_by_tenant(spec)
        seen: dict = {}
        for sub_spec in _shard_specs(spec, shards):
            seen.update(_traces_by_tenant(sub_spec))
        assert seen == baseline

    def test_sharded_run_merges_shard_results(self):
        from repro.scenario.run import _shard_specs

        spec = _many_tenant_spec(tenants=4, requests=8)
        merged = run_scenario(spec, shards=2)
        parts = [run_scenario(sub) for sub in _shard_specs(spec, 2)]
        assert merged.summary.total_requests == sum(
            part.summary.total_requests for part in parts
        )
        assert merged.summary.makespan_seconds == max(
            part.summary.makespan_seconds for part in parts
        )
        assert [r.replica_id for r in merged.summary.replicas] == list(
            range(sum(len(part.summary.replicas) for part in parts))
        )
        assert list(merged.summary.tenants) == [
            tenant.name for tenant in spec.tenants
        ]
        for part in parts:
            for name, report in part.summary.tenants.items():
                assert merged.summary.tenants[name] == report

    def test_sharded_vectorized_matches_sharded_event_core(self):
        """Sharded vectorized runs match sharded runs of the scalar
        event-queue core."""
        spec = _many_tenant_spec(tenants=4, requests=8)
        scalar = run_scenario(_scalar(spec), shards=2)
        vectorized = run_scenario(_vectorized(spec), shards=2)
        assert aggregate_fields(vectorized) == aggregate_fields(scalar)

    def test_more_shards_than_tenants_drops_empty_shards(self):
        from repro.scenario.run import _shard_specs

        spec = _many_tenant_spec(tenants=3)
        sub_specs = _shard_specs(spec, 8)
        assert len(sub_specs) == 3
        assert all(len(sub.tenants) == 1 for sub in sub_specs)

    def test_single_tenant_spec_ignores_sharding(self):
        spec = _many_tenant_spec(tenants=1)
        assert aggregate_fields(run_scenario(spec, shards=4)) == (
            aggregate_fields(run_scenario(spec))
        )

    def test_non_positive_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            run_scenario(_many_tenant_spec(), shards=0)
