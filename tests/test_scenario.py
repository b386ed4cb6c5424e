"""Tests for the declarative scenario API (specs, codec, run_scenario)."""

import dataclasses
import json
import math

import pytest

from repro.cluster import ClusterSimulator, Replica, build_router
from repro.errors import ConfigurationError
from repro.models.config import get_model
from repro.scenario import (
    FleetSpec,
    MoESpec,
    ReplicaSpec,
    RoutingSpec,
    ScenarioSpec,
    SLOSpec,
    TenantSpec,
    TrafficSpec,
    WorkloadSpec,
    build_requests,
    load_scenario,
    run_scenario,
    run_scenarios,
    scenario_spec_fields,
)
from repro.serving.arrivals import poisson_arrivals
from repro.serving.dataset import sample_requests
from repro.serving.speculative import SpeculationConfig
from repro.systems.registry import build_system

#: One non-default instance of every spec type, for codec round-trips.
SPEC_SAMPLES = (
    MoESpec(num_experts=16, experts_per_token=4, expert_ffn_dim=512),
    WorkloadSpec(model="opt-30b", speculation_length=4, acceptance_rate=0.5,
                 tlp_policy="acceptance", context_mode="mean",
                 moe=MoESpec(num_experts=4, experts_per_token=1)),
    ReplicaSpec(system="a100-attacc", count=3, max_batch_size=8,
                workload=WorkloadSpec(model="gpt3-66b")),
    FleetSpec(replicas=(ReplicaSpec(), ReplicaSpec(system="attacc-only")),
              step_cache=False),
    TrafficSpec(category="general-qa", requests=12, rate_per_s=4.5),
    SLOSpec(p99_seconds=3.0, admission="defer", defer_seconds=0.25,
            max_defers=2),
    TenantSpec(name="gold", traffic=TrafficSpec(requests=7),
               slo=SLOSpec(p99_seconds=9.0, admission="reject")),
    RoutingSpec(policy="slo-slack"),
    ScenarioSpec(
        name="full", seed=3,
        workload=WorkloadSpec(model="llama-65b"),
        fleet=FleetSpec(replicas=(ReplicaSpec(count=2),)),
        tenants=(
            TenantSpec(name="a", slo=SLOSpec(p99_seconds=5.0,
                                             admission="reject")),
            TenantSpec(name="b"),
        ),
        routing=RoutingSpec(policy="min-cost"),
    ),
)


class TestCodec:
    @pytest.mark.parametrize(
        "spec", SPEC_SAMPLES, ids=lambda s: type(s).__name__
    )
    def test_round_trip_identity(self, spec):
        """from_dict(to_dict(s)) == s for every spec type."""
        assert type(spec).from_dict(spec.to_dict()) == spec

    def test_round_trip_survives_json(self):
        spec = SPEC_SAMPLES[-1]
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_defaults_round_trip(self):
        assert ScenarioSpec.from_dict({}) == ScenarioSpec()
        assert ScenarioSpec.from_dict(ScenarioSpec().to_dict()) == ScenarioSpec()

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigurationError, match="rate_per_sec"):
            ScenarioSpec.from_dict(
                {"tenants": [{"traffic": {"rate_per_sec": 3}}]}
            )

    def test_unknown_key_path_includes_index(self):
        with pytest.raises(ConfigurationError, match=r"tenants\[1\]\.slo\.p90"):
            ScenarioSpec.from_dict(
                {"tenants": [{}, {"name": "b", "slo": {"p90": 1.0}}]}
            )

    def test_top_level_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="fleets"):
            ScenarioSpec.from_dict({"fleets": {}})

    def test_wrong_type_rejected_with_path(self):
        with pytest.raises(ConfigurationError, match="workload.speculation_length"):
            ScenarioSpec.from_dict({"workload": {"speculation_length": "two"}})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigurationError, match="seed"):
            ScenarioSpec.from_dict({"seed": True})

    def test_list_where_object_expected(self):
        with pytest.raises(ConfigurationError, match="fleet"):
            ScenarioSpec.from_dict({"fleet": []})

    def test_object_where_list_expected(self):
        with pytest.raises(ConfigurationError, match="fleet.replicas"):
            ScenarioSpec.from_dict({"fleet": {"replicas": {}}})

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigurationError, match="scenario JSON"):
            ScenarioSpec.from_json("{not json")

    def test_optional_moe_omitted_from_dict(self):
        dense = WorkloadSpec()
        assert "moe" not in dense.to_dict()
        sparse = WorkloadSpec(moe=MoESpec())
        assert sparse.to_dict()["moe"]["num_experts"] == 8

    def test_spec_fields_registry(self):
        names = scenario_spec_fields()
        assert "ScenarioSpec" in names
        assert "tenants" in names["ScenarioSpec"]
        assert "p99_seconds" in names["SLOSpec"]


class TestValidation:
    def test_valid_default_scenario(self):
        ScenarioSpec().validate()

    @pytest.mark.parametrize(
        "mutation, path",
        [
            ({"workload": {"model": "llama-9000b"}}, "workload.model"),
            ({"workload": {"speculation_length": 0}},
             "workload.speculation_length"),
            ({"workload": {"acceptance_rate": 1.5}},
             "workload.acceptance_rate"),
            ({"workload": {"tlp_policy": "psychic"}}, "workload.tlp_policy"),
            ({"workload": {"context_mode": "median"}},
             "workload.context_mode"),
            ({"workload": {"moe": {"num_experts": 0}}},
             "workload.moe.num_experts"),
            ({"fleet": {"replicas": []}}, "fleet.replicas"),
            ({"fleet": {"replicas": [{"system": "abacus"}]}},
             r"fleet.replicas\[0\].system"),
            ({"fleet": {"replicas": [{"count": 0}]}},
             r"fleet.replicas\[0\].count"),
            ({"tenants": []}, "tenants"),
            ({"tenants": [{"name": ""}]}, r"tenants\[0\].name"),
            ({"tenants": [{"traffic": {"requests": 0}}]},
             r"tenants\[0\].traffic.requests"),
            ({"tenants": [{"traffic": {"category": "poetry"}}]},
             r"tenants\[0\].traffic.category"),
            ({"tenants": [{"slo": {"p99_seconds": -1.0}}]},
             r"tenants\[0\].slo.p99_seconds"),
            ({"tenants": [{"slo": {"admission": "drop"}}]},
             r"tenants\[0\].slo.admission"),
            ({"tenants": [{"slo": {"admission": "reject"}}]},
             r"tenants\[0\].slo.admission"),  # reject without a budget
            ({"routing": {"policy": "coin-flip"}}, "routing.policy"),
            ({"version": 99}, "version"),
            ({"seed": -1}, "seed"),
        ],
    )
    def test_invalid_field_reports_path(self, mutation, path):
        spec = ScenarioSpec.from_dict(mutation)
        with pytest.raises(ConfigurationError, match=path):
            spec.validate()

    @pytest.mark.parametrize("budget", [2.5, True, math.inf, math.nan])
    def test_max_defers_must_be_an_integer(self, budget):
        # A spec built in Python skips the JSON decoder's type check.
        slo = SLOSpec(p99_seconds=1.0, admission="defer", max_defers=budget)
        spec = ScenarioSpec(tenants=(TenantSpec(slo=slo),))
        with pytest.raises(
            ConfigurationError, match=r"tenants\[0\].slo.max_defers"
        ):
            spec.validate()
        with pytest.raises(ConfigurationError, match="slo.max_defers"):
            slo.validate()

    def test_duplicate_tenant_names_rejected(self):
        spec = ScenarioSpec(
            tenants=(TenantSpec(name="a"), TenantSpec(name="a"))
        )
        with pytest.raises(ConfigurationError, match=r"tenants\[1\].name"):
            spec.validate()

    def test_negative_seed_fails_before_sampling(self):
        # numpy's generators reject a negative seed with a bare ValueError.
        with pytest.raises(ConfigurationError, match="^seed: "):
            run_scenario(ScenarioSpec(seed=-1))

    def test_run_scenario_validates_first(self):
        spec = ScenarioSpec(routing=RoutingSpec(policy="coin-flip"))
        with pytest.raises(ConfigurationError, match="routing.policy"):
            run_scenario(spec)


class TestBuildRequests:
    def test_single_tenant_reproduces_flag_trace(self):
        """Tenant 0 must draw the exact trace the historical cluster CLI
        drew, so flag runs stay reproducible through the spec path."""
        spec = ScenarioSpec(seed=4)
        built = build_requests(spec)
        legacy = poisson_arrivals(
            sample_requests("creative-writing", 64, seed=4),
            rate_per_s=32.0, seed=4,
        )
        assert [r.request_id for r in built] == [r.request_id for r in legacy]
        assert [r.arrival_s for r in built] == [r.arrival_s for r in legacy]
        assert [r.input_len for r in built] == [r.input_len for r in legacy]
        assert all(r.tenant == "default" for r in built)
        assert all(r.deadline_s is None for r in built)

    def test_tenants_draw_independent_streams(self):
        spec = ScenarioSpec(
            tenants=(
                TenantSpec(name="a", traffic=TrafficSpec(requests=8)),
                TenantSpec(name="b", traffic=TrafficSpec(requests=8)),
            )
        )
        requests = build_requests(spec)
        a = [r for r in requests if r.tenant == "a"]
        b = [r for r in requests if r.tenant == "b"]
        assert len(a) == len(b) == 8
        assert [r.arrival_s for r in a] != [r.arrival_s for r in b]
        assert len({r.request_id for r in requests}) == 16

    def test_slo_budget_stamps_deadlines(self):
        spec = ScenarioSpec(
            tenants=(
                TenantSpec(
                    name="gold",
                    traffic=TrafficSpec(requests=4),
                    slo=SLOSpec(p99_seconds=2.5, admission="reject"),
                ),
            )
        )
        for request in build_requests(spec):
            assert request.deadline_s == pytest.approx(request.arrival_s + 2.5)


class TestRunScenario:
    def test_matches_hand_built_cluster(self):
        """run_scenario() and a manually assembled simulator agree on the
        same single-tenant scenario."""
        spec = ScenarioSpec(
            seed=11,
            fleet=FleetSpec(replicas=(ReplicaSpec(count=2,
                                                  max_batch_size=8),)),
            tenants=(
                TenantSpec(
                    traffic=TrafficSpec(category="general-qa", requests=16,
                                        rate_per_s=16.0),
                ),
            ),
            routing=RoutingSpec(policy="round-robin"),
        )
        result = run_scenario(spec)

        model = get_model("llama-65b")
        replicas = [
            Replica(
                replica_id=i, system=build_system("papi"), model=model,
                max_batch_size=8,
                speculation=SpeculationConfig(speculation_length=2,
                                              acceptance_rate=0.8),
                seed=11,
            )
            for i in range(2)
        ]
        requests = poisson_arrivals(
            sample_requests("general-qa", 16, seed=11),
            rate_per_s=16.0, seed=11,
        )
        manual = ClusterSimulator(replicas, build_router("round-robin")).run(
            requests
        )
        assert result.summary.makespan_seconds == manual.makespan_seconds
        assert result.summary.request_latencies == manual.request_latencies
        assert result.summary.total_requests == manual.total_requests

    def test_two_tenant_slo_acceptance(self):
        """The PR's acceptance scenario: a tight-SLO tenant next to a
        best-effort tenant; the tight tenant's p99 lands within budget
        and sheds load visibly (rejections or deferrals reported)."""
        spec = ScenarioSpec(
            fleet=FleetSpec(replicas=(ReplicaSpec(count=2),)),
            tenants=(
                TenantSpec(
                    name="interactive",
                    traffic=TrafficSpec(category="general-qa", requests=24,
                                        rate_per_s=8.0),
                    slo=SLOSpec(p99_seconds=2.5, admission="reject"),
                ),
                TenantSpec(
                    name="batch",
                    traffic=TrafficSpec(category="creative-writing",
                                        requests=40, rate_per_s=16.0),
                ),
            ),
            routing=RoutingSpec(policy="slo-slack"),
        )
        result = run_scenario(spec)
        tight = result.tenants["interactive"]
        effort = result.tenants["batch"]
        assert tight.served > 0
        assert tight.p99_latency_s <= 2.5
        assert tight.rejected + tight.deferrals > 0
        assert tight.submitted == tight.admitted + tight.rejected
        assert effort.rejected == 0
        assert effort.served == effort.submitted
        assert effort.slo_p99_seconds == 0.0

    def test_mixed_fleet_groups_order_replica_ids(self):
        spec = ScenarioSpec(
            fleet=FleetSpec(
                replicas=(
                    ReplicaSpec(
                        count=1,
                        workload=WorkloadSpec(moe=MoESpec()),
                    ),
                    ReplicaSpec(count=2),
                ),
            ),
            tenants=(
                TenantSpec(traffic=TrafficSpec(category="general-qa",
                                               requests=8,
                                               rate_per_s=16.0)),
            ),
            routing=RoutingSpec(policy="min-cost"),
        )
        result = run_scenario(spec)
        models = [r.model for r in result.summary.replicas]
        assert len(models) == 3
        assert "moe" in models[0]
        assert "moe" not in models[1] and "moe" not in models[2]
        # The JSON export keeps the MoE traffic fields the table prints.
        exported = result.to_dict()["replicas"]
        assert exported[0]["mean_active_experts"] > 0
        assert exported[0]["expert_token_visits"] > 0
        assert exported[1]["mean_active_experts"] == 0

    def test_admission_shares_router_price_cache(self):
        """Controller and slo-slack router price through one memo, so the
        cluster report's cache stats cover both."""
        from repro.scenario import build_admission, build_routing

        spec = ScenarioSpec(
            tenants=(
                TenantSpec(
                    name="gold",
                    traffic=TrafficSpec(category="general-qa", requests=4),
                    slo=SLOSpec(p99_seconds=5.0, admission="reject"),
                ),
            ),
            routing=RoutingSpec(policy="slo-slack"),
        )
        router = build_routing(spec)
        admission = build_admission(spec, price_cache=router.price_cache)
        assert admission._price_cache is router.price_cache

    def test_result_to_dict_is_json_able(self):
        result = run_scenario(
            ScenarioSpec(
                tenants=(
                    TenantSpec(traffic=TrafficSpec(category="general-qa",
                                                   requests=8,
                                                   rate_per_s=16.0)),
                ),
            )
        )
        payload = json.loads(result.to_json())
        assert payload["scenario"]["name"] == "scenario"
        assert payload["aggregate"]["total_requests"] == 8
        assert "slo_attainment" in payload["tenants"]["default"]
        assert len(payload["replicas"]) == 1

    def test_deterministic_given_spec(self):
        spec = ScenarioSpec(
            tenants=(
                TenantSpec(traffic=TrafficSpec(category="general-qa",
                                               requests=8,
                                               rate_per_s=16.0)),
            ),
        )
        a = run_scenario(spec)
        b = run_scenario(spec)
        assert a.to_dict() == b.to_dict()


class TestRunScenarios:
    def _specs(self):
        return [
            ScenarioSpec(
                name=f"batch-{requests}",
                tenants=(
                    TenantSpec(
                        traffic=TrafficSpec(
                            category="general-qa",
                            requests=requests,
                            rate_per_s=16.0,
                        )
                    ),
                ),
            )
            for requests in (6, 10)
        ]

    def test_matches_individual_runs_in_order(self):
        specs = self._specs()
        batch = run_scenarios(specs)
        assert [result.spec.name for result in batch] == [
            "batch-6", "batch-10"
        ]
        for spec, result in zip(specs, batch):
            assert result.to_dict() == run_scenario(spec).to_dict()

    def test_workers_do_not_change_outputs(self):
        specs = self._specs()
        inline = [result.to_dict() for result in run_scenarios(specs)]
        pooled = [
            result.to_dict() for result in run_scenarios(specs, workers=2)
        ]
        assert inline == pooled

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            run_scenarios([])

    def test_invalid_spec_named_by_index(self):
        specs = self._specs()
        specs.append(
            dataclasses.replace(
                specs[0], routing=RoutingSpec(policy="coin-flip")
            )
        )
        with pytest.raises(ConfigurationError, match=r"scenarios\[2\]"):
            run_scenarios(specs)


class TestFleetScaleSpecFields:
    def test_new_fields_round_trip(self):
        spec = ScenarioSpec(
            fleet=FleetSpec(detail="aggregate", core_mode="scalar"),
            routing=RoutingSpec(policy="min-cost"),
        )
        decoded = ScenarioSpec.from_dict(spec.to_dict())
        assert decoded == spec
        assert decoded.fleet.detail == "aggregate"
        assert decoded.fleet.core_mode == "scalar"

    def test_bad_detail_rejected_with_path(self):
        spec = ScenarioSpec(fleet=FleetSpec(detail="verbose"))
        with pytest.raises(ConfigurationError, match="fleet.detail"):
            spec.validate()


class TestLoadScenario:
    def test_load_validates(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"routing": {"policy": "coin-flip"}}))
        with pytest.raises(ConfigurationError, match="routing.policy"):
            load_scenario(str(path))

    def test_load_round_trips_checked_in_example(self):
        from pathlib import Path

        path = (
            Path(__file__).resolve().parent.parent
            / "examples" / "scenarios" / "mixed_fleet.json"
        )
        spec = load_scenario(str(path))
        assert spec.name == "mixed-fleet-two-tenants"
        assert {t.name for t in spec.tenants} == {"interactive", "batch"}
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
