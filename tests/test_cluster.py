"""Tests for the multi-replica cluster layer (routing, replicas, events)."""

import dataclasses
import math

import pytest

from repro.cluster import (
    ClusterSimulator,
    ClusterSummary,
    IntensityAwareRouter,
    LeastOutstandingRouter,
    Replica,
    RoundRobinRouter,
    SLOAdmissionController,
    SLOSlackRouter,
    TenantPolicy,
    available_routers,
    build_router,
    projected_completion_seconds,
)
from repro.errors import CapacityError, ConfigurationError
from repro.models.config import get_model
from repro.serving.arrivals import poisson_arrivals
from repro.serving.dataset import sample_requests
from repro.serving.engine import ServingEngine
from repro.serving.metrics import RunSummary
from repro.serving.request import Request, RequestState
from repro.serving.speculative import SpeculationConfig
from repro.serving.tlp_policy import UtilizationAdaptiveTLP
from repro.systems.registry import build_system


def make_cluster(router_name, replicas=4, max_batch=16, spec=2, seed=0):
    model = get_model("llama-65b")
    speculation = SpeculationConfig(speculation_length=spec)
    members = [
        Replica(
            replica_id=i,
            system=build_system("papi"),
            model=model,
            max_batch_size=max_batch,
            speculation=speculation,
            seed=seed,
        )
        for i in range(replicas)
    ]
    return ClusterSimulator(members, build_router(router_name))


def default_trace(count=64, rate=32.0, seed=0):
    return poisson_arrivals(
        sample_requests("creative-writing", count, seed=seed),
        rate_per_s=rate,
        seed=seed,
    )


class TestRouterRegistry:
    def test_available_routers(self):
        assert available_routers() == (
            "intensity", "least-outstanding", "min-cost", "round-robin",
            "session-affinity", "slo-slack",
        )

    def test_unknown_router_rejected(self):
        with pytest.raises(ConfigurationError):
            build_router("random")

    def test_round_robin_cycles(self):
        model = get_model("llama-65b")
        replicas = [
            Replica(i, build_system("papi"), model, max_batch_size=4)
            for i in range(3)
        ]
        router = RoundRobinRouter()
        request = Request(request_id=0, input_len=8, output_len=8)
        picks = [router.select(request, replicas, 0.0) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_outstanding_prefers_empty(self):
        model = get_model("llama-65b")
        replicas = [
            Replica(i, build_system("papi"), model, max_batch_size=4)
            for i in range(3)
        ]
        replicas[0].enqueue(Request(request_id=0, input_len=8, output_len=8))
        replicas[2].enqueue(Request(request_id=1, input_len=8, output_len=8))
        router = LeastOutstandingRouter()
        request = Request(request_id=2, input_len=8, output_len=8)
        assert router.select(request, replicas, 0.0) == 1

    def test_intensity_falls_back_without_load_signal(self):
        """Statically placed systems expose no load signal; the intensity
        router degrades to least-outstanding instead of failing."""
        model = get_model("llama-65b")
        replicas = [
            Replica(i, build_system("a100-attacc"), model, max_batch_size=4)
            for i in range(2)
        ]
        replicas[0].enqueue(Request(request_id=0, input_len=8, output_len=8))
        router = IntensityAwareRouter()
        request = Request(request_id=1, input_len=8, output_len=8)
        assert router.select(request, replicas, 0.0) == 1


class TestClusterRuns:
    def test_every_request_served_once(self):
        cluster = make_cluster("round-robin")
        requests = default_trace()
        summary = cluster.run(requests)
        assert summary.total_requests == len(requests)
        assert all(r.is_finished for r in requests)
        assert len(summary.request_latencies) == len(requests)
        served = [rep.requests_served for rep in summary.replicas]
        assert sum(served) == len(requests)

    def test_deterministic_given_seed(self):
        a = make_cluster("intensity").run(default_trace())
        b = make_cluster("intensity").run(default_trace())
        assert a.makespan_seconds == b.makespan_seconds
        assert a.request_latencies == b.request_latencies
        assert a.total_reschedules == b.total_reschedules

    def test_latency_percentiles_ordered(self):
        summary = make_cluster("least-outstanding").run(default_trace())
        p50 = summary.latency_percentile(50)
        p99 = summary.latency_percentile(99)
        assert 0 < p50 <= p99 <= summary.makespan_seconds
        assert summary.mean_latency <= p99

    def test_utilization_bounded(self):
        summary = make_cluster("round-robin").run(default_trace())
        for report in summary.replicas:
            assert 0.0 <= report.utilization <= 1.0
        # The trace keeps at least one replica busy most of the run.
        assert max(r.utilization for r in summary.replicas) > 0.5

    def test_intensity_routing_reduces_migrations(self):
        """The acceptance property: intensity-aware routing produces fewer
        FC migrations than round-robin on the default workload."""
        round_robin = make_cluster("round-robin").run(default_trace())
        intensity = make_cluster("intensity").run(default_trace())
        assert round_robin.total_reschedules >= 1
        assert (
            intensity.total_reschedules < round_robin.total_reschedules
        )

    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSimulator([], RoundRobinRouter())

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            make_cluster("round-robin").run([])

    def test_percentile_validation(self):
        summary = make_cluster("round-robin").run(default_trace(count=8))
        with pytest.raises(ConfigurationError):
            summary.latency_percentile(0)


class TestEmptySummaryContract:
    def test_percentile_of_empty_summary_is_zero(self):
        """Documented contract: no served requests -> 0.0, not an error
        (a fully rejected trace must still be reportable)."""
        summary = ClusterSummary(
            router="round-robin", model="llama-65b",
            makespan_seconds=0.0, total_requests=0, replicas=[],
        )
        assert summary.request_latencies == []
        assert summary.latency_percentile(50) == 0.0
        assert summary.latency_percentile(99) == 0.0
        assert summary.mean_latency == 0.0

    def test_empty_summary_still_validates_percentile(self):
        summary = ClusterSummary(
            router="round-robin", model="llama-65b",
            makespan_seconds=0.0, total_requests=0, replicas=[],
        )
        with pytest.raises(ConfigurationError):
            summary.latency_percentile(0)
        with pytest.raises(ConfigurationError):
            summary.latency_percentile(101)


class TestSLOSlackRouter:
    def _replicas(self, count=2, max_batch=4):
        model = get_model("llama-65b")
        return [
            Replica(i, build_system("papi"), model, max_batch_size=max_batch)
            for i in range(count)
        ]

    def test_best_effort_degrades_to_min_cost(self):
        """Without a deadline, slo-slack and min-cost agree."""
        replicas = self._replicas()
        replicas[0].enqueue(Request(request_id=0, input_len=64, output_len=64))
        request = Request(request_id=1, input_len=64, output_len=64)
        slack_pick = SLOSlackRouter().select(request, replicas, 0.0)
        min_cost_pick = build_router("min-cost").select(request, replicas, 0.0)
        assert slack_pick == min_cost_pick

    def test_deadline_steers_away_from_backlogged_replica(self):
        """A tight deadline must avoid the replica whose backlog blows it,
        even when both replicas price the next step identically."""
        replicas = self._replicas(count=2, max_batch=4)
        for i in range(8):
            replicas[0].enqueue(
                Request(request_id=i, input_len=64, output_len=512)
            )
        tight = projected_completion_seconds(
            replicas[1], Request(request_id=90, input_len=64, output_len=64)
        ) * 2.0
        request = Request(
            request_id=91, input_len=64, output_len=64, deadline_s=tight
        )
        assert SLOSlackRouter().select(request, replicas, 0.0) == 1

    def test_least_late_when_no_replica_feasible(self):
        """An impossible deadline still routes (most slack), not crashes."""
        replicas = self._replicas(count=2, max_batch=4)
        for i in range(8):
            replicas[0].enqueue(
                Request(request_id=i, input_len=64, output_len=512)
            )
        request = Request(
            request_id=92, input_len=64, output_len=64, deadline_s=1e-9
        )
        assert SLOSlackRouter().select(request, replicas, 0.0) == 1

    def test_projected_completion_grows_with_backlog(self):
        replicas = self._replicas(count=1, max_batch=4)
        request = Request(request_id=50, input_len=64, output_len=64)
        idle = projected_completion_seconds(replicas[0], request)
        for i in range(6):
            replicas[0].enqueue(
                Request(request_id=i, input_len=64, output_len=256)
            )
        loaded = projected_completion_seconds(replicas[0], request)
        assert loaded > idle > 0.0


class TestAdmissionControl:
    def _cluster(self, policies, replicas=1, max_batch=4):
        model = get_model("llama-65b")
        members = [
            Replica(i, build_system("papi"), model, max_batch_size=max_batch)
            for i in range(replicas)
        ]
        return ClusterSimulator(
            members,
            build_router("slo-slack"),
            admission=SLOAdmissionController(policies),
        )

    def _tenant_trace(self, budget_s, count=6, tenant="tight"):
        requests = sample_requests("general-qa", count, seed=5)
        stamped = poisson_arrivals(requests, rate_per_s=16.0, seed=5)
        for request in stamped:
            request.tenant = tenant
            request.deadline_s = request.arrival_s + budget_s
        return stamped

    def test_impossible_budget_rejects_everything(self):
        cluster = self._cluster({"tight": TenantPolicy(action="reject")})
        trace = self._tenant_trace(budget_s=1e-9)
        summary = cluster.run(trace)
        report = summary.tenants["tight"]
        assert report.submitted == len(trace)
        assert report.rejected == len(trace)
        assert report.served == 0
        assert report.slo_attainment == 0.0
        assert summary.total_requests == 0
        assert summary.latency_percentile(99) == 0.0
        assert all(r.state is RequestState.REJECTED for r in trace)

    def test_generous_budget_admits_everything(self):
        cluster = self._cluster({"tight": TenantPolicy(action="reject")})
        trace = self._tenant_trace(budget_s=1e9)
        summary = cluster.run(trace)
        report = summary.tenants["tight"]
        assert report.rejected == 0
        assert report.served == len(trace)
        assert report.slo_attainment == 1.0
        assert report.slo_p99_seconds == pytest.approx(1e9)

    def test_defer_bounded_then_rejected(self):
        """A hopeless deferred request retries max_defers times, then is
        rejected — deferral never loops forever."""
        policy = TenantPolicy(action="defer", defer_seconds=0.25, max_defers=3)
        cluster = self._cluster({"tight": policy})
        trace = self._tenant_trace(budget_s=1e-9, count=2)
        summary = cluster.run(trace)
        report = summary.tenants["tight"]
        assert report.deferrals == 2 * 3
        assert report.rejected == 2
        assert report.served == 0

    def test_served_requests_meet_protected_budget(self):
        """The acceptance property: with rejection on, every request the
        tight tenant actually serves lands within its p99 budget."""
        cluster = self._cluster(
            {"tight": TenantPolicy(action="reject")}, replicas=2, max_batch=8
        )
        trace = self._tenant_trace(budget_s=6.0, count=24)
        summary = cluster.run(trace)
        report = summary.tenants["tight"]
        assert report.served + report.rejected == report.submitted
        assert report.served > 0
        assert report.p99_latency_s <= 6.0

    def test_untagged_tenants_pass_through(self):
        """Tenants without a policy (or without deadlines) are admitted
        untouched: same results as a controller-free run."""
        model = get_model("llama-65b")

        def members():
            return [
                Replica(i, build_system("papi"), model, max_batch_size=8)
                for i in range(2)
            ]

        def trace():
            return poisson_arrivals(
                sample_requests("general-qa", 12, seed=7),
                rate_per_s=16.0, seed=7,
            )

        plain = ClusterSimulator(members(), build_router("round-robin")).run(
            trace()
        )
        gated = ClusterSimulator(
            members(),
            build_router("round-robin"),
            admission=SLOAdmissionController(
                {"other": TenantPolicy(action="reject")}
            ),
        ).run(trace())
        assert gated.makespan_seconds == plain.makespan_seconds
        assert gated.request_latencies == plain.request_latencies
        assert gated.tenants["default"].rejected == 0

    def test_tenant_policy_validation(self):
        with pytest.raises(ConfigurationError):
            TenantPolicy(action="drop")
        with pytest.raises(ConfigurationError):
            TenantPolicy(defer_seconds=0.0)
        with pytest.raises(ConfigurationError):
            TenantPolicy(max_defers=-1)
        # A non-finite backoff would re-arrive a deferred request at
        # t=inf (or nan) and make the whole run's makespan non-finite.
        for backoff in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError, match="defer_seconds"):
                TenantPolicy(action="defer", defer_seconds=backoff)


class TestReplica:
    def test_capacity_checked_at_admission(self):
        model = get_model("gpt3-175b")
        system = build_system("papi")
        too_many = system.max_batch_size(model, 2100) + 1
        replica = Replica(
            0, system, model, max_batch_size=too_many,
            check_capacity=True,
        )
        oversized = [
            Request(request_id=i, input_len=100, output_len=2000)
            for i in range(too_many)
        ]
        with pytest.raises(CapacityError):
            replica.serve_trace(oversized)

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ConfigurationError):
            Replica(0, build_system("papi"), get_model("llama-65b"),
                    max_batch_size=0)


class TestRunTrace:
    @staticmethod
    def _assert_trace_matches_run(context_mode, tlp):
        """Serve one 16-request batch both ways; return the trace replica.

        With every request arriving at t=0 and a batch slot for each, the
        event-driven path serves exactly the static batch. ``run`` steps
        every iteration (the ground model) while the cluster loop may
        macro-step frozen runs, so every summary field but the makespan —
        records, latencies and the TLP trace included — must match bit
        for bit.
        """
        model = get_model("llama-65b")
        speculation = SpeculationConfig(
            speculation_length=1 if tlp == "tlp1" else 2
        )

        def policy():
            if tlp == "adaptive":
                return UtilizationAdaptiveTLP(target_tokens=24, max_tlp=8)
            return None

        engine = ServingEngine(
            system=build_system("papi"),
            model=model,
            speculation=speculation,
            tlp_policy=policy(),
            seed=17,
            context_mode=context_mode,
        )
        static = engine.run(sample_requests("general-qa", 16, seed=17))
        replica = Replica(
            replica_id=0,
            system=build_system("papi"),
            model=model,
            max_batch_size=16,
            speculation=speculation,
            tlp_policy=policy(),
            seed=17,
            context_mode=context_mode,
        )
        trace = replica.serve_trace(sample_requests("general-qa", 16, seed=17))
        for field in dataclasses.fields(RunSummary):
            if field.name == "makespan_seconds":
                continue
            assert getattr(trace, field.name) == getattr(static, field.name), (
                field.name
            )
        assert trace.records
        assert replica.tlp_trace.values == engine.tlp_trace.values
        return replica

    def test_matches_static_run_when_all_arrive_at_once(self):
        """Mean mode at TLP 1 is the case the cluster loop macro-steps:
        the exact match must hold with most iterations compressed."""
        replica = self._assert_trace_matches_run("mean", "tlp1")
        assert replica.step_macro["iterations_compressed"] > 0

    @pytest.mark.parametrize("context_mode", ["mean", "per-request"])
    @pytest.mark.parametrize("tlp", ["tlp1", "spec2", "adaptive"])
    def test_matches_static_run_in_every_mode(self, context_mode, tlp):
        self._assert_trace_matches_run(context_mode, tlp)

    def test_latency_includes_queueing(self):
        """A request that arrives while the batch is full waits, and its
        recorded latency covers that wait."""
        model = get_model("llama-65b")
        requests = [
            Request(request_id=0, input_len=64, output_len=32, arrival_s=0.0),
            Request(request_id=1, input_len=64, output_len=32, arrival_s=0.0),
        ]
        engine = ServingEngine(system=build_system("papi"), model=model)
        summary = engine.run_trace(requests, max_batch_size=1)
        assert summary.queueing_seconds > 0
        # The queued request finishes strictly later than the first.
        assert summary.request_latencies[1] > summary.request_latencies[0]

    def test_idle_gap_extends_makespan(self):
        """A late arrival leaves the replica idle in between: makespan
        exceeds busy time and utilization drops below 1."""
        model = get_model("llama-65b")
        requests = [
            Request(request_id=0, input_len=64, output_len=16, arrival_s=0.0),
            Request(request_id=1, input_len=64, output_len=16, arrival_s=60.0),
        ]
        engine = ServingEngine(system=build_system("papi"), model=model)
        summary = engine.run_trace(requests, max_batch_size=4)
        assert summary.makespan_seconds > 60.0
        assert summary.makespan_seconds > summary.total_seconds
        assert summary.utilization < 0.5
