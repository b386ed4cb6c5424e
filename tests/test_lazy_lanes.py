"""Lazy lanes, pinned to a per-iteration ground model.

On a vectorized colocated sessionless fleet a frozen replica's
closed-form run passes foreign arrivals, and the fleet view computes the
lane's counters only where a probe reads them (``FleetState.advance``),
cutting a lane only when routing picks it or a deferral would tie it
(``FleetState.cut`` / ``cut_ties``). The model those refinements answer
to is the obviously right one: the scalar core, which never
macro-steps, so every iteration goes through ``on_step_done`` under the
strict horizon, one calendar event at a time.

Two kinds of check:

* Seeded colocated sessionless specs (the ``near-capacity`` shape at
  three rates, a deferral storm, MoE, deterministic speculation, a
  coarse context bucket, every router under defer and reject
  admission): every ``ClusterSummary`` field but the instrumentation
  counters must match the ground model bit for bit.
* Hand-built exact ties, with every probe's fleet view recorded: an
  arrival exactly at a lazy completion sees only the completions
  strictly before it, and a deferral whose re-arrival lands exactly on a
  lane's next completion (or on the end of a run that still has
  completions before it) keeps the ground model's order.
"""

import dataclasses

import pytest

from repro.cluster.admission import SLOAdmissionController, TenantPolicy
from repro.cluster.cluster import ClusterSimulator, VectorizedClusterSimulator
from repro.cluster.replica import Replica
from repro.cluster.router import (
    Router,
    available_routers,
    projected_completion_seconds,
    projected_step_seconds,
)
from repro.scenario.build import (
    build_admission,
    build_replicas,
    build_requests,
    build_routing,
)
from repro.scenario.run import apply_core_mode
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
from repro.serving.request import Request

#: ClusterSummary fields that count what a core did, not what it
#: simulated; they legitimately differ from the ground model.
INSTRUMENTATION = ("router_cache", "probe_memo", "step_macro")


def _rebucketed(replica: Replica, bucket: int) -> Replica:
    """``replica`` rebuilt with a coarser context bucket (no spec field
    carries one)."""
    return type(replica)(
        replica.replica_id,
        replica.system,
        replica.model,
        replica.max_batch_size,
        speculation=replica.speculation,
        seed=replica.seed,
        context_mode=replica.pricer.context_mode,
        context_bucket=bucket,
        moe=replica.moe,
        detail=replica.summary.detail,
        load_accounting=replica.load_accounting,
    )


def _simulate(spec, core, detail="aggregate", context_bucket=1, keep=None):
    spec = apply_core_mode(spec, core)
    spec = dataclasses.replace(
        spec, fleet=dataclasses.replace(spec.fleet, detail=detail)
    )
    spec.validate()
    router = build_routing(spec)
    replicas = build_replicas(spec)
    if context_bucket != 1:
        replicas = [_rebucketed(r, context_bucket) for r in replicas]
    simulator_cls = (
        VectorizedClusterSimulator
        if core == "vectorized"
        else ClusterSimulator
    )
    simulator = simulator_cls(
        replicas,
        router,
        admission=build_admission(spec, price_cache=router.price_cache),
    )
    if keep is not None:
        keep.append(simulator)
    return simulator.run(build_requests(spec))


def _outputs(summary):
    return dataclasses.replace(
        summary, **{name: {} for name in INSTRUMENTATION}
    )


def _ground_and_lazy(spec, **kwargs):
    """(ground model, vectorized core) summaries of one spec."""
    lazy = _simulate(spec, "vectorized", **kwargs)
    ground = _simulate(spec, "scalar", **kwargs)
    assert ground.step_macro == {}, ground.step_macro
    return ground, lazy


def _assert_matches_ground(spec, **kwargs):
    ground, lazy = _ground_and_lazy(spec, **kwargs)
    assert _outputs(lazy) == _outputs(ground)
    assert lazy.step_macro.get("lazy_runs", 0) > 0, lazy.step_macro
    return ground, lazy


def _pair(
    rate,
    requests=400,
    replicas=64,
    batch=64,
    policy="slo-slack",
    admission="defer",
    p99=8.0,
    defer_seconds=0.25,
    max_defers=8,
    seed=17,
    **workload,
):
    """The ``near-capacity`` shape: PAPI replicas, mean context, TLP 1,
    two general-qa tenants at ``rate`` each, the interactive one gated
    by admission."""
    fields = dict(
        speculation_length=1, context_mode="mean", acceptance_rate=0.8
    )
    fields.update(workload)
    return ScenarioSpec(
        name="lazy-lanes",
        seed=seed,
        workload=WorkloadSpec(**fields),
        fleet=FleetSpec(
            replicas=(ReplicaSpec(count=replicas, max_batch_size=batch),)
        ),
        tenants=(
            TenantSpec(
                name="interactive",
                traffic=TrafficSpec(
                    category="general-qa",
                    requests=requests // 2,
                    rate_per_s=rate,
                ),
                slo=SLOSpec(
                    p99_seconds=p99,
                    admission=admission,
                    defer_seconds=defer_seconds,
                    max_defers=max_defers,
                ),
            ),
            TenantSpec(
                name="batch",
                traffic=TrafficSpec(
                    category="general-qa",
                    requests=requests // 2,
                    rate_per_s=rate,
                ),
            ),
        ),
        routing=RoutingSpec(policy=policy),
    )


class TestSeededSpecs:
    """Seeded colocated sessionless fleets against the ground model."""

    @pytest.mark.parametrize("rate", [120.0, 400.0])
    def test_near_capacity_shape(self, rate):
        _assert_matches_ground(_pair(rate))

    def test_near_capacity_shape_where_fc_flips(self):
        ground, lazy = _assert_matches_ground(
            _pair(800.0, requests=600, replicas=16)
        )
        assert lazy.total_reschedules > 0
        assert lazy.step_macro.get("lazy_cuts", 0) > 0

    def test_full_detail_records_match(self):
        """Per-iteration records too: every committed piece of a lazy run
        lands in the same iteration order as the ground model's steps."""
        _assert_matches_ground(
            _pair(400.0, requests=160, replicas=8), detail="full"
        )

    def test_deferral_storm(self):
        ground, lazy = _assert_matches_ground(
            _pair(
                1600.0,
                requests=400,
                replicas=8,
                batch=16,
                p99=0.6,
                defer_seconds=0.05,
            )
        )
        assert sum(t.deferrals for t in lazy.tenants.values()) > 0

    def test_moe(self):
        _assert_matches_ground(
            _pair(200.0, requests=200, replicas=8, moe=MoESpec())
        )

    def test_deterministic_speculation(self):
        _assert_matches_ground(
            _pair(
                300.0,
                requests=240,
                replicas=8,
                speculation_length=2,
                acceptance_rate=1.0,
            )
        )

    def test_coarse_context_bucket(self):
        _assert_matches_ground(
            _pair(300.0, requests=240, replicas=8), context_bucket=32
        )

    def test_drained_fleet_keeps_no_plan(self):
        """Every lazy run is committed once the trace drains, and no
        stale record in the lane index keeps its priced plan: the drain
        itself (no interaction event left to pass) goes lazy never, so
        the index holds at most a record or two per lane."""
        keep = []
        summary = _simulate(
            _pair(400.0, requests=400, replicas=16), "vectorized", keep=keep
        )
        assert summary.step_macro.get("lazy_runs", 0) > 0
        fleet = keep[0].fleet
        assert all(run is None for run in fleet._lazy)
        records = [run for _, _, run in fleet._lazy_heap]
        records += [run for runs in fleet._lazy_due.values() for run in runs]
        assert all(run.plan is None for run in records)
        assert len(fleet._lazy_heap) <= 2 * len(fleet)

    @pytest.mark.parametrize("admission", ["defer", "reject"])
    @pytest.mark.parametrize("policy", available_routers())
    def test_every_router(self, policy, admission):
        ground, lazy = _assert_matches_ground(
            _pair(
                240.0,
                requests=160,
                replicas=6,
                batch=8,
                policy=policy,
                admission=admission,
                p99=1.0,
                defer_seconds=0.1,
                seed=29,
            )
        )
        verdicts = sum(
            t.deferrals + t.rejected for t in lazy.tenants.values()
        )
        assert verdicts > 0


# -- hand-built exact ties ---------------------------------------------------


def _view(fleet, request):
    """Every lane's projected step and completion seconds, as probed."""
    if hasattr(fleet, "fleet_completion_seconds"):
        return (
            list(fleet.fleet_step_seconds(request)),
            list(fleet.fleet_completion_seconds(request)),
        )
    return (
        [projected_step_seconds(r, request, None) for r in fleet],
        [projected_completion_seconds(r, request, None) for r in fleet],
    )


class _ScriptedRouter(Router):
    """Routes request ``i`` to ``choices[i]``, recording each probe."""

    name = "scripted"

    def __init__(self, choices):
        self.choices = choices
        self.seen = []

    def select(self, request, replicas, now):
        self.seen.append((request.request_id, now, _view(replicas, request)))
        return self.choices[request.request_id]


class _RecordingAdmission(SLOAdmissionController):
    """The production controller, recording each decision's fleet view."""

    def __init__(self, policies):
        super().__init__(policies)
        self.seen = []

    def decide(self, request, replicas, now):
        self.seen.append((request.request_id, now, _view(replicas, request)))
        return super().decide(request, replicas, now)


def _tie_replicas(core):
    spec = apply_core_mode(
        _pair(1.0, requests=2, replicas=2, batch=4), core
    )
    return build_replicas(
        dataclasses.replace(
            spec, fleet=dataclasses.replace(spec.fleet, detail="full")
        )
    )


#: The long request whose lazy run the ties land on (replica 0).
LONG = dict(input_len=512, output_len=40)


def _chain():
    """Completion times of ``LONG`` served alone from t=0 (per step)."""
    replica = _tie_replicas("scalar")[0]
    replica.enqueue(Request(request_id=0, **LONG))
    done_at = replica.poke(0.0)
    chain = []
    while done_at is not None:
        chain.append(done_at)
        done_at = replica.on_step_done(done_at)
    return chain


def _run_ties(requests, choices, backoff):
    """Run the hand-built trace on both cores; return their records."""
    records = {}
    for core in ("vectorized", "scalar"):
        router = _ScriptedRouter(choices)
        admission = _RecordingAdmission(
            {
                "gated": TenantPolicy(
                    action="defer", defer_seconds=backoff, max_defers=1
                )
            }
        )
        simulator_cls = (
            VectorizedClusterSimulator
            if core == "vectorized"
            else ClusterSimulator
        )
        simulator = simulator_cls(_tie_replicas(core), router, admission)
        trace = [dataclasses.replace(request) for request in requests]
        summary = simulator.run(trace)
        records[core] = (router.seen, admission.seen, _outputs(summary))
        if core == "vectorized":
            assert summary.step_macro.get("lazy_runs", 0) > 0
    return records["vectorized"], records["scalar"]


def _midpoint_defer(earlier, later, target):
    """(arrival, backoff) with arrival between two completions and
    arrival + backoff == target exactly."""
    arrival = (earlier + later) / 2
    backoff = target - arrival
    assert arrival + backoff == target
    return arrival, backoff


class TestExactTies:
    def test_arrival_at_a_lazy_completion_sees_only_earlier_ones(self):
        """Arrivals exactly at completions of replica 0's run — its
        first (not yet popped), one mid-run, and one routed to the lane
        itself (a cut at the tie) — see the ground model's view."""
        chain = _chain()
        requests = [
            Request(request_id=0, arrival_s=0.0, **LONG),
            Request(request_id=1, input_len=64, output_len=4,
                    arrival_s=chain[0]),
            Request(request_id=2, input_len=64, output_len=4,
                    arrival_s=chain[6]),
            Request(request_id=3, input_len=64, output_len=30,
                    arrival_s=chain[12]),
            Request(request_id=4, input_len=64, output_len=4,
                    arrival_s=chain[13]),
        ]
        choices = {0: 0, 1: 1, 2: 1, 3: 0, 4: 1}
        lazy, ground = _run_ties(requests, choices, backoff=0.1)
        assert lazy == ground

    def test_deferral_tie_with_the_next_completion(self):
        """A deferral pushed between two completions for exactly the
        later one: the completion was queued first, so the re-arrival
        sees it."""
        chain = _chain()
        arrival, backoff = _midpoint_defer(chain[8], chain[9], chain[9])
        requests = [
            Request(request_id=0, arrival_s=0.0, **LONG),
            Request(request_id=1, input_len=64, output_len=4,
                    arrival_s=arrival, tenant="gated",
                    deadline_s=arrival),
            Request(request_id=2, input_len=64, output_len=4,
                    arrival_s=chain[9]),
        ]
        choices = {0: 0, 1: 1, 2: 1}
        lazy, ground = _run_ties(requests, choices, backoff)
        assert lazy == ground
        # The gated request deferred once, then re-arrived at the tie.
        assert [now for rid, now, _ in lazy[1] if rid == 1] == [
            arrival, chain[9]
        ]

    def test_deferral_tie_with_a_run_end_that_has_completions_left(self):
        """A deferral pushed two completions before a run's end, for
        exactly that end: the end was queued only after the deferral,
        so the re-arrival wins."""
        chain = _chain()
        arrival, backoff = _midpoint_defer(chain[-3], chain[-2], chain[-1])
        requests = [
            Request(request_id=0, arrival_s=0.0, **LONG),
            Request(request_id=1, input_len=64, output_len=4,
                    arrival_s=arrival, tenant="gated",
                    deadline_s=arrival),
        ]
        choices = {0: 0, 1: 1}
        lazy, ground = _run_ties(requests, choices, backoff)
        assert lazy == ground
        assert [now for rid, now, _ in lazy[1] if rid == 1] == [
            arrival, chain[-1]
        ]
