"""Cluster simulator at fleet scale: vectorized core vs scalar reference.

Three measurements share one scenario family (PAPI replicas under
``slo-slack`` routing with SLO admission control, two tenants,
sustained past-capacity Poisson load so routing probes see real
queues):

* **Equivalence traces** — a matrix of smaller runs (routers x admission
  x MoE x speculation) executed through both cores — the vectorized
  array core (``core_mode="vectorized"``) and the scalar reference
  (per-replica probes + O(queue) rescans + full per-iteration records) —
  asserting **zero** mismatches across every aggregate, per-replica,
  and per-tenant output.
* **The headline trace** — 1M requests x 64 replicas timed through the
  vectorized core.
* **The scalar reference leg** — the same scenario at 1/20 scale timed
  through the scalar and vectorized cores (the scalar core's O(queue)
  admission rescans make full scale infeasible); the vectorized core's
  bar there is >= 30x.

Two more artifacts ride along in the payload: the vectorized core's
fleet-version verdict-memo counters (``probe_memo`` — the > 0.5 hit
rate is an acceptance bar at full scale), and a profiled per-phase
breakdown (``phase_breakdown``: probe pricing vs step execution vs
event loop vs metrics fold) measured on a reduced trace.

The simulation itself is deterministic (queue depths, routing decisions,
and every output are bit-reproducible anywhere); only the wall-clock
seconds vary by host. Results land in ``results/BENCH_cluster.json``.

Scale knobs (env): ``BENCH_CLUSTER_REQUESTS`` / ``BENCH_CLUSTER_REPLICAS``
trim the headline trace for CI smoke runs — the speedup and hit-rate
bars only apply at full scale (>= 1M requests), the zero-mismatch gate
always.
"""

import cProfile
import dataclasses
import json
import os
import pstats
import time
from contextlib import contextmanager
from pathlib import Path

from benchmarks.conftest import run_once
from repro.analysis.report import format_table
from repro.cluster.replica import Replica
from repro.scenario.run import apply_core_mode, run_scenario
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

#: Headline trace shape: 1M requests across two tenants on 64 replicas.
REQUESTS = int(os.environ.get("BENCH_CLUSTER_REQUESTS", "1000000"))
REPLICAS = int(os.environ.get("BENCH_CLUSTER_REPLICAS", "64"))
#: Per-tenant Poisson rate: combined offered load (6400/s) sits far above
#: the fleet's deterministic service capacity on this trace, so queues
#: deepen through the arrival window and SLO admission control sheds
#: interactive load through bounded defer/retry — the regime fleet-scale
#: serving actually operates in, and where per-arrival admission probing
#: (the scalar core's per-replica Python loops) dominates.
RATE_PER_TENANT = 3200.0
MAX_BATCH = 64
#: The scalar reference's O(queue) rescans are quadratic in queue depth;
#: its leg runs the same scenario at 1/20 scale.
SCALAR_DIVISOR = 20

BENCH_JSON = Path("results") / "BENCH_cluster.json"


def headline_scenario(requests: int = None) -> ScenarioSpec:
    """The headline scenario at ``requests`` total offered requests."""
    if requests is None:
        requests = REQUESTS
    return ScenarioSpec(
        name="bench-cluster",
        seed=17,
        workload=WorkloadSpec(
            speculation_length=1, context_mode="mean", acceptance_rate=0.8
        ),
        fleet=FleetSpec(
            replicas=(
                ReplicaSpec(count=REPLICAS, max_batch_size=MAX_BATCH),
            ),
            detail="aggregate",
        ),
        tenants=(
            TenantSpec(
                name="interactive",
                traffic=TrafficSpec(
                    category="general-qa",
                    requests=requests // 2,
                    rate_per_s=RATE_PER_TENANT,
                ),
                slo=SLOSpec(
                    p99_seconds=8.0,
                    admission="defer",
                    defer_seconds=0.25,
                    max_defers=8,
                ),
            ),
            TenantSpec(
                name="batch",
                traffic=TrafficSpec(
                    category="general-qa",
                    requests=requests // 2,
                    rate_per_s=RATE_PER_TENANT,
                ),
            ),
        ),
        routing=RoutingSpec(policy="slo-slack"),
    )


def _vectorized(spec: ScenarioSpec) -> ScenarioSpec:
    """The array core: flat calendar + fleet arrays + verdict memo."""
    return apply_core_mode(spec, "vectorized")


def _scalar(spec: ScenarioSpec) -> ScenarioSpec:
    """The scalar reference: per-replica probes, O(queue) rescans."""
    return apply_core_mode(spec, "scalar")


#: Where each profiled function's self-time lands in the phase
#: breakdown. The vectorized run splits into named phases: admission /
#: routing probe pricing (the fleet-version verdict memo's domain), the
#: cost-model evaluation behind each priced step (``step_pricing`` —
#: the device/model/system stack the step cache fronts), step execution
#: on the replicas, routing + admission control, calendar maintenance,
#: the event loop itself, request/trace construction, and the metrics
#: fold. Whole directories whose every module belongs to one phase are
#: mapped first; ``other`` is left for interpreter and numpy built-ins
#: that cProfile cannot attribute to a repo module.
_PHASE_DIRS = {
    "devices": "step_pricing",
    "dram": "step_pricing",
    "models": "step_pricing",
    "systems": "step_pricing",
    "analysis": "harness",
}

_PHASE_FILES = {
    # serving/
    "metrics.py": "metrics_fold",
    "clock.py": "calendar",
    "engine.py": "step_pricing",
    "stepcache.py": "step_pricing",
    "speculative.py": "step_execution",
    "tlp_policy.py": "step_execution",
    "dataset.py": "request_build",
    "arrivals.py": "request_build",
    "request.py": "request_build",
    "slo.py": "routing_admission",
    # core/
    "scheduler.py": "step_execution",
    "intensity.py": "step_execution",
    "placement.py": "step_pricing",
    # cluster/ (fleetstate.py is split by function below)
    "cluster.py": "event_loop",
    "replica.py": "step_execution",
    "router.py": "routing_admission",
    "admission.py": "routing_admission",
    "prefixcache.py": "routing_admission",
    "interconnect.py": "event_loop",
    # scenario/
    "build.py": "request_build",
    "spec.py": "request_build",
    "run.py": "harness",
    "cli.py": "harness",
}

#: ``fleetstate.py`` holds both sides: probe/pricing machinery and the
#: vectorized replica's step handlers (lazy lanes included). Function-name
#: prefixes that belong to the probe-pricing phase: every ``FleetState``
#: probe, its list views, verdicts, memos, pricing helpers and the
#: counter mirroring they read.
_PROBE_PREFIXES = (
    "probe_",
    "fleet_",
    "route_min_cost",
    "route_slo_slack",
    "price_",
    "outstanding_counts",
    "mark_dirty",
    "_flush",
    "_projected_loads",
    "_fleet_step_array",
    "_rebuild_probe",
    "_refresh_lanes",
    "_plan_codes",
    "_table_values",
    "_price_",
    "_sync_memo",
    "_steps_key",
)


def _phase_of(filename: str, funcname: str) -> str:
    name = os.path.basename(filename)
    if name == "fleetstate.py":
        if funcname.startswith(_PROBE_PREFIXES):
            return "probe_pricing"
        return "step_execution"
    parent = os.path.basename(os.path.dirname(filename))
    phase = _PHASE_DIRS.get(parent)
    if phase is not None:
        return phase
    return _PHASE_FILES.get(name, "other")


def profile_phase_breakdown(requests: int) -> dict:
    """Profile a reduced vectorized trace; bucket self-time by phase.

    cProfile inflates wall-clock severalfold, so the breakdown runs at
    reduced scale and reports *shares* — the phase mix, not the headline
    seconds (phase shares are stable across trace length once queues
    saturate, which this scenario's offered load guarantees early). The
    profiled scale is labelled in the result (``requests`` and
    ``share_of_headline``) so a trimmed CI breakdown is never mistaken
    for the full-scale mix.
    """
    spec = _vectorized(headline_scenario(requests))
    profile = cProfile.Profile()
    profile.enable()
    run_scenario(spec)
    profile.disable()
    stats = pstats.Stats(profile)
    phases: dict = {}
    total = 0.0
    for (filename, _line, funcname), row in stats.stats.items():
        self_seconds = row[2]
        total += self_seconds
        phase = _phase_of(filename, funcname)
        phases[phase] = phases.get(phase, 0.0) + self_seconds
    return {
        "requests": requests,
        "share_of_headline": requests / REQUESTS if REQUESTS else 1.0,
        "profiled_seconds": total,
        "phases": {
            phase: {
                "seconds": seconds,
                "share": seconds / total if total else 0.0,
            }
            for phase, seconds in sorted(
                phases.items(), key=lambda item: -item[1]
            )
        },
    }


@contextmanager
def _macro_stepping_disabled():
    """Force the per-iteration path for a before/after phase breakdown.

    Patches :meth:`Replica.plan_run` (where every macro-run starts: the
    vectorized core's relaxed burst plans each inline or lazy run
    through it, and ``VectorReplica`` inherits it) to decline every
    attempt, so the same trace replays through the reference
    per-iteration loop.
    """
    original = Replica.plan_run
    Replica.plan_run = lambda self, *args, **kwargs: None
    try:
        yield
    finally:
        Replica.plan_run = original


#: Equivalence matrix: (router, admission action, MoE?, speculation).
EQUIVALENCE_CASES = (
    ("min-cost", "admit", False, 2),
    ("min-cost", "admit", True, 2),
    ("intensity", "defer", False, 1),
    ("slo-slack", "reject", False, 2),
    ("slo-slack", "defer", True, 4),
)


def equivalence_scenario(policy, admission, moe, spec_len) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"equiv-{policy}-{admission}",
        seed=11,
        workload=WorkloadSpec(
            speculation_length=spec_len,
            moe=MoESpec(num_experts=8, experts_per_token=2) if moe else None,
        ),
        fleet=FleetSpec(replicas=(ReplicaSpec(count=3, max_batch_size=8),)),
        tenants=(
            TenantSpec(
                name="interactive",
                traffic=TrafficSpec(requests=40, rate_per_s=24.0),
                slo=SLOSpec(p99_seconds=20.0, admission=admission)
                if admission != "admit"
                else SLOSpec(),
            ),
            TenantSpec(
                name="batch",
                traffic=TrafficSpec(
                    category="general-qa", requests=40, rate_per_s=24.0
                ),
            ),
        ),
        routing=RoutingSpec(policy=policy),
    )


def comparable_outputs(result) -> dict:
    """Everything a study reads, minus cache instrumentation counters."""
    summary = result.summary
    return {
        "makespan": summary.makespan_seconds,
        "total_requests": summary.total_requests,
        "tokens": summary.tokens_generated,
        "latencies": sorted(summary.request_latencies),
        "reschedules": summary.total_reschedules,
        "replicas": [
            (
                report.requests_served,
                report.tokens_generated,
                report.iterations,
                report.busy_seconds,
                report.summary.decode_energy,
                dict(report.summary.fc_target_iterations),
            )
            for report in summary.replicas
        ],
        "tenants": {
            name: dataclasses.asdict(report)
            for name, report in summary.tenants.items()
        },
    }


def run_cluster_benchmark():
    mismatches = 0
    for case in EQUIVALENCE_CASES:
        spec = equivalence_scenario(*case)
        vectorized = comparable_outputs(run_scenario(_vectorized(spec)))
        scalar = comparable_outputs(run_scenario(_scalar(spec)))
        if vectorized != scalar:
            mismatches += 1

    # Headline: the vectorized core at full scale.
    t0 = time.perf_counter()
    vec_result = run_scenario(_vectorized(headline_scenario()))
    vec_seconds = time.perf_counter() - t0

    # Scalar reference leg at reduced scale (O(queue) rescans make the
    # scalar core infeasible at the full trace).
    scalar_requests = max(2, REQUESTS // SCALAR_DIVISOR)
    small = headline_scenario(scalar_requests)
    t0 = time.perf_counter()
    vec_small_result = run_scenario(_vectorized(small))
    vec_small_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    scalar_result = run_scenario(_scalar(small))
    scalar_seconds = time.perf_counter() - t0
    if comparable_outputs(vec_small_result) != comparable_outputs(
        scalar_result
    ):
        mismatches += 1

    # Profiled leg: at least 20k requests (capped at the headline scale)
    # so queues saturate and the mix is representative — a 200-request
    # sliver is all cold caches and trace construction.
    profile_requests = max(2, min(REQUESTS, max(REQUESTS // 20, 20_000)))
    breakdown = profile_phase_breakdown(profile_requests)
    with _macro_stepping_disabled():
        breakdown_macro_off = profile_phase_breakdown(profile_requests)

    summary = vec_result.summary
    payload = {
        "requests": REQUESTS,
        "replicas": REPLICAS,
        "router": "slo-slack",
        "rate_per_tenant": RATE_PER_TENANT,
        "max_batch_size": MAX_BATCH,
        "equivalence_traces": len(EQUIVALENCE_CASES) + 1,
        "mismatches": mismatches,
        "vectorized_seconds": vec_seconds,
        "vectorized_requests_per_second": REQUESTS / vec_seconds,
        "scalar_reference": {
            "requests": scalar_requests,
            "scalar_seconds": scalar_seconds,
            "vectorized_seconds": vec_small_seconds,
            "speedup": scalar_seconds / vec_small_seconds,
        },
        "probe_memo": dict(summary.probe_memo),
        "step_macro": dict(summary.step_macro),
        "phase_breakdown": breakdown,
        "phase_breakdown_macro_off": breakdown_macro_off,
        "simulated": {
            "makespan_seconds": summary.makespan_seconds,
            "total_requests": summary.total_requests,
            "tokens_generated": summary.tokens_generated,
            "p99_latency_s": summary.latency_percentile(99),
            "deferrals": sum(
                report.deferrals for report in summary.tenants.values()
            ),
            "rejected": sum(
                report.rejected for report in summary.tenants.values()
            ),
        },
    }
    BENCH_JSON.parent.mkdir(parents=True, exist_ok=True)
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_cluster_scale(benchmark, show):
    payload = run_once(benchmark, run_cluster_benchmark)

    scalar_ref = payload["scalar_reference"]
    memo = payload["probe_memo"]
    rows = [
        ["trace", f"{payload['requests']} reqs x "
                  f"{payload['replicas']} replicas (slo-slack)"],
        ["vectorized seconds", payload["vectorized_seconds"]],
        ["vectorized reqs/s",
         payload["vectorized_requests_per_second"]],
        ["scalar leg reqs", scalar_ref["requests"]],
        ["scalar leg seconds", scalar_ref["scalar_seconds"]],
        ["speedup (vec vs scalar)", scalar_ref["speedup"]],
        ["probe memo hit rate", memo.get("hit_rate", 0.0)],
        ["probe memo hits", memo.get("probe_hits", 0)],
        ["equivalence traces", payload["equivalence_traces"]],
        ["mismatches", payload["mismatches"]],
        ["macro steps", int(payload["step_macro"].get("macro_steps", 0))],
        ["iterations compressed",
         int(payload["step_macro"].get("iterations_compressed", 0))],
    ]
    off_phases = payload["phase_breakdown_macro_off"]["phases"]
    for phase, entry in payload["phase_breakdown"]["phases"].items():
        before = off_phases.get(phase, {}).get("share", 0.0)
        rows.append(
            [f"phase {phase}", f"{entry['share']:.1%} (macro off: "
                               f"{before:.1%})"]
        )
    rows.append(["output file", str(BENCH_JSON)])
    show(
        format_table(
            ["metric", "value"],
            rows,
            title="Vectorized cluster core vs the scalar reference",
        )
    )

    # The acceptance bars: zero divergence between the cores and a live
    # verdict memo always; the >= 30x win over the scalar reference at
    # its reduced-scale leg and the > 0.5 memo hit rate only at the
    # full 1M-request scale — trimmed CI smoke runs gate equivalence
    # and memo liveness.
    assert payload["mismatches"] == 0
    assert memo.get("probe_hits", 0) > 0, payload
    assert payload["phase_breakdown"]["phases"], payload
    assert payload["step_macro"].get("iterations_compressed", 0) > 0, (
        payload
    )
    if payload["requests"] >= 1_000_000:
        assert scalar_ref["speedup"] >= 30.0, payload
        assert memo["hit_rate"] > 0.5, payload
