"""Session workloads: affinity routing payoff and cross-core equivalence.

The session-subsystem acceptance benchmark. One conversational scenario
family (multi-turn sessions over a prefix-cached PAPI fleet, bursty
openings, sustained load) drives two measurements:

* **Affinity payoff** — the same session trace routed by
  ``session-affinity`` and by ``min-cost``; the payload reports both
  prefix-cache hit rates, the saved prefill tokens, and the follow-up
  turn p99 under each policy. The acceptance bar is a strictly higher
  hit rate under affinity routing (locality the load-only router only
  finds by accident).
* **Equivalence traces** — a matrix of session scenarios (routers x
  colocated/disaggregated x arrival processes) executed through the
  scalar and vectorized cores with **zero** tolerated mismatches across
  every aggregate, per-replica, per-tenant, prefix-cache, and session
  output — the dynamic follow-up lane under the same bit-identity
  contract as the static lanes.

The simulation itself is deterministic; only wall-clock seconds vary by
host. Results land in ``results/BENCH_sessions.json``.

Scale knobs (env): ``BENCH_SESSIONS_SESSIONS`` (sessions per tenant) /
``BENCH_SESSIONS_REPLICAS`` trim the payoff trace for CI smoke runs;
the equivalence gate always runs in full.
"""

import dataclasses
import json
import os
import time
from pathlib import Path

from benchmarks.conftest import run_once
from repro.analysis.report import format_table
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
    WorkloadSpec,
)

#: Payoff trace shape: sessions per tenant (4 turns each), fleet width.
SESSIONS = int(os.environ.get("BENCH_SESSIONS_SESSIONS", "400"))
REPLICAS = int(os.environ.get("BENCH_SESSIONS_REPLICAS", "16"))
TURNS = 4

BENCH_JSON = Path("results") / "BENCH_sessions.json"


def payoff_scenario(policy: str) -> ScenarioSpec:
    """The affinity-payoff scenario: bursty conversational tenants."""
    return ScenarioSpec(
        name=f"bench-sessions-{policy}",
        seed=17,
        workload=WorkloadSpec(speculation_length=1, context_mode="mean"),
        fleet=FleetSpec(
            replicas=(
                ReplicaSpec(count=REPLICAS, max_batch_size=16),
            ),
            detail="aggregate",
            prefix_cache=PrefixCacheSpec(capacity_gb=16.0),
        ),
        tenants=(
            TenantSpec(
                name="chat",
                traffic=TrafficSpec(
                    category="general-qa",
                    requests=SESSIONS,
                    rate_per_s=max(1.0, REPLICAS * 2.0),
                    arrival=ArrivalProcessSpec(kind="bursty", burst_size=4.0),
                    session=SessionSpec(turns=TURNS, think_time_s=1.0),
                ),
                slo=SLOSpec(p99_seconds=30.0),
            ),
            TenantSpec(
                name="background",
                traffic=TrafficSpec(
                    category="creative-writing",
                    requests=SESSIONS // 2,
                    rate_per_s=max(1.0, REPLICAS * 1.0),
                ),
            ),
        ),
        routing=RoutingSpec(policy=policy),
    )


#: Equivalence matrix: (router, disaggregated?, arrival kind, turns).
EQUIVALENCE_CASES = (
    ("session-affinity", False, "poisson", 3),
    ("session-affinity", True, "bursty", 3),
    ("min-cost", False, "bursty", 4),
    ("slo-slack", True, "poisson", 2),
    ("slo-slack", False, "diurnal", 3),
)


def equivalence_scenario(policy, disaggregated, kind, turns) -> ScenarioSpec:
    groups = (
        (
            ReplicaSpec(count=2, max_batch_size=8, role="prefill"),
            ReplicaSpec(count=2, max_batch_size=8, role="decode"),
        )
        if disaggregated
        else (ReplicaSpec(count=3, max_batch_size=8),)
    )
    return ScenarioSpec(
        name=f"equiv-sessions-{policy}",
        seed=11,
        fleet=FleetSpec(
            replicas=groups,
            interconnect=InterconnectSpec() if disaggregated else None,
            prefix_cache=PrefixCacheSpec(capacity_gb=8.0),
        ),
        tenants=(
            TenantSpec(
                name="chat",
                traffic=TrafficSpec(
                    category="general-qa",
                    requests=16,
                    rate_per_s=4.0,
                    arrival=(
                        ArrivalProcessSpec(kind=kind)
                        if kind != "poisson"
                        else None
                    ),
                    session=SessionSpec(turns=turns, think_time_s=1.0),
                ),
                slo=SLOSpec(p99_seconds=30.0),
            ),
            TenantSpec(
                name="batch",
                traffic=TrafficSpec(
                    category="creative-writing", requests=16, rate_per_s=8.0
                ),
            ),
        ),
        routing=RoutingSpec(policy=policy),
    )


def comparable_outputs(result) -> dict:
    """Everything a session study reads, minus cache instrumentation."""
    summary = result.summary
    return {
        "makespan": summary.makespan_seconds,
        "total_requests": summary.total_requests,
        "tokens": summary.tokens_generated,
        "latencies": sorted(summary.request_latencies),
        "reschedules": summary.total_reschedules,
        "prefix_cache": dict(summary.prefix_cache),
        "sessions": dict(summary.sessions),
        "replicas": [
            (
                report.requests_served,
                report.tokens_generated,
                report.iterations,
                report.busy_seconds,
            )
            for report in summary.replicas
        ],
        "tenants": {
            name: dataclasses.asdict(report)
            for name, report in summary.tenants.items()
        },
    }


def _policy_leg(policy: str) -> dict:
    spec = apply_core_mode(payoff_scenario(policy), "vectorized")
    t0 = time.perf_counter()
    result = run_scenario(spec)
    seconds = time.perf_counter() - t0
    summary = result.summary
    return {
        "policy": policy,
        "wall_seconds": seconds,
        "makespan_seconds": summary.makespan_seconds,
        "p99_latency_s": summary.latency_percentile(99),
        "followup_p99_s": summary.sessions["followup_latency"]["p99_s"],
        "followup_mean_s": summary.sessions["followup_latency"]["mean_s"],
        "prefix_cache": dict(summary.prefix_cache),
        "turns_served": summary.sessions["turns_served"],
    }


def run_sessions_benchmark():
    mismatches = 0
    for case in EQUIVALENCE_CASES:
        spec = equivalence_scenario(*case)
        scalar, vectorized = (
            comparable_outputs(run_scenario(apply_core_mode(spec, core)))
            for core in ("scalar", "vectorized")
        )
        if vectorized != scalar:
            mismatches += 1

    affinity = _policy_leg("session-affinity")
    min_cost = _policy_leg("min-cost")
    payload = {
        "sessions_per_tenant": SESSIONS,
        "turns": TURNS,
        "replicas": REPLICAS,
        "equivalence_traces": len(EQUIVALENCE_CASES),
        "mismatches": mismatches,
        "affinity": affinity,
        "min_cost": min_cost,
        "hit_rate_gain": (
            affinity["prefix_cache"]["hit_rate"]
            - min_cost["prefix_cache"]["hit_rate"]
        ),
        "prefill_tokens_saved_gain": (
            affinity["prefix_cache"]["cached_tokens"]
            - min_cost["prefix_cache"]["cached_tokens"]
        ),
        "followup_p99_delta_s": (
            min_cost["followup_p99_s"] - affinity["followup_p99_s"]
        ),
    }
    BENCH_JSON.parent.mkdir(parents=True, exist_ok=True)
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_sessions(benchmark, show):
    payload = run_once(benchmark, run_sessions_benchmark)
    affinity = payload["affinity"]
    min_cost = payload["min_cost"]
    rows = [
        ["trace", f"{payload['sessions_per_tenant']} sessions x "
                  f"{payload['turns']} turns on {payload['replicas']} "
                  f"replicas"],
        ["equivalence traces", payload["equivalence_traces"]],
        ["mismatches", payload["mismatches"]],
        ["affinity hit rate", affinity["prefix_cache"]["hit_rate"]],
        ["min-cost hit rate", min_cost["prefix_cache"]["hit_rate"]],
        ["hit-rate gain", payload["hit_rate_gain"]],
        ["prefill tokens saved (affinity)",
         affinity["prefix_cache"]["cached_tokens"]],
        ["prefill tokens saved (min-cost)",
         min_cost["prefix_cache"]["cached_tokens"]],
        ["follow-up p99 affinity (s)", affinity["followup_p99_s"]],
        ["follow-up p99 min-cost (s)", min_cost["followup_p99_s"]],
        ["output file", str(BENCH_JSON)],
    ]
    show(format_table(["metric", "value"], rows,
                      title="Session workloads: affinity vs min-cost"))
    assert payload["mismatches"] == 0
    assert (
        affinity["prefix_cache"]["hit_rate"]
        > min_cost["prefix_cache"]["hit_rate"]
    ), payload
    assert affinity["turns_served"] > 0
