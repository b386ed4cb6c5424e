"""Output checks: simulated-output digest and conservation invariants.

The digest covers what a study reads from a run — makespan, tokens,
sorted latencies, per-replica, per-pool and per-tenant reports, and the
prefix-cache and session statistics — and leaves out the cores'
instrumentation counters (verdict memo, price cache, macro-step
counters), which legitimately differ between the vectorized core and
the scalar reference. Floats enter through ``repr``, so equal digests
mean bit-identical outputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Dict, List, Sequence

from repro.serving.request import Request, RequestState


def simulated_outputs(summary) -> Dict[str, Any]:
    """The simulated results of one run, in a canonical order."""
    return {
        "makespan": summary.makespan_seconds,
        "total_requests": summary.total_requests,
        "tokens": summary.tokens_generated,
        "latencies": sorted(summary.request_latencies),
        "replicas": [
            (
                report.replica_id,
                report.system,
                report.model,
                report.role,
                report.requests_served,
                report.requests_transferred,
                report.tokens_generated,
                report.iterations,
                report.reschedules,
                report.busy_seconds,
                report.utilization,
                report.acceptance_rate,
                report.expert_token_visits,
                report.mean_active_experts,
            )
            for report in summary.replicas
        ],
        "pools": {
            role: dataclasses.asdict(report)
            for role, report in summary.pools.items()
        },
        "tenants": {
            name: dataclasses.asdict(report)
            for name, report in summary.tenants.items()
        },
        "ttft": dict(summary.ttft),
        "transfer_wait": dict(summary.transfer_wait),
        "prefix_cache": dict(summary.prefix_cache),
        "sessions": dict(summary.sessions),
    }


def output_digest(summary) -> str:
    """SHA-256 over :func:`simulated_outputs`."""
    return hashlib.sha256(
        repr(simulated_outputs(summary)).encode("utf-8")
    ).hexdigest()


def entered_requests(trace: Sequence[Request]) -> List[Request]:
    """Every request that entered the simulator.

    ``trace`` is the opening-turn trace handed to the simulator. A
    session's next turn enters only once its predecessor finished, so
    each chain is walked until the first turn that did not finish.
    """
    entered: List[Request] = []
    for request in trace:
        node = request
        while node is not None:
            entered.append(node)
            if node.state is not RequestState.FINISHED:
                break
            node = node.followup
    return entered


def invariant_violations(summary, trace: Sequence[Request]) -> List[str]:
    """Conservation checks any correct run satisfies, at any seed."""
    problems: List[str] = []
    entered = entered_requests(trace)
    tenants = summary.tenants.values()
    offered = sum(report.submitted for report in tenants)
    if len(entered) != offered:
        problems.append(
            f"{len(entered)} requests entered, tenants report {offered}"
        )
    in_flight = [
        r.request_id
        for r in entered
        if r.state not in (RequestState.FINISHED, RequestState.REJECTED)
    ]
    if in_flight:
        problems.append(f"{len(in_flight)} requests still in flight")
    for report in tenants:
        if report.served + report.rejected != report.submitted:
            problems.append(
                f"tenant {report.tenant}: served {report.served} + "
                f"rejected {report.rejected} != submitted {report.submitted}"
            )
        if report.admitted != report.served:
            problems.append(
                f"tenant {report.tenant}: admitted {report.admitted} != "
                f"served {report.served}"
            )
        if min(report.p50_latency_s, report.p99_latency_s) < 0:
            problems.append(f"tenant {report.tenant}: negative latency")
    finished = [r for r in entered if r.state is RequestState.FINISHED]
    served = sum(report.served for report in tenants)
    by_replica = sum(report.requests_served for report in summary.replicas)
    if not len(finished) == served == by_replica == summary.total_requests:
        problems.append(
            f"served counts disagree: requests {len(finished)}, tenants "
            f"{served}, replicas {by_replica}, total "
            f"{summary.total_requests}"
        )
    tokens = sum(r.output_len for r in finished)
    if tokens != summary.tokens_generated:
        problems.append(
            f"tokens generated {summary.tokens_generated} != served "
            f"output lengths {tokens}"
        )
    latencies = summary.request_latencies
    if len(latencies) != summary.total_requests:
        problems.append(
            f"{len(latencies)} latencies for {summary.total_requests} served"
        )
    if latencies and min(latencies) < 0:
        problems.append("negative request latency")
    last_arrival = max(r.arrival_s for r in entered)
    if summary.makespan_seconds < last_arrival:
        problems.append(
            f"makespan {summary.makespan_seconds} before the last arrival "
            f"{last_arrival}"
        )
    return problems


def simulated_outcomes(summary) -> Dict[str, Any]:
    """Per-tenant modelled outcomes, in simulated time (not checked).

    The latency percentiles are over the tenant's ``served`` requests.
    """
    return {
        name: {
            "submitted": report.submitted,
            "served": report.served,
            "rejected": report.rejected,
            "deferrals": report.deferrals,
            "p50_s": report.p50_latency_s,
            "p99_s": report.p99_latency_s,
            "slo_attainment": report.slo_attainment,
        }
        for name, report in summary.tenants.items()
    }
