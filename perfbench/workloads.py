"""The benchmark's workloads: seeded scenario specs at fixed trace sizes.

Each workload is defined here rather than imported from
``benchmarks/bench_cluster.py`` so that edits to the repository's own
benches cannot silently change what this benchmark measures. Every spec
runs on the vectorized core (``apply_core_mode(spec, "vectorized")``);
the scalar reference only runs on the reduced slice used by the output
check.

The simulator is offline and trace-driven, so a workload is a
pre-generated trace at a stated size: the seed picks the request
lengths, arrival gaps, session think times and speculative draws, and
the size and rates stay fixed. A run's repeats each simulate another
trace drawn from the run's seed (:func:`trace_seed`), so a run's median
averages over traces as well as over processes.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.scenario.run import apply_core_mode
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

#: The seed whose output digests are recorded in ``digests.json``.
DEFAULT_SEED = 17

#: Offered requests per storm trace (two tenants, half each).
STORM_REQUESTS = 20_000
#: Offered requests per near-capacity trace.
NEAR_CAPACITY_REQUESTS = 3_000
#: Opening requests per sessions-disagg tenant (the chat tenant's become
#: 4-turn sessions, so it offers up to four times as many).
SESSION_OPENINGS = 300

#: The reduced slice the scalar cross-check runs: this fraction of each
#: trace, on the same fleet, rates and policies.
SLICE_DIVISOR = 40


def _papi_pair(name: str, requests: int, rate: float, seed: int) -> ScenarioSpec:
    """The ``bench_cluster.headline_scenario`` shape at ``rate`` per tenant.

    64 PAPI replicas at batch 64, mean context accounting, TLP 1; two
    general-qa tenants under slo-slack routing, the interactive one
    gated by defer admission (8 s p99, 0.25 s backoff, 8 defers).
    """
    return ScenarioSpec(
        name=name,
        seed=seed,
        workload=WorkloadSpec(
            speculation_length=1, context_mode="mean", acceptance_rate=0.8
        ),
        fleet=FleetSpec(
            replicas=(ReplicaSpec(count=64, max_batch_size=64),),
            detail="aggregate",
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
                    rate_per_s=rate,
                ),
            ),
        ),
        routing=RoutingSpec(policy="slo-slack"),
    )


def storm(seed: int, divisor: int = 1) -> ScenarioSpec:
    """About 2x capacity: every arrival becomes a fleet-wide probe."""
    return _papi_pair("storm", STORM_REQUESTS // divisor, 3200.0, seed)


def near_capacity(seed: int, divisor: int = 1) -> ScenarioSpec:
    """Small batches, ~90 decode iterations per request, RLP moving."""
    return _papi_pair(
        "near-capacity", NEAR_CAPACITY_REQUESTS // divisor, 120.0, seed
    )


def sessions_disagg(seed: int, divisor: int = 1) -> ScenarioSpec:
    """Prefill/decode pools, 4-turn chat sessions, evicting prefix caches.

    An 8 GB prefix cache holds ~3k context tokens, a few sessions'
    worth, so inserts evict beside the routing-time peeks.
    """
    openings = max(1, SESSION_OPENINGS // divisor)
    return ScenarioSpec(
        name="sessions-disagg",
        seed=seed,
        workload=WorkloadSpec(
            speculation_length=2,
            acceptance_rate=0.8,
            context_mode="per-request",
        ),
        fleet=FleetSpec(
            replicas=(
                ReplicaSpec(count=8, max_batch_size=16, role="prefill"),
                ReplicaSpec(count=16, max_batch_size=32, role="decode"),
            ),
            detail="aggregate",
            interconnect=InterconnectSpec(),
            prefix_cache=PrefixCacheSpec(capacity_gb=8.0),
        ),
        tenants=(
            TenantSpec(
                name="chat",
                traffic=TrafficSpec(
                    category="general-qa",
                    requests=openings,
                    rate_per_s=64.0,
                    arrival=ArrivalProcessSpec(kind="bursty", burst_size=4.0),
                    session=SessionSpec(turns=4),
                ),
                slo=SLOSpec(
                    p99_seconds=8.0,
                    admission="defer",
                    defer_seconds=0.5,
                    max_defers=4,
                ),
            ),
            TenantSpec(
                name="background",
                traffic=TrafficSpec(
                    category="creative-writing",
                    requests=openings,
                    rate_per_s=64.0,
                ),
            ),
        ),
        routing=RoutingSpec(policy="session-affinity"),
    )


WORKLOADS: Dict[str, Callable[..., ScenarioSpec]] = {
    "storm": storm,
    "near-capacity": near_capacity,
    "sessions-disagg": sessions_disagg,
}


def trace_seed(seed: int, repeat: int) -> int:
    """The scenario seed of a run's ``repeat``-th trace.

    Derived through ``numpy.random.SeedSequence`` so that the traces of
    different runs and repeats never share a tenant stream (tenant ``i``
    draws from ``scenario seed + i``).
    """
    return int(np.random.SeedSequence([seed, repeat]).generate_state(1)[0])


def workload_spec(name: str, seed: int) -> ScenarioSpec:
    """The full-size trace of workload ``name`` at ``seed``, vectorized."""
    return apply_core_mode(WORKLOADS[name](seed), "vectorized")


def slice_spec(name: str, seed: int, core: str) -> ScenarioSpec:
    """The reduced slice of workload ``name`` the cross-check runs."""
    return apply_core_mode(WORKLOADS[name](seed, SLICE_DIVISOR), core)
