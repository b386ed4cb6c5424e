"""Builders: one validated :class:`ScenarioSpec` -> runnable cluster parts.

Each builder is the single place a spec field becomes a live object, and
``repro cluster`` constructs its spec through the same path — so the CLI,
scenario files, and library callers all assemble experiments identically.
Determinism contract: a single-tenant scenario built from the historical
``repro cluster`` flags reproduces that command's trace and fleet exactly
(same seeds, same request ids, same replica order).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.cluster.admission import SLOAdmissionController, TenantPolicy
from repro.cluster.fleetstate import VectorReplica
from repro.cluster.interconnect import Interconnect
from repro.cluster.prefixcache import PrefixCache
from repro.cluster.replica import Replica
from repro.cluster.router import PriceCache, Router, build_router
from repro.models.config import ModelConfig, get_model
from repro.models.moe import MoEModelConfig
from repro.scenario.spec import (
    MoESpec,
    ScenarioSpec,
    SessionSpec,
    TrafficSpec,
    WorkloadSpec,
)
from repro.serving.arrivals import (
    bursty_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
)
from repro.serving.dataset import (
    get_dataset,
    sample_lognormal_lengths,
    sample_requests,
)
from repro.serving.request import Request
from repro.serving.speculative import SpeculationConfig
from repro.serving.stepcache import StepCostCache
from repro.serving.tlp_policy import build_tlp_policy
from repro.systems.registry import build_system

#: Sub-stream tag separating session randomness (suffix/output lengths,
#: think times) from the tenant's base length/arrival streams. Seeding
#: ``default_rng((seed, tag))`` derives an independent stream from the
#: same per-tenant seed, so sessions stay shard-order-independent.
_SESSION_STREAM = 0x5E55


def build_moe_config(model: ModelConfig, spec: MoESpec) -> MoEModelConfig:
    """Materialize an MoE model config; ``expert_ffn_dim == 0`` picks the
    capacity-neutral default width (``ffn_dim // num_experts``)."""
    expert_ffn = spec.expert_ffn_dim or max(
        1, model.ffn_dim // spec.num_experts
    )
    return MoEModelConfig(
        base=model,
        num_experts=spec.num_experts,
        experts_per_token=spec.experts_per_token,
        expert_ffn_dim=expert_ffn,
    )


def _build_speculation(workload: WorkloadSpec) -> SpeculationConfig:
    return SpeculationConfig(
        speculation_length=workload.speculation_length,
        acceptance_rate=workload.acceptance_rate,
    )


def build_replicas(spec: ScenarioSpec) -> List[Replica]:
    """The fleet, replica ids assigned in group order.

    The core picks the replica class and its load accounting: the
    vectorized core's :class:`~repro.cluster.fleetstate.VectorReplica`
    keeps the incremental counters its fleet arrays mirror; the scalar
    oracle's plain :class:`~repro.cluster.replica.Replica` rescans its
    queues on every probe.

    Scalar-core replicas share one step-cost cache scoped by system
    *configuration* (``share_equal_systems``): a homogeneous fleet
    prices each distinct decoding step once for all replicas instead of
    once per replica. Cached results are pure functions of the
    configuration and the step key (which pins the FC placement), so
    outputs are unchanged. Vector replicas get none: each price group
    already shares price lines and a step memo over the same keys, in
    front of where the cache would sit, so the cache could only miss.
    """
    vectorized = spec.fleet.core_mode == "vectorized"
    cache = (
        StepCostCache(share_equal_systems=True)
        if spec.fleet.step_cache and not vectorized
        else None
    )
    if vectorized:
        replica_cls, load_accounting = VectorReplica, "incremental"
    else:
        replica_cls, load_accounting = Replica, "scan"
    prefix_spec = spec.fleet.prefix_cache
    replicas: List[Replica] = []
    for group in spec.fleet.replicas:
        workload = group.workload if group.workload is not None else spec.workload
        model = get_model(workload.model)
        moe = (
            build_moe_config(model, workload.moe)
            if workload.moe is not None
            else None
        )
        speculation = _build_speculation(workload)
        for _ in range(group.count):
            replicas.append(
                replica_cls(
                    replica_id=len(replicas),
                    system=build_system(group.system),
                    model=model,
                    max_batch_size=group.max_batch_size,
                    speculation=speculation,
                    tlp_policy=build_tlp_policy(workload.tlp_policy),
                    seed=spec.seed,
                    context_mode=workload.context_mode,
                    step_cache=cache,
                    moe=moe,
                    detail=spec.fleet.detail,
                    load_accounting=load_accounting,
                    role=group.role,
                    prefix_cache=(
                        # Decode-pool replicas never run a prompt pass,
                        # so a prefix cache there could never be read.
                        PrefixCache(prefix_spec.capacity_tokens)
                        if prefix_spec is not None and group.role != "decode"
                        else None
                    ),
                )
            )
    return replicas


def build_interconnect(spec: ScenarioSpec) -> Optional[Interconnect]:
    """The fleet's KV-transfer cost model, or ``None`` when colocated.

    Mirrors the validated :class:`~repro.scenario.spec.InterconnectSpec`
    field for field; spec validation guarantees it is present exactly
    when the fleet is disaggregated.
    """
    interconnect = spec.fleet.interconnect
    if interconnect is None:
        return None
    return Interconnect(
        kv_bytes_per_token=interconnect.kv_bytes_per_token,
        bandwidth_gb_s=interconnect.bandwidth_gb_s,
        hop_latency_s=interconnect.hop_latency_s,
    )


def _stamp_arrivals(
    requests: List[Request], traffic: TrafficSpec, seed: int
) -> List[Request]:
    """Stamp one tenant's opening requests per its arrival process."""
    arrival = traffic.arrival
    if arrival is None or arrival.kind == "poisson":
        return poisson_arrivals(
            requests, rate_per_s=traffic.rate_per_s, seed=seed
        )
    if arrival.kind == "bursty":
        return bursty_arrivals(
            requests,
            rate_per_s=traffic.rate_per_s,
            burst_size=arrival.burst_size,
            seed=seed,
        )
    return diurnal_arrivals(
        requests,
        rate_per_s=traffic.rate_per_s,
        period_s=arrival.period_s,
        peak_to_trough=arrival.peak_to_trough,
        seed=seed,
    )


def _attach_session_chains(
    openings: List[Request], session: SessionSpec, category: str, seed: int
) -> None:
    """Grow each opening request into a pre-drawn session turn chain.

    Every random draw a session needs — follow-up suffix lengths,
    output lengths, think times — is consumed here, from a dedicated
    per-tenant sub-stream, in a fixed order and a fixed amount
    (truncated sessions leave their tail draws unused rather than
    shifting later sessions' draws). The simulator only ever stamps
    *arrival times* at run time, so session traces are bit-identical
    across cores and shard counts.

    Turn ``k``'s prompt is turn ``k-1``'s final context (the reusable
    ``prefix_len``) plus a fresh suffix; a session ends early when the
    next prompt would exceed the category's context cap (``max_len``),
    mirroring the cap every sampled prompt respects.
    """
    followups = session.turns - 1
    if followups <= 0:
        return
    dataset = get_dataset(category)
    rng = np.random.default_rng((seed, _SESSION_STREAM))
    count = len(openings) * followups
    suffixes = sample_lognormal_lengths(
        rng,
        session.suffix_median,
        session.suffix_sigma,
        count,
        max_len=dataset.max_len,
    )
    outputs = dataset.sample_output_lengths(rng, count)
    thinks = rng.exponential(scale=session.think_time_s, size=count)
    for opening_index, opening in enumerate(openings):
        base = opening_index * followups
        node = opening
        context = opening.input_len + opening.output_len
        for turn in range(1, session.turns):
            draw = base + turn - 1
            input_len = context + int(suffixes[draw])
            if input_len > dataset.max_len:
                break  # context window exhausted; the session ends here
            turn_request = Request(
                request_id=-1,  # assigned when the turn is scheduled
                input_len=input_len,
                output_len=int(outputs[draw]),
                turn_index=turn,
                prefix_len=context,
                think_time_s=float(thinks[draw]),
            )
            node.followup = turn_request
            node = turn_request
            context = input_len + turn_request.output_len


def build_requests(spec: ScenarioSpec) -> List[Request]:
    """Per-tenant arrival streams, merged into one opening-turn trace.

    Tenant ``i`` draws request lengths and arrival gaps from
    ``spec.seed + i`` (independent streams; tenant 0 reproduces the
    single-tenant trace bit-for-bit). A tenant carrying a
    ``seed_offset`` draws from ``spec.seed + seed_offset`` instead, so a
    sub-spec holding a subset of another scenario's tenants (sharded
    execution) regenerates each tenant's original stream exactly.
    Requests are re-numbered to be unique across tenants, tagged with
    their tenant name, and — when the tenant carries an SLO budget —
    stamped with an absolute deadline.

    Session tenants return only their *opening* turns here (follow-up
    turns hang off ``Request.followup`` with lengths and think times
    pre-drawn, and are scheduled dynamically by the simulator when
    their predecessor finishes). Each session is keyed by its opening
    request's id; follow-ups inherit the tenant tag and carry the SLO
    budget as ``deadline_budget_s``, converted to an absolute deadline
    when their arrival time is stamped.
    """
    merged: List[Request] = []
    for index, tenant in enumerate(spec.tenants):
        traffic = tenant.traffic
        offset = (
            tenant.seed_offset if tenant.seed_offset is not None else index
        )
        stream = _stamp_arrivals(
            sample_requests(
                traffic.category, traffic.requests, seed=spec.seed + offset
            ),
            traffic,
            seed=spec.seed + offset,
        )
        session = traffic.session
        if session is not None and session.turns > 1:
            _attach_session_chains(
                stream, session, traffic.category, spec.seed + offset
            )
        budget = tenant.slo.p99_seconds
        for request in stream:
            request.request_id = len(merged)
            request.tenant = tenant.name
            if budget > 0:
                request.deadline_s = request.arrival_s + budget
            if request.followup is not None:
                request.session_id = request.request_id
                node = request.followup
                while node is not None:
                    node.session_id = request.request_id
                    node.tenant = tenant.name
                    node.deadline_budget_s = budget if budget > 0 else 0.0
                    node = node.followup
            merged.append(request)
    merged.sort(key=lambda r: (r.arrival_s, r.request_id))
    return merged


def build_routing(spec: ScenarioSpec) -> Router:
    """The scenario's routing policy."""
    return build_router(spec.routing.policy)


def build_admission(
    spec: ScenarioSpec, price_cache: Optional[PriceCache] = None
) -> Optional[SLOAdmissionController]:
    """The SLO admission controller, or ``None`` when every tenant is
    plain ``admit`` (the controller would be a no-op).

    Pass the scenario router's ``price_cache`` so controller and router
    share one admission-price memo instead of pricing every operating
    point twice.
    """
    policies = {
        tenant.name: TenantPolicy(
            action=tenant.slo.admission,
            defer_seconds=tenant.slo.defer_seconds,
            max_defers=tenant.slo.max_defers,
        )
        for tenant in spec.tenants
        if tenant.slo.admission != "admit"
    }
    if not policies:
        return None
    return SLOAdmissionController(policies, price_cache=price_cache)
