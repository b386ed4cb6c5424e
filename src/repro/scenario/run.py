"""The scenario entry points: ``run_scenario`` and ``run_scenarios``.

``run_scenario(spec)`` validates the spec, builds fleet / traffic /
router / admission through the scenario builders, runs the cluster
simulator once, and returns the result with per-tenant SLO reports
attached — the one door every experiment surface (CLI flags, scenario
files, library code) goes through. ``run_scenarios([spec, ...],
workers=N)`` fans a batch of independent scenarios across the sweep
engine's process-parallel workers — the way to sweep a design question
(routing policies, fleet sizes, admission budgets) across many
full-cluster runs on every core.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from repro.cluster.cluster import (
    ClusterSimulator,
    ClusterSummary,
    PoolReport,
    TenantReport,
    VectorizedClusterSimulator,
)
from repro.errors import ConfigurationError
from repro.scenario.build import (
    build_admission,
    build_interconnect,
    build_replicas,
    build_requests,
    build_routing,
)
from repro.scenario.spec import CORE_MODES, ScenarioSpec


#: Core presets ``apply_core_mode`` accepts: the spec's core modes.
CORE_CHOICES = CORE_MODES

#: Metric retention each preset pins: the scalar oracle keeps full
#: per-iteration records; the vectorized core streams aggregates.
_CORE_DETAIL = {"scalar": "full", "vectorized": "aggregate"}


def apply_core_mode(spec: ScenarioSpec, core: str) -> ScenarioSpec:
    """Pin a scenario to one of the two equivalence-contract cores.

    Both produce bit-identical summaries (the equivalence suite pins
    them); the choice trades introspection detail for speed: ``scalar``
    runs the reference core with full per-iteration records,
    ``vectorized`` the array-backed core with streamed aggregates.

    Raises:
        ConfigurationError: When ``core`` is not one of
            :data:`CORE_CHOICES`.
    """
    detail = _CORE_DETAIL.get(core)
    if detail is None:
        raise ConfigurationError(
            f"core must be one of {', '.join(CORE_CHOICES)}, got {core!r}"
        )
    return dataclasses.replace(
        spec,
        fleet=dataclasses.replace(spec.fleet, detail=detail, core_mode=core),
    )


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario run: the spec that produced it plus the cluster summary.

    Attributes:
        spec: The validated scenario.
        summary: The cluster run's aggregate / per-replica / per-tenant
            results.
    """

    spec: ScenarioSpec
    summary: ClusterSummary

    @property
    def tenants(self) -> Dict[str, TenantReport]:
        """Per-tenant reports, keyed by tenant name."""
        return self.summary.tenants

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able result: scenario, aggregate, replicas, tenants.

        The session-workload keys (``prefix_cache``, ``sessions``) are
        emitted only when the run actually carried sessions / prefix
        caches — independent-request results stay byte-identical to
        what they were before sessions existed.
        """
        summary = self.summary
        extras: Dict[str, Any] = {}
        if summary.prefix_cache:
            extras["prefix_cache"] = dict(summary.prefix_cache)
        if summary.sessions:
            extras["sessions"] = dict(summary.sessions)
        if summary.step_macro:
            extras["step_macro"] = dict(summary.step_macro)
        return {
            "scenario": self.spec.to_dict(),
            "aggregate": {
                "router": summary.router,
                "model": summary.model,
                "makespan_seconds": summary.makespan_seconds,
                "total_requests": summary.total_requests,
                "tokens_generated": summary.tokens_generated,
                "tokens_per_second": summary.tokens_per_second,
                "p50_latency_s": summary.latency_percentile(50),
                "p99_latency_s": summary.latency_percentile(99),
                "mean_latency_s": summary.mean_latency,
                "total_reschedules": summary.total_reschedules,
                "router_cache": dict(summary.router_cache),
                "probe_memo": dict(summary.probe_memo),
                "ttft": dict(summary.ttft),
                "transfer_wait": dict(summary.transfer_wait),
                **extras,
            },
            "replicas": [
                {
                    "replica_id": report.replica_id,
                    "system": report.system,
                    "model": report.model,
                    "role": report.role,
                    "requests_served": report.requests_served,
                    "requests_transferred": report.requests_transferred,
                    "tokens_generated": report.tokens_generated,
                    "iterations": report.iterations,
                    "reschedules": report.reschedules,
                    "utilization": report.utilization,
                    "acceptance_rate": report.acceptance_rate,
                    "expert_token_visits": report.expert_token_visits,
                    "mean_active_experts": report.mean_active_experts,
                }
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
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"


def run_scenario(spec: ScenarioSpec, shards: int = 1) -> ScenarioResult:
    """Validate and run one scenario end to end.

    ``shards > 1`` splits the scenario's *tenants* round-robin into up to
    ``shards`` sub-scenarios and runs them on the sweep engine's process
    pool, one worker per shard. Tenant streams are independent by
    construction (tenant ``i`` draws from ``spec.seed + i``), and each
    sub-spec pins its tenants' :attr:`~repro.scenario.spec.TenantSpec.
    seed_offset` to the tenant's index in the *original* spec — so every
    tenant's request trace (lengths, arrivals, deadlines) is bit-for-bit
    the trace the single-process run generates, for any shard count.
    Shard summaries merge deterministically: makespan is the maximum,
    counts are summed, per-replica and per-tenant reports keep their
    original order.

    Fidelity note: each shard serves its tenant group on its *own copy*
    of the fleet, so sharded runs model no cross-shard queueing
    contention — use them for throughput at trace scale (independent
    tenant populations), and ``shards=1`` when tenants must share one
    fleet's capacity. ``shards=1`` (the default) is always the exact
    single-process simulation.

    Raises:
        ConfigurationError: Naming the offending field path when the spec
            is invalid, or when ``shards`` is not positive.
    """
    spec.validate()
    if shards < 1:
        raise ConfigurationError("shards must be positive")
    if shards > 1 and len(spec.tenants) > 1:
        return _run_sharded(spec, shards)
    router = build_routing(spec)
    simulator_cls = (
        VectorizedClusterSimulator
        if spec.fleet.core_mode == "vectorized"
        else ClusterSimulator
    )
    simulator = simulator_cls(
        build_replicas(spec),
        router,
        admission=build_admission(spec, price_cache=router.price_cache),
        interconnect=build_interconnect(spec),
    )
    summary = simulator.run(build_requests(spec))
    return ScenarioResult(spec=spec, summary=summary)


def _shard_specs(spec: ScenarioSpec, shards: int) -> List[ScenarioSpec]:
    """Round-robin the tenants onto up to ``shards`` sub-scenarios.

    Tenant ``i`` lands on shard ``i % shards`` with its ``seed_offset``
    pinned to ``i`` (unless the spec already pinned one), so the shard
    regenerates the tenant's exact single-process stream wherever it
    runs. Shards that receive no tenants are dropped.
    """
    groups: List[List] = [[] for _ in range(shards)]
    for index, tenant in enumerate(spec.tenants):
        offset = tenant.seed_offset if tenant.seed_offset is not None else index
        groups[index % shards].append(
            dataclasses.replace(tenant, seed_offset=offset)
        )
    return [
        dataclasses.replace(
            spec,
            name=f"{spec.name}#shard{shard}",
            tenants=tuple(group),
        )
        for shard, group in enumerate(groups)
        if group
    ]


def _merge_counter_stats(
    counter_dicts: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Sum the shards' instrumentation counters; recompute the rate.

    Handles both counter layouts the cluster reports: the admission
    price cache (``hits``/``misses``) and the vectorized core's
    fleet-version verdict memo (``probe_hits``/``probe_misses``) — any
    ``hit_rate`` key is dropped from the sum and recomputed from the
    merged totals. Pure counter dicts with no hit/miss shape (e.g. the
    macro-stepping counters) merge as plain sums — no rate is invented
    for them.
    """
    merged: Dict[str, Any] = {}
    saw_rate = False
    for counters in counter_dicts:
        for key, value in counters.items():
            if key == "hit_rate":
                saw_rate = True
                continue
            merged[key] = merged.get(key, 0) + value
    if merged and (
        saw_rate
        or "hits" in merged
        or "misses" in merged
        or "probe_hits" in merged
        or "probe_misses" in merged
    ):
        hits = merged.get("hits", merged.get("probe_hits", 0))
        misses = merged.get("misses", merged.get("probe_misses", 0))
        total = hits + misses
        merged["hit_rate"] = hits / total if total else 0.0
    return merged


def _merge_pool_reports(
    summaries: Sequence[ClusterSummary],
) -> Dict[str, PoolReport]:
    """Fold the shards' per-pool rollups, order-independently.

    Every shard serves its tenants on its own fleet copy, so the merged
    pool spans ``shards x pool size`` replicas; counts are summed (exact
    integers), float accumulators use ``math.fsum`` (correctly rounded,
    hence permutation-invariant), and utilization is recomputed against
    the merged capacity — shard order can never change a digit.
    """
    merged: Dict[str, PoolReport] = {}
    makespan = max(s.makespan_seconds for s in summaries)
    for role in ("prefill", "decode"):
        members = [s.pools[role] for s in summaries if role in s.pools]
        if not members:
            continue
        replicas = sum(p.replicas for p in members)
        busy = math.fsum(p.busy_seconds for p in members)
        capacity = replicas * makespan
        merged[role] = PoolReport(
            role=role,
            replicas=replicas,
            requests_served=sum(p.requests_served for p in members),
            requests_transferred=sum(
                p.requests_transferred for p in members
            ),
            tokens_generated=sum(p.tokens_generated for p in members),
            busy_seconds=busy,
            utilization=min(1.0, busy / capacity) if capacity > 0 else 0.0,
            queueing_seconds=math.fsum(
                p.queueing_seconds for p in members
            ),
        )
    return merged


def _merge_sample_stats(
    stats_dicts: Sequence[Dict[str, float]],
) -> Dict[str, float]:
    """Fold the shards' TTFT / transfer-wait stats, order-independently.

    Sample counts sum exactly; the mean is the sample-weighted mean via
    ``math.fsum`` (permutation-invariant); the percentiles take the
    maximum over shards — a deterministic conservative bound, since the
    per-request samples themselves are not retained across the process
    pool.
    """
    members = [stats for stats in stats_dicts if stats]
    if not members:
        return {}
    samples = math.fsum(stats["samples"] for stats in members)
    mean = (
        math.fsum(stats["mean_s"] * stats["samples"] for stats in members)
        / samples
        if samples
        else 0.0
    )
    return {
        "mean_s": mean,
        "p50_s": max(stats["p50_s"] for stats in members),
        "p99_s": max(stats["p99_s"] for stats in members),
        "samples": samples,
    }


def _merge_session_stats(
    session_dicts: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Fold the shards' session rollups, order-independently.

    Counts are exact integer sums (as floats, matching the per-shard
    shape); the nested follow-up latency folds through
    :func:`_merge_sample_stats`.
    """
    members = [stats for stats in session_dicts if stats]
    if not members:
        return {}
    merged: Dict[str, Any] = {
        key: float(sum(stats[key] for stats in members))
        for key in (
            "sessions",
            "turns_submitted",
            "turns_served",
            "cached_prefix_tokens",
        )
    }
    merged["followup_latency"] = _merge_sample_stats(
        [stats["followup_latency"] for stats in members]
    )
    return merged


def _run_sharded(spec: ScenarioSpec, shards: int) -> ScenarioResult:
    """Run the spec's tenants across a process pool; merge the shards."""
    shard_specs = _shard_specs(spec, shards)
    results = run_scenarios(shard_specs, workers=len(shard_specs))
    summaries = [result.summary for result in results]
    replicas: List = []
    for summary in summaries:
        for report in summary.replicas:
            replicas.append(
                dataclasses.replace(report, replica_id=len(replicas))
            )
    tenants: Dict[str, TenantReport] = {}
    for tenant in spec.tenants:
        for summary in summaries:
            report = summary.tenants.get(tenant.name)
            if report is not None:
                tenants[tenant.name] = report
                break
    merged = ClusterSummary(
        router=summaries[0].router,
        model=summaries[0].model,
        makespan_seconds=max(s.makespan_seconds for s in summaries),
        total_requests=sum(s.total_requests for s in summaries),
        replicas=replicas,
        router_cache=_merge_counter_stats(
            [summary.router_cache for summary in summaries]
        ),
        probe_memo=_merge_counter_stats(
            [summary.probe_memo for summary in summaries]
        ),
        tenants=tenants,
        pools=_merge_pool_reports(summaries),
        ttft=_merge_sample_stats([s.ttft for s in summaries]),
        transfer_wait=_merge_sample_stats(
            [s.transfer_wait for s in summaries]
        ),
        prefix_cache=_merge_counter_stats(
            [s.prefix_cache for s in summaries]
        ),
        sessions=_merge_session_stats([s.sessions for s in summaries]),
        step_macro=_merge_counter_stats(
            [s.step_macro for s in summaries]
        ),
    )
    return ScenarioResult(spec=spec, summary=merged)


def _run_scenario_point(point: Dict[str, Any]) -> ScenarioResult:
    """Measure one scenario grid point (module-level: picklable)."""
    return run_scenario(point["scenario"])


def run_scenarios(
    specs: Sequence[ScenarioSpec], workers: int = 0
) -> List[ScenarioResult]:
    """Run a batch of scenarios, optionally across worker processes.

    Each scenario is an independent simulation, so the batch rides
    :class:`~repro.analysis.sweep.SweepRunner`'s process-parallel
    machinery (one ``scenario`` axis, one full cluster run per point):
    ``workers > 1`` fans the specs out to a process pool; ``0``/``1``
    runs them inline. Results come back in spec order either way, and
    each one is exactly what :func:`run_scenario` returns for that spec
    — worker parallelism changes wall-clock, never outputs. Prefer
    ``fleet.detail = "aggregate"`` specs for wide batches: full
    per-iteration records inflate both memory and the result pickling
    cost on the way back from the pool.

    Raises:
        ConfigurationError: Naming the offending spec (by list index and
            field path) when any spec is invalid — all specs are
            validated before any simulation starts.
    """
    from repro.analysis.sweep import SweepRunner, SweepSpec
    from repro.errors import ConfigurationError

    if not specs:
        raise ConfigurationError("run_scenarios needs at least one scenario")
    for index, spec in enumerate(specs):
        try:
            spec.validate()
        except ConfigurationError as exc:
            raise ConfigurationError(f"scenarios[{index}]: {exc}") from None
    runner = SweepRunner(
        SweepSpec.of(scenario=tuple(specs)),
        measure=_run_scenario_point,
        workers=workers,
    )
    return runner.run()
