"""Fleet-version probe memoization: the memoized-admission contract.

The vectorized core's verdict memos all hang off one invariant: the
fleet version bumps on every router-visible state change
(``mark_dirty``) and on nothing else, so any verdict memoized at a
version is safely reusable while that version holds still. This suite
pins the invariant directly (version bumps, memo hits/misses across
invalidation, batch-row bit-identity) and end to end: a deferral-storm
scenario — offered load far above capacity, bounded defer/retry — run
through both cores with bit-identical outputs, and a floor on the memo
hit rate.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster.fleetstate import FleetState
from repro.errors import ConfigurationError
from repro.scenario.build import build_replicas, build_requests
from repro.scenario.run import CORE_CHOICES, apply_core_mode, run_scenario
from repro.scenario.spec import (
    FleetSpec,
    ReplicaSpec,
    RoutingSpec,
    ScenarioSpec,
    SLOSpec,
    TenantSpec,
    TrafficSpec,
    WorkloadSpec,
)


def _storm_scenario(requests: int = 400) -> ScenarioSpec:
    """Offered load far above two replicas' capacity: a deferral storm.

    The interactive tenant's tight deadline plus bounded defer/retry
    keeps rejected/deferred arrivals hammering the admission probe while
    the fleet state holds still — the regime the fleet-version verdict
    memo exists for.
    """
    return ScenarioSpec(
        name="memo-storm",
        seed=23,
        workload=WorkloadSpec(speculation_length=1, context_mode="mean"),
        fleet=FleetSpec(replicas=(ReplicaSpec(count=2, max_batch_size=8),)),
        tenants=(
            TenantSpec(
                name="interactive",
                traffic=TrafficSpec(
                    category="general-qa",
                    requests=requests,
                    rate_per_s=200.0,
                ),
                slo=SLOSpec(
                    p99_seconds=6.0,
                    admission="defer",
                    defer_seconds=0.05,
                    max_defers=4,
                ),
            ),
            TenantSpec(
                name="batch",
                traffic=TrafficSpec(
                    category="general-qa",
                    requests=requests,
                    rate_per_s=200.0,
                ),
            ),
        ),
        routing=RoutingSpec(policy="slo-slack"),
    )


def _comparable(result) -> dict:
    """Everything a study reads, minus instrumentation counters."""
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
            )
            for report in summary.replicas
        ],
        "tenants": {
            name: dataclasses.asdict(report)
            for name, report in summary.tenants.items()
        },
    }


class TestDeferralStormEquivalence:
    def test_three_cores_bit_identical_under_storm(self):
        spec = _storm_scenario()
        results = {
            core: run_scenario(apply_core_mode(spec, core))
            for core in CORE_CHOICES
        }
        assert _comparable(results["vectorized"]) == _comparable(
            results["scalar"]
        )
        # The storm must actually have stormed (deferrals happened).
        interactive = results["scalar"].summary.tenants["interactive"]
        assert interactive.deferrals > 0

    def test_memo_hit_rate_floor_under_storm(self):
        summary = run_scenario(
            apply_core_mode(_storm_scenario(), "vectorized")
        ).summary
        memo = summary.probe_memo
        total = memo["probe_hits"] + memo["probe_misses"]
        assert total > 0
        # Back-to-back storm probes against a frozen fleet version must
        # overwhelmingly answer from the memo. The measured rate on this
        # trace is ~0.9; 0.5 is the contract's floor (the bench pins the
        # same bar at the million-request scale).
        assert memo["hit_rate"] > 0.5
        assert memo["version_bumps"] > 0


def _fleet_and_requests(count: int = 8):
    spec = apply_core_mode(_storm_scenario(), "vectorized")
    replicas = build_replicas(spec)
    fleet = FleetState(replicas)
    return fleet, build_requests(spec)[:count]


class TestFleetVersion:
    def test_mark_dirty_bumps_version_exactly_once(self):
        fleet, _ = _fleet_and_requests()
        version = fleet.version
        fleet.mark_dirty(0)
        assert fleet.version == version + 1
        fleet.mark_dirty(1)
        assert fleet.version == version + 2
        # Re-marking the same replica within a segment still bumps: the
        # version counts state changes, not distinct dirty lanes.
        fleet.mark_dirty(1)
        assert fleet.version == version + 3

    def test_probes_never_bump_version(self):
        fleet, requests = _fleet_and_requests()
        version = fleet.version
        for request in requests:
            fleet.probe_min_completion(request)
            fleet.route_min_cost(request)
            fleet.route_slo_slack(request, now=request.arrival_s)
        assert fleet.version == version

    def test_query_counters_across_invalidation(self):
        fleet, requests = _fleet_and_requests(count=1)
        request = requests[0]
        assert (fleet.probe_hits, fleet.probe_misses) == (0, 0)
        fleet.probe_min_completion(request)
        assert (fleet.probe_hits, fleet.probe_misses) == (0, 1)
        fleet.probe_min_completion(request)
        assert (fleet.probe_hits, fleet.probe_misses) == (1, 1)
        fleet.mark_dirty(0)  # invalidates every version-keyed memo
        fleet.probe_min_completion(request)
        assert (fleet.probe_hits, fleet.probe_misses) == (1, 2)
        fleet.probe_min_completion(request)
        assert (fleet.probe_hits, fleet.probe_misses) == (2, 2)

    def test_batch_rows_bit_identical_to_scalar_probe(self):
        fleet, requests = _fleet_and_requests(count=30)
        # Saturate both replicas (full batch + backlog) first: with free
        # slots every lane's projection depends on the candidate's input
        # length (the probe-sensitive set) and the batch correctly
        # declines; a saturated fleet is the storm regime it serves.
        cursor = 0
        for index, replica in enumerate(fleet._replicas):
            for _ in range(replica.max_batch_size + 4):
                replica.enqueue(requests[cursor])
                cursor += 1
            replica.poke(0.0)
            fleet.mark_dirty(index)
        members = requests[cursor:]
        mins = fleet.probe_min_batch(members)
        assert mins is not None
        for row, request in zip(mins.tolist(), members):
            assert row == fleet.probe_min_completion(request)

    def test_batch_declines_idle_fleet(self):
        fleet, requests = _fleet_and_requests(count=4)
        # Free slots everywhere: projections are input-sensitive, so the
        # one-pass batch must refuse rather than misprice.
        assert fleet.probe_min_batch(requests) is None

    def test_batch_declines_heterogeneous_fleet(self):
        spec = apply_core_mode(_storm_scenario(), "vectorized")
        spec = dataclasses.replace(
            spec,
            fleet=dataclasses.replace(
                spec.fleet,
                replicas=(
                    ReplicaSpec(count=1, max_batch_size=8),
                    ReplicaSpec(
                        count=1, max_batch_size=4, system="a100-attacc"
                    ),
                ),
            ),
        )
        fleet = FleetState(build_replicas(spec))
        assert len(fleet._groups) == 2
        requests = build_requests(spec)[:4]
        # Both lanes are idle, so their projections are input-sensitive.
        assert fleet.probe_min_batch(requests) is None


class TestPriceGroupGrowth:
    def test_context_overflow_grows_only_the_context_axis(self):
        """A context overflow must not multiply the rlp and tlp extents
        (the dense table's memory) along with it, nor lose a price."""
        fleet, _ = _fleet_and_requests()
        group = fleet._groups[0]
        group.ensure(8, 2, 4)
        group.table[1, 8, 2, 4] = 0.125
        group.table[0, 3, 1, 0] = 0.5
        _, rlp_size, tlp_size, ctx_size = group.table.shape
        group.ensure(0, 0, 4 * ctx_size + 7)
        grown = group.table.shape
        assert grown[1:3] == (rlp_size, tlp_size)
        assert grown[3] == 4 * ctx_size + 8
        assert group.table[1, 8, 2, 4] == 0.125
        assert group.table[0, 3, 1, 0] == 0.5
        assert np.isnan(group.table[1, 8, 2, 4 * ctx_size + 7])
        # An in-range request leaves the table untouched.
        table = group.table
        group.ensure(rlp_size - 1, tlp_size - 1, grown[3] - 1)
        assert group.table is table


class TestApplyCoreMode:
    def test_presets(self):
        assert CORE_CHOICES == ("scalar", "vectorized")
        spec = _storm_scenario()
        scalar = apply_core_mode(spec, "scalar")
        assert scalar.fleet.detail == "full"
        assert scalar.fleet.core_mode == "scalar"
        assert {r.load_accounting for r in build_replicas(scalar)} == {
            "scan"
        }
        vectorized = apply_core_mode(spec, "vectorized")
        assert vectorized.fleet.detail == "aggregate"
        assert vectorized.fleet.core_mode == "vectorized"
        assert {r.load_accounting for r in build_replicas(vectorized)} == {
            "incremental"
        }

    def test_rejects_unknown_core(self):
        with pytest.raises(ConfigurationError, match="core must be one of"):
            apply_core_mode(_storm_scenario(), "warp")
