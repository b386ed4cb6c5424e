"""Macro-stepping: closed-form frozen-run compression, pinned exactly.

When a replica's batch is *frozen* — nothing admittable, fixed TLP,
deterministic per-slot speculation — the vectorized core on a colocated
sessionless fleet prices whole runs of decoding iterations
(:meth:`Replica.plan_run`) and commits them as one closed-form advance
(:meth:`Replica.compress_run`). The scalar core steps every iteration.
The contract is the same bit-identical one every core optimization
carries: a macro-stepped run must be indistinguishable, in every output
a study reads, from the per-iteration reference. This suite pins that
contract two ways:

* **Seeded fuzz** across routers x speculation (including the
  ``acceptance_rate=1.0`` boundary, where multi-token speculation
  becomes deterministic and macro-eligible) x sessions x disaggregated
  pools, all under ``context_mode="mean"`` so macro-stepping actually
  engages where it can — the macro-stepping vectorized core must agree
  bit-for-bit with the per-iteration scalar core.
* **Unit pins on K's limiting terms**: a planned run's length is
  ``min(iterations to the first slot completion, the global iteration
  cap, the per-step bound)`` — each limit and its fallback counter is
  exercised directly, and whole and partial commits are replayed
  against a per-iteration twin.
"""

import dataclasses
import itertools
import random

import numpy as np
import pytest

from repro.cluster.fleetstate import FleetState, VectorReplica
from repro.cluster.replica import (
    MACRO_MAX_RUN,
    MACRO_MIN_RUN,
    MACRO_SMALL_RUN,
    PriceLine,
    Replica,
)
from repro.errors import CapacityError, SimulationError
from repro.scenario.build import build_replicas, build_requests
from repro.scenario.run import apply_core_mode, run_scenario
from repro.scenario.spec import (
    FleetSpec,
    InterconnectSpec,
    MoESpec,
    ReplicaSpec,
    RoutingSpec,
    ScenarioSpec,
    SessionSpec,
    SLOSpec,
    TenantSpec,
    TrafficSpec,
    WorkloadSpec,
)
from repro.serving.engine import MAX_ITERATIONS
from repro.serving.metrics import RunSummary
from repro.serving.request import Request

from tests.test_cluster_equivalence import aggregate_fields
from tests.test_lazy_lanes import (
    _ground_and_lazy,
    _outputs,
    _pair,
    _rebucketed,
)


def _mean_mode_scenario(
    policy: str = "least-outstanding",
    speculation_length: int = 1,
    acceptance_rate: float = 0.8,
    sessions: bool = False,
    disaggregated: bool = False,
    requests: int = 40,
    seed: int = 11,
) -> ScenarioSpec:
    """A macro-eligible scenario: mean context, fixed TLP, frozen-prone.

    The offered rate sits above service capacity so batches freeze
    (waiting queues stay non-empty) and the post-arrival drain phase is
    long — the regime macro-stepping targets.
    """
    traffic = TrafficSpec(
        category="general-qa",
        requests=requests,
        rate_per_s=32.0,
        session=SessionSpec(turns=3, think_time_s=0.5) if sessions else None,
    )
    if disaggregated:
        fleet = FleetSpec(
            replicas=(
                ReplicaSpec(count=1, max_batch_size=8, role="prefill"),
                ReplicaSpec(count=2, max_batch_size=8, role="decode"),
            ),
            interconnect=InterconnectSpec(),
        )
    else:
        fleet = FleetSpec(
            replicas=(ReplicaSpec(count=2, max_batch_size=8),)
        )
    return ScenarioSpec(
        name="step-macro",
        seed=seed,
        workload=WorkloadSpec(
            speculation_length=speculation_length,
            acceptance_rate=acceptance_rate,
            context_mode="mean",
        ),
        tenants=(
            TenantSpec(name="interactive", traffic=traffic),
            TenantSpec(
                name="batch",
                traffic=TrafficSpec(
                    category="general-qa", requests=requests, rate_per_s=32.0
                ),
                slo=SLOSpec(p99_seconds=30.0),
            ),
        ),
        fleet=fleet,
        routing=RoutingSpec(policy=policy),
    )


def _run_both_cores(spec: ScenarioSpec):
    scalar = run_scenario(apply_core_mode(spec, "scalar"))
    vectorized = run_scenario(apply_core_mode(spec, "vectorized"))
    return scalar, vectorized


class TestMacroEngagement:
    def test_macro_steps_engage_and_match_on_mean_mode(self):
        """The canonical case: the vectorized core compresses frozen
        batches, the scalar core steps every iteration, outputs agree."""
        spec = _mean_mode_scenario()
        scalar, vectorized = _run_both_cores(spec)
        assert aggregate_fields(vectorized) == aggregate_fields(scalar)
        assert scalar.summary.step_macro == {}
        macro = vectorized.summary.step_macro
        assert macro.get("iterations_compressed", 0) > 0, macro
        assert macro.get("macro_steps", 0) > 0, macro

    def test_acceptance_one_boundary_is_macro_eligible(self):
        """acceptance_rate=1.0 makes tlp>1 deterministic: s tokens/slot,
        no RNG draw — macro-stepping must engage, and still bit-match."""
        spec = _mean_mode_scenario(
            speculation_length=4, acceptance_rate=1.0
        )
        scalar, vectorized = _run_both_cores(spec)
        assert aggregate_fields(vectorized) == aggregate_fields(scalar)
        macro = vectorized.summary.step_macro
        assert macro.get("iterations_compressed", 0) > 0, macro

    def test_partial_acceptance_speculation_latches_off(self):
        """acceptance in (0, 1) with tlp>1 draws per-slot randomness —
        the closed form cannot batch the draws, so the replica latches
        macro-stepping off (and the cores still agree)."""
        spec = _mean_mode_scenario(
            speculation_length=2, acceptance_rate=0.7
        )
        scalar, vectorized = _run_both_cores(spec)
        assert aggregate_fields(vectorized) == aggregate_fields(scalar)
        macro = vectorized.summary.step_macro
        assert macro.get("iterations_compressed", 0) == 0, macro
        assert macro.get("fallback_speculation_draws", 0) > 0, macro

    def test_per_request_context_latches_off(self):
        spec = dataclasses.replace(
            _mean_mode_scenario(),
            workload=WorkloadSpec(
                speculation_length=1, context_mode="per-request"
            ),
        )
        result = run_scenario(apply_core_mode(spec, "vectorized"))
        macro = result.summary.step_macro
        assert macro.get("iterations_compressed", 0) == 0, macro
        assert macro.get("fallback_context_mode", 0) > 0, macro

    def test_adaptive_tlp_policy_latches_off(self):
        spec = dataclasses.replace(
            _mean_mode_scenario(),
            workload=WorkloadSpec(
                speculation_length=2,
                context_mode="mean",
                tlp_policy="acceptance",
            ),
        )
        scalar, vectorized = _run_both_cores(spec)
        assert aggregate_fields(vectorized) == aggregate_fields(scalar)
        macro = vectorized.summary.step_macro
        assert macro.get("iterations_compressed", 0) == 0, macro
        assert macro.get("fallback_tlp_policy", 0) > 0, macro


class TestDrainHeavyFleet:
    """An overloaded fleet whose batches drain deep queues: few
    replicas at a small batch, every summary field bit-identical to the
    scalar core stepping every iteration, with runs carried past slot
    completions on the vectorized side."""

    @pytest.mark.parametrize("tlp", [1, 2])
    def test_drain_matches_scalar_core(self, tlp):
        spec = _pair(
            150.0,
            requests=300,
            replicas=3,
            batch=8,
            speculation_length=tlp,
            acceptance_rate=1.0,
        )
        ground, vectorized = _ground_and_lazy(spec)
        assert repr(_outputs(vectorized)) == repr(_outputs(ground))
        assert vectorized.step_macro.get("completion_runs", 0) > 0


FUZZ_ROUTERS = (
    "round-robin", "least-outstanding", "intensity", "min-cost", "slo-slack"
)
#: (speculation_length, acceptance_rate) pairs: serial decoding, the
#: deterministic acceptance boundary, and draw-bound speculation.
FUZZ_SPECULATION = ((1, 0.8), (4, 1.0), (2, 0.8), (3, 1.0))


class TestMacroFuzz:
    """Seeded sampling of routers x speculation x sessions x pools.

    Every case runs ``context_mode="mean"`` (the macro-eligible mode)
    through both cores and demands bit-identical outputs; the
    sampled axes cover deterministic speculation and every router on
    the colocated sessionless fleets the vectorized core macro-steps,
    and session follow-ups and disaggregated handoffs on the fleets
    where both cores step every iteration. (The fuzz test keeps its
    name from when a third, fleet-batched core sat between the two.)
    """

    @pytest.mark.parametrize("case_seed", range(8))
    def test_three_cores_agree(self, case_seed):
        rng = random.Random(7100 + case_seed)
        speculation_length, acceptance = rng.choice(FUZZ_SPECULATION)
        spec = _mean_mode_scenario(
            policy=rng.choice(FUZZ_ROUTERS),
            speculation_length=speculation_length,
            acceptance_rate=acceptance,
            sessions=rng.random() < 0.5,
            disaggregated=rng.random() < 0.4,
            requests=rng.randrange(24, 49),
            seed=rng.randrange(1, 10_000),
        )
        scalar, vectorized = _run_both_cores(spec)
        assert aggregate_fields(vectorized) == aggregate_fields(scalar)

    def test_fuzz_axes_actually_compress_somewhere(self):
        """The fuzz would be vacuous if no sampled case ever engaged the
        macro path; the deterministic-speculation serial case must."""
        spec = _mean_mode_scenario(policy="round-robin")
        result = run_scenario(apply_core_mode(spec, "vectorized"))
        assert result.summary.step_macro.get(
            "iterations_compressed", 0
        ) > 0


def _fresh_replica(
    spec: ScenarioSpec = None, active: int = 4, context_bucket: int = 1
) -> Replica:
    """One replica of ``spec`` with ``active`` requests decoding.

    The requests are enqueued directly (no router) and poked once, so
    the batch is mid-decode with one iteration in flight — exactly the
    state :meth:`plan_run` is called in. ``spec`` defaults to the
    vectorized core, so the replica is a ``VectorReplica``.
    """
    if spec is None:
        spec = _mean_mode_scenario()
    replica = build_replicas(spec)[0]
    if context_bucket != 1:
        replica = _rebucketed(replica, context_bucket)
    for request in build_requests(spec)[:active]:
        replica.enqueue(request)
    done_at = replica.poke(0.0)
    assert done_at is not None
    return replica


def _step_twin(twin: Replica, iterations: int):
    """Step ``twin`` ``iterations`` times from a completion at 1.0;
    returns (last completed time, next completion time)."""
    done_at = 1.0
    for _ in range(iterations):
        completed = done_at
        done_at = twin.on_step_done(done_at)
    return completed, done_at


def _assert_same_state(
    replica: Replica, twin: Replica, requests=None, twin_requests=None
) -> None:
    """``replica`` holds exactly ``twin``'s state. The slot mirrors are
    compared when both replicas keep them, and ``requests`` (every
    request either replica ever held, in one order) field by field when
    given."""
    assert replica._iteration == twin._iteration
    assert replica._remaining_tokens == twin._remaining_tokens
    assert replica._active_context_sum == twin._active_context_sum
    assert replica._waiting_context_sum == twin._waiting_context_sum
    assert replica._pending == twin._pending
    assert replica.busy == twin.busy
    assert [r.request_id for r in replica.active] == [
        r.request_id for r in twin.active
    ]
    assert [r.request_id for r in replica.waiting] == [
        r.request_id for r in twin.waiting
    ]
    for mirror in ("_slot_remaining", "_slot_context", "_slot_total"):
        if hasattr(replica, mirror) and hasattr(twin, mirror):
            assert getattr(replica, mirror) == getattr(twin, mirror), mirror
    if requests is not None:
        for request, twin_request in zip(requests, twin_requests, strict=True):
            assert (
                request.generated,
                request.state,
                request.finish_iteration,
                request.finish_s,
            ) == (
                twin_request.generated,
                twin_request.state,
                twin_request.finish_iteration,
                twin_request.finish_s,
            ), request.request_id
    assert replica.requests_served == twin.requests_served
    assert replica.tlp_trace.values == twin.tlp_trace.values
    assert replica._accepted_fraction == twin._accepted_fraction
    assert replica._drafted_tokens == twin._drafted_tokens
    assert replica._accepted_draft_tokens == twin._accepted_draft_tokens
    assert replica.expert_token_visits == twin.expert_token_visits
    assert replica._active_expert_sum == twin._active_expert_sum
    scheduler = getattr(replica.system, "scheduler", None)
    if scheduler is not None:
        twin_scheduler = twin.system.scheduler
        assert (
            scheduler.rlp,
            scheduler.current_target,
            scheduler.reschedule_count,
            scheduler.iteration,
            scheduler.tlp_register.writes,
        ) == (
            twin_scheduler.rlp,
            twin_scheduler.current_target,
            twin_scheduler.reschedule_count,
            twin_scheduler.iteration,
            twin_scheduler.tlp_register.writes,
        )
    summary, twin_summary = replica.summary, twin.summary
    assert summary.iterations == twin_summary.iterations
    assert summary.decode_seconds == twin_summary.decode_seconds
    assert summary.decode_energy == twin_summary.decode_energy
    assert summary.tokens_generated == twin_summary.tokens_generated
    assert summary.time_breakdown == twin_summary.time_breakdown
    assert summary.energy_breakdown == twin_summary.energy_breakdown
    assert dict(summary.fc_target_iterations) == dict(
        twin_summary.fc_target_iterations
    )
    assert summary.request_latencies == twin_summary.request_latencies
    assert summary.queueing_seconds == twin_summary.queueing_seconds
    assert summary.prefill_seconds == twin_summary.prefill_seconds
    assert summary.prefill_energy == twin_summary.prefill_energy
    assert summary.draft_seconds == twin_summary.draft_seconds
    if summary.detail == twin_summary.detail:
        assert summary.records == twin_summary.records


class TestLimitingTerms:
    """Each of K's limiting terms, driven directly on one replica."""

    def test_finish_due_limits_run_to_first_slot_completion(self):
        replica = _fresh_replica()
        min_remaining = min(
            r.output_len - r.generated for r in replica.active
        )
        plan = replica.plan_run(1.0, 1.0)
        macro = replica.step_macro
        if min_remaining - 1 >= MACRO_MIN_RUN:
            assert plan is not None
            # The run stops strictly before the earliest slot finishes:
            # exactly min_remaining - 1 iterations are compressed.
            assert plan.cap == min_remaining - 1
            next_done, watermark = replica.compress_run(plan, plan.cap)
            assert macro["iterations_compressed"] == min_remaining - 1
            assert watermark > 1.0
            assert next_done > watermark
        else:
            assert plan is None
            assert macro["fallback_finish_due"] == 1

    def test_partial_commit_matches_per_iteration_twin(self):
        """Committing only the first iterations of a plan — what a lazy
        lane's cut does — leaves the replica where as many
        per-iteration rounds would."""
        replica = _fresh_replica()
        twin = _fresh_replica()
        plan = replica.plan_run(1.0, 1.0)
        assert plan is not None and plan.cap > 4
        next_done, watermark = replica.compress_run(plan, 4)
        assert replica.step_macro["iterations_compressed"] == 4
        assert (watermark, next_done) == _step_twin(twin, 4)
        assert (watermark, next_done) == (plan.times[3], plan.times[4])
        _assert_same_state(replica, twin)

    @pytest.mark.parametrize("bucket", [1, 32])
    def test_every_prefix_commit_matches_per_iteration_twin(self, bucket):
        """Every commit length ``1..plan.cap`` leaves the replica where
        as many per-iteration rounds would. A coarse context bucket
        makes segments span several iterations, so prefixes also end
        inside a segment and the in-flight price is taken mid-segment."""
        twin = _fresh_replica(context_bucket=bucket)
        plan = _fresh_replica(context_bucket=bucket).plan_run(1.0, 1.0)
        assert plan is not None
        # The sweep crosses the crossover: short commits fold per
        # iteration, long ones fold the plan's gathered block.
        assert MACRO_SMALL_RUN < plan.cap
        if bucket > 1:
            seconds = [result.seconds for result in plan.results]
            assert any(a == b for a, b in zip(seconds, seconds[1:]))
        done_at = 1.0
        for run in range(1, plan.cap + 1):
            completed = done_at
            done_at = twin.on_step_done(done_at)
            replica = _fresh_replica(context_bucket=bucket)
            committed = replica.compress_run(replica.plan_run(1.0, 1.0), run)
            assert committed == (done_at, completed)
            assert replica.step_macro["iterations_compressed"] == run
            _assert_same_state(replica, twin)

    def test_out_of_range_commit_raises_before_any_state_change(self):
        replica = _fresh_replica()
        twin = _fresh_replica()
        plan = replica.plan_run(1.0, 1.0)
        assert plan is not None
        for run in (0, plan.cap + 1):
            with pytest.raises(SimulationError, match="cannot commit"):
                replica.compress_run(plan, run)
        _assert_same_state(replica, twin)
        assert replica._slot_remaining == twin._slot_remaining
        assert replica.tlp_trace.values == twin.tlp_trace.values
        assert replica.step_macro == twin.step_macro == {}

    def test_iteration_cap_falls_back(self):
        replica = _fresh_replica()
        replica._iteration = MAX_ITERATIONS - 1
        assert replica.plan_run(1.0, 1.0) is None
        assert replica.step_macro["fallback_iteration_cap"] == 1

    def test_admittable_waiting_request_falls_back(self):
        """A waiting request with batch room unfreezes the batch."""
        spec = _mean_mode_scenario()
        replica = build_replicas(spec)[0]
        requests = build_requests(spec)
        for request in requests[:2]:
            replica.enqueue(request)
        done_at = replica.poke(0.0)
        assert done_at is not None
        # Queue one more than poke admitted; batch (size 8) has room.
        replica.waiting.append(requests[2])
        assert replica.plan_run(done_at, done_at) is None
        assert replica.step_macro["fallback_admittable"] == 1

    def test_macro_run_matches_per_iteration_twin(self):
        """The pinned equivalence, one replica at a time: a macro-step
        must leave the replica in the bit-identical state the same
        number of on_step_done rounds would."""
        replica = _fresh_replica()
        twin = _fresh_replica()
        plan = replica.plan_run(1.0, 1.0)
        assert plan is not None
        next_done, watermark = replica.compress_run(plan, plan.cap)
        run = int(replica.step_macro["iterations_compressed"])
        assert run == plan.cap >= MACRO_MIN_RUN
        assert (watermark, next_done) == _step_twin(twin, run)
        _assert_same_state(replica, twin)

    def test_macro_max_run_bounds_one_step(self):
        assert MACRO_MAX_RUN >= MACRO_MIN_RUN
        replica = _fresh_replica()
        plan = replica.plan_run(1.0, 1.0)
        if plan is not None:
            assert plan.cap <= MACRO_MAX_RUN


#: (input_len, output_len) of the four slots of each replica of a pair.
#: At rlp 4 and TLP 1 the raw mean context grows by one per iteration:
#: the first replica's run prices means 40..69, the second's 60..99, so
#: the second reads rows the first priced and runs past the line's end.
_PAIR_SLOTS = ((40, 30), (60, 40))


def _replica_pair(core: str, bucket: int = 1):
    """Both replicas of the default macro scenario on ``core``, each
    decoding four requests shaped by :data:`_PAIR_SLOTS`, one iteration
    in flight. On the vectorized core they are one price group of a
    :class:`FleetState`, sharing one set of price lines."""
    replicas = build_replicas(apply_core_mode(_mean_mode_scenario(), core))
    if bucket != 1:
        replicas = [_rebucketed(replica, bucket) for replica in replicas]
    if core == "vectorized":
        FleetState(replicas)
        assert replicas[0]._price_lines is replicas[1]._price_lines
    ids = itertools.count()
    for replica, (input_len, output_len) in zip(replicas, _PAIR_SLOTS):
        for _ in range(4):
            replica.enqueue(
                Request(
                    request_id=next(ids),
                    input_len=input_len,
                    output_len=output_len,
                )
            )
        assert replica.poke(0.0) is not None
    return replicas


def _one_line(replica: Replica) -> PriceLine:
    (line,) = replica._price_lines.values()
    return line


class TestGatheredRuns:
    """Runs longer than :data:`MACRO_SMALL_RUN` gather their prices from
    a price line shared by the replica's price group; every commit must
    still equal the per-iteration ground model (the scalar core's
    ``Replica``, which prices every step from scratch)."""

    @pytest.mark.parametrize("bucket", [1, 32])
    @pytest.mark.parametrize("index", [0, 1])
    def test_shared_line_prefix_commits_match_per_iteration_twin(
        self, index, bucket
    ):
        twin = _replica_pair("scalar", bucket)[index]
        done_at = 1.0
        for run in itertools.count(1):
            pair = _replica_pair("vectorized", bucket)
            plans = [replica.plan_run(1.0, 1.0) for replica in pair]
            plan = plans[index]
            assert plan.rows is not None
            if run > plan.cap:
                break
            completed = done_at
            done_at = twin.on_step_done(done_at)
            committed = pair[index].compress_run(plan, run)
            assert committed == (done_at, completed)
            _assert_same_state(pair[index], twin)
        assert run - 1 == _PAIR_SLOTS[index][1] - 1

    def test_second_replica_reads_first_rows_and_grows_the_line(self):
        first, second = _replica_pair("vectorized")
        line = _one_line(first)
        first_plan = first.plan_run(1.0, 1.0)
        size = len(line.results)
        (key,) = second._price_lines
        price = second.pricer.run_pricer(4, 1)
        priced = []

        def counting(raw_mean):
            priced.append(raw_mean)
            return price(raw_mean)

        second._run_pricers[key] = counting
        plan = second.plan_run(1.0, 1.0)
        # Means 60..69 come off the first replica's rows; only the means
        # past its run are priced, and they grow the line past its end.
        assert priced == list(range(70, 100))
        assert 100 > size and len(line.results) >= 100
        for offset, result in enumerate(plan.results[:10]):
            assert result is first_plan.results[20 + offset]
        assert np.array_equal(plan.rows[:10], first_plan.rows[20:])

    def test_schedule_step_returns_the_lines_result(self):
        replica = _replica_pair("vectorized")[0]
        plan = replica.plan_run(1.0, 1.0)
        assert plan.rows is not None
        done_at, _ = replica.compress_run(plan, 5)
        replica.on_step_done(done_at)
        assert replica._pending[0] is plan.results[6]
        assert replica._pending[0] is _one_line(replica).results[46]

    def test_cold_line_prices_once_per_bucket_segment(self):
        """At a coarse bucket consecutive means share one priced context:
        a gathered run on a cold line prices each segment once, as the
        per-segment scalar path does."""
        replica = _fresh_replica(context_bucket=32)
        price = replica.pricer.run_pricer(4, 1)
        priced = []

        def counting(raw_mean):
            priced.append(raw_mean)
            return price(raw_mean)

        means = np.arange(100, 190)
        results, _ = PriceLine().gather(
            means, counting, replica.pricer._bucketize
        )
        contexts = [replica.pricer._bucketize(mean) for mean in priced]
        assert contexts == sorted(set(contexts)) == [96, 128, 160, 192]
        for mean, result in zip(means.tolist(), results):
            assert result == price(mean)

    def test_line_growth_keeps_results_and_rows(self):
        price = _fresh_replica().pricer.run_pricer(4, 1)
        line = PriceLine()
        means = np.arange(100, 140)
        results, rows = line.gather(means, price, lambda mean: mean)
        line.lookup(4 * len(line.results), price)
        assert np.array_equal(line.rows[means], rows)

        def unpriced(raw_mean):
            raise AssertionError(f"raw mean {raw_mean} priced twice")

        again, again_rows = line.gather(means, unpriced, lambda mean: mean)
        assert all(a is b for a, b in zip(again, results))
        assert np.array_equal(again_rows, rows)


def _completion_replica(slots, queue=(), spec=None, bucket=1, alpha=None):
    """A vector replica decoding ``slots`` (input, output lengths), with
    ``queue`` waiting behind them (arriving 0.1 s apart) and one
    iteration in flight; returns it and every request it was given.
    ``alpha`` moves PAPI's FC threshold."""
    if spec is None:
        spec = _mean_mode_scenario()
    replica = build_replicas(spec)[0]
    if bucket != 1:
        replica = _rebucketed(replica, bucket)
    if alpha is not None:
        replica.system.alpha = replica.system.scheduler.alpha = alpha
    requests = [
        Request(
            request_id=index,
            input_len=input_len,
            output_len=output_len,
            arrival_s=0.1 * max(0, index - len(slots) + 1),
        )
        for index, (input_len, output_len) in enumerate(slots + queue)
    ]
    for request in requests:
        replica.enqueue(request)
    assert replica.poke(0.0) is not None
    assert len(replica.active) == len(slots)
    return replica, requests


def _assert_prefixes_match_twin(make, horizon=None):
    """Plan the completion run ``make()``'s replica starts at 1.0, then
    check every prefix commit ``1..plan.cap`` (each on a fresh replica)
    against as many ``on_step_done`` rounds of an identical twin.
    Returns the plan and the twin after ``plan.cap`` rounds."""
    replica, _ = make()
    plan = replica.plan_run(1.0, horizon)
    assert plan is not None and plan.completions is not None
    assert replica.step_macro["completion_runs"] == 1
    twin, twin_requests = make()
    done_at = 1.0
    for run in range(1, plan.cap + 1):
        completed = done_at
        done_at = twin.on_step_done(done_at)
        replica, requests = make()
        committed = replica.compress_run(replica.plan_run(1.0, horizon), run)
        assert committed == (done_at, completed), run
        assert replica.step_macro["iterations_compressed"] == run
        _assert_same_state(replica, twin, requests, twin_requests)
    return plan, twin


#: Eight decoding slots of mixed lengths and a deeper queue of refills.
_SLOTS = tuple((40 + 7 * i, 3 + (5 * i) % 9) for i in range(8))
_QUEUE = tuple((30 + 11 * i, 2 + (3 * i) % 7) for i in range(16))


class TestCompletionRuns:
    """Runs carried past slot completions (``plan_run`` with a horizon
    past the first completion), pinned commit by commit against the
    per-iteration twin."""

    def test_full_batch_over_a_deep_queue(self):
        plan, twin = _assert_prefixes_match_twin(
            lambda: _completion_replica(_SLOTS, _QUEUE)
        )
        schedule = plan.completions
        # Every queued request was admitted, the queue ran dry and the
        # batch shrank to nothing.
        assert schedule.stops[-1] == len(_SLOTS) + len(_QUEUE)
        assert schedule.drained and plan.results[plan.cap] is None
        assert max(schedule.sizes) == 8 and schedule.sizes[-1] == 0
        assert twin.requests_served == len(_SLOTS) + len(_QUEUE)

    def test_empty_queue_drains_the_batch(self):
        plan, twin = _assert_prefixes_match_twin(
            lambda: _completion_replica(_SLOTS[:4])
        )
        assert plan.completions.drained
        replica, _ = _completion_replica(_SLOTS[:4])
        plan_again = replica.plan_run(1.0, None)
        done_at, _ = replica.compress_run(plan_again, plan.cap)
        assert done_at is None
        assert replica._pending is None and not replica.busy
        assert not replica.active and replica._slot_remaining == []
        assert replica.summary.request_latencies == (
            twin.summary.request_latencies
        )

    def test_two_slots_finish_in_one_iteration(self):
        slots = tuple(
            (40 + 5 * i, output)
            for i, output in enumerate((6, 4, 4, 9, 7, 5, 7, 8))
        )
        plan, _ = _assert_prefixes_match_twin(
            lambda: _completion_replica(slots, ((20, 3), (25, 5)))
        )
        assert [1, 2] in plan.completions.finished
        # A refilled slot finishes beside two of the first batch.
        assert [4, 6, 8] in plan.completions.finished

    def test_reschedules_when_the_batch_crosses_alpha(self):
        """With alpha between the full and the drained batch size, PAPI
        moves FC from the PUs to FC-PIM inside the run, and the run
        prices the stretches after it on the other line."""
        plan, twin = _assert_prefixes_match_twin(
            lambda: _completion_replica(_SLOTS, _QUEUE[:4], alpha=5.5)
        )
        assert twin.system.scheduler.reschedule_count >= 1
        targets = {result.fc_target for result in plan.results[:-1]}
        assert len(targets) == 2

    def test_deterministic_speculation_credits_finishing_slots_partly(self):
        spec = _mean_mode_scenario(speculation_length=2, acceptance_rate=1.0)
        slots = tuple(
            (40 + 5 * i, output)
            for i, output in enumerate((7, 6, 9, 4, 11, 5, 3, 8))
        )
        plan, twin = _assert_prefixes_match_twin(
            lambda: _completion_replica(slots, ((30, 5), (35, 3)), spec=spec)
        )
        assert plan.steady == 2 and plan.draft > 0.0
        assert any(plan.completions.deficits)
        assert twin._accepted_draft_tokens < twin._drafted_tokens

    def test_capacity_failure_stops_the_run_before_the_refill(self):
        """A refill whose capacity check fails ends the run just before
        its completion; stepping that completion raises, as it does on
        the twin."""
        queue = ((30, 4), (35, 3), (60_000, 5))
        make = lambda: _completion_replica(_SLOTS, queue)  # noqa: E731
        plan, twin = _assert_prefixes_match_twin(make)
        assert plan.completions.stops[-1] == len(_SLOTS) + 2
        with pytest.raises(CapacityError):
            twin.on_step_done(plan.times[plan.cap])
        replica, _ = make()
        plan_again = replica.plan_run(1.0, None)
        done_at, _ = replica.compress_run(plan_again, plan.cap)
        with pytest.raises(CapacityError):
            replica.on_step_done(done_at)

    def test_coarse_context_bucket(self):
        _assert_prefixes_match_twin(
            lambda: _completion_replica(_SLOTS, _QUEUE, bucket=32)
        )

    def test_moe_replica(self):
        spec = _mean_mode_scenario()
        spec = dataclasses.replace(
            spec, workload=dataclasses.replace(spec.workload, moe=MoESpec())
        )
        _, twin = _assert_prefixes_match_twin(
            lambda: _completion_replica(_SLOTS, _QUEUE[:6], spec=spec)
        )
        assert twin.expert_token_visits > 0

    def test_long_stretches_fold_gathered_rows(self):
        """Slots long enough for stretches past ``MACRO_SMALL_RUN`` mix
        gathered segments with looked-up ones."""
        slots = tuple((40 + 9 * i, 25 + 6 * i) for i in range(4))
        plan, _ = _assert_prefixes_match_twin(
            lambda: _completion_replica(slots)
        )
        rows = [rows for _, _, rows in plan.completions.segments]
        assert any(block is not None for block in rows)
        assert any(block is None for block in rows)

    def test_horizon_cuts_the_run_at_its_first_completion_past_it(self):
        replica, _ = _completion_replica(_SLOTS, _QUEUE)
        whole = replica.plan_run(1.0, None)
        horizon = whole.times[whole.completions.completions[3]]
        plan, _ = _assert_prefixes_match_twin(
            lambda: _completion_replica(_SLOTS, _QUEUE), horizon
        )
        assert plan.times[plan.cap - 1] < horizon <= plan.times[plan.cap]
        assert plan.results[: plan.cap + 1] == whole.results[: plan.cap + 1]
        assert not plan.completions.drained

    def test_finish_due_past_the_horizon_prices_nothing(self, monkeypatch):
        """A slot finishes within MACRO_MIN_RUN iterations and the
        in-flight iteration completes at the horizon: no completion run
        and no price lookup."""
        replica, _ = _completion_replica(((40, 2),) + _SLOTS[1:], ((30, 4),))

        def unpriced(*args):
            raise AssertionError("priced a declined run")

        monkeypatch.setattr(replica, "_price_line", unpriced)
        monkeypatch.setattr(replica, "_schedule_completions", unpriced)
        assert replica.plan_run(1.0, 1.0) is None
        assert replica.plan_run(1.0, 0.5) is None
        assert replica.step_macro == {"fallback_finish_due": 2}

    def test_frozen_run_that_passes_the_horizon_stays_frozen(self):
        """A frozen run whose first completion is at or past the horizon
        is the lazy-lane plan of before: no completion carried."""
        replica, _ = _completion_replica(_SLOTS[:4], ())
        frozen = replica.plan_run(1.0, 1.0)
        assert frozen.completions is None
        horizon = frozen.times[frozen.cap]
        assert replica.plan_run(1.0, horizon).completions is None
        carried = replica.plan_run(1.0, horizon + 1e-9)
        assert carried.completions is not None
        assert carried.cap > frozen.cap

    def test_every_commit_folds_through_fold_run_segments(self, monkeypatch):
        folded = []
        direct = []
        segments_of = RunSummary.fold_run_segments
        iteration_of = RunSummary.fold_iteration
        depth = [0]

        def fold_run_segments(self, segments, tokens, rows=None):
            folded.append(sum(count for _, count in segments))
            depth[0] += 1
            try:
                return segments_of(self, segments, tokens, rows)
            finally:
                depth[0] -= 1

        def fold_iteration(self, result, tokens):
            if depth[0] == 0:
                direct.append(result)
            return iteration_of(self, result, tokens)

        monkeypatch.setattr(RunSummary, "fold_run_segments", fold_run_segments)
        monkeypatch.setattr(RunSummary, "fold_iteration", fold_iteration)
        replica, _ = _completion_replica(_SLOTS, _QUEUE)
        plan = replica.plan_run(1.0, None)
        replica.compress_run(plan, plan.cap)
        assert sum(folded) == plan.cap
        assert direct == []
        assert "compress_run" not in vars(VectorReplica)


class TestStalePlans:
    """A plan commits only on the replica that priced it, before that
    replica has moved."""

    def test_plan_committed_after_its_replica_stepped_raises(self):
        replica, requests = _completion_replica(_SLOTS, _QUEUE)
        twin, twin_requests = _completion_replica(_SLOTS, _QUEUE)
        plan = replica.plan_run(1.0, 1.0)
        assert plan is not None and plan.completions is None
        done_at = replica.on_step_done(1.0)
        twin.on_step_done(1.0)
        for run in (1, plan.cap):
            with pytest.raises(SimulationError, match="stale plan"):
                replica.compress_run(plan, run)
        _assert_same_state(replica, twin, requests, twin_requests)
        assert replica.step_macro == twin.step_macro
        assert done_at is not None

    def test_plan_committed_on_another_replica_raises(self):
        replica, _ = _completion_replica(_SLOTS, _QUEUE)
        other, requests = _completion_replica(_SLOTS, _QUEUE)
        twin, twin_requests = _completion_replica(_SLOTS, _QUEUE)
        plan = replica.plan_run(1.0, None)
        assert plan.completions is not None
        with pytest.raises(SimulationError, match="stale plan"):
            other.compress_run(plan, 1)
        _assert_same_state(other, twin, requests, twin_requests)
