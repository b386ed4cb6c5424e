"""One serving replica: a system + model behind a continuous batch.

A replica owns a complete :class:`~repro.systems.base.ServingSystem`, an
admission queue, and the decoding state machine of the serving engine,
re-expressed as event-handler methods so a cluster simulator (or the
single-node :meth:`ServingEngine.run_trace`) can interleave many replicas
on one simulated clock:

* :meth:`enqueue` — a routed request joins the replica's waiting queue.
* :meth:`poke` — an idle replica admits waiting requests (charging
  prefill and queueing time) and schedules its next ``STEP_DONE``.
* :meth:`on_step_done` — one decoding iteration completes: accepted
  tokens are sampled, finished requests record their arrival-to-``<eos>``
  latency, the runtime monitor observes the output vector, freed slots
  are refilled, and the next iteration is scheduled.

Iteration pricing goes through the shared
:class:`~repro.serving.engine.StepPricer` (context-accounting modes and
the step-cost cache).

This is the only decoding state machine. :meth:`ServingEngine.run`
serves a static batch (every paper figure) by calling
:meth:`on_step_done` once per iteration, and so does every cluster run
but one kind: on a vectorized colocated sessionless fleet the event loop
prices a frozen run of iterations with :meth:`plan_run` and folds it
through :meth:`compress_run`. The scalar core, and with it
:meth:`ServingEngine.run_trace`, never macro-steps, so every
scalar-vs-vectorized equivalence test checks that refinement against the
per-iteration ground model.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.prefixcache import PrefixCache
from repro.core.scheduler import EOS_TOKEN
from repro.errors import ConfigurationError, SimulationError
from repro.models.config import ModelConfig
from repro.models.moe import MoEModelConfig, expected_active_experts
from repro.models.workload import workload_name
from repro.serving.engine import MAX_ITERATIONS, ServingEngine, StepPricer
from repro.serving.metrics import IterationRecord, RunSummary
from repro.serving.request import Request, RequestPhase, RequestState
from repro.serving.speculative import SpeculationConfig, SpeculativeSampler
from repro.serving.stepcache import StepCostCache
from repro.serving.tlp_policy import FixedTLP, TLPPolicy, TLPTrace
from repro.systems.base import IterationResult, ServingSystem

#: Pool roles a replica can serve in a disaggregated fleet. ``colocated``
#: replicas own a request end to end; ``prefill`` replicas finish at the
#: first output token and hand the request (with its KV cache) to a
#: ``decode`` replica, which admits it mid-life with pre-filled context.
REPLICA_ROLES = ("colocated", "prefill", "decode")

#: Iterations a macro-step must cover before the closed-form setup pays
#: for itself; shorter frozen runs fall back to per-iteration stepping.
MACRO_MIN_RUN = 2

#: Upper bound on iterations folded by one macro-step. Bounds the
#: temporary pricing/time arrays; a longer frozen run simply compresses
#: as several consecutive macro-steps.
MACRO_MAX_RUN = 16384

#: Runs at or below this length use plain int/float arithmetic instead
#: of the numpy pipeline: array allocation and ufunc dispatch cost more
#: than they save until runs reach tens of iterations, and short runs
#: dominate (a slot finishes every ~mean_output/batch iterations).
MACRO_SMALL_RUN = 64


class RunPlan:
    """A priced frozen run (see :meth:`Replica.plan_run`), committed
    whole or in part through :meth:`Replica.compress_run`.

    Attributes:
        start: Completion time of the run's first iteration (the one in
            flight when the run was planned).
        cap: Iterations the run covers: up to the first slot completion,
            the iteration cap or :data:`MACRO_MAX_RUN`, whichever comes
            first.
        times: ``cap + 1`` completion times: ``times[i]`` is iteration
            ``i + 1``'s, so ``times[0] == start`` and ``times[cap]`` is
            the in-flight iteration's after the whole run commits.
        per_iteration: Tokens the batch accepts per iteration (every
            slot's deterministic credit); each iteration moves the
            replica's remaining-token and active-context counters by it.
        rlp / tlp / steady / draft: The frozen batch shape, per-slot
            credit and draft overhead per iteration.
        first / starts / counts / results: The in-flight iteration's
            price, then each context segment's first price index, length
            and price (price index ``j`` prices iteration ``j + 2``).
    """

    __slots__ = (
        "start", "cap", "rlp", "tlp", "per_iteration", "steady", "draft",
        "first", "starts", "counts", "results", "times",
    )

    def __init__(
        self, start, cap, rlp, tlp, per_iteration, steady, draft, first,
        starts, counts, results, times,
    ) -> None:
        self.start = start
        self.cap = cap
        self.rlp = rlp
        self.tlp = tlp
        self.per_iteration = per_iteration
        self.steady = steady
        self.draft = draft
        self.first = first
        self.starts: List[int] = starts
        self.counts: List[int] = counts
        self.results: List[IterationResult] = results
        self.times: List[float] = times


class Replica:
    """Event-driven serving state machine for one system replica.

    Args:
        replica_id: Index within the cluster (also offsets the sampler
            seed so replicas draw independent acceptance streams).
        system: The platform this replica serves on.
        model: The model being served.
        max_batch_size: Continuous-batching slot count.
        speculation: Speculative-decoding configuration.
        tlp_policy: Optional dynamic speculation-length policy.
        seed: Base RNG seed (offset by ``replica_id``).
        check_capacity: Validate weight/KV capacity at each admission.
        context_mode: Context accounting mode (see ``ServingEngine``).
        context_bucket: Context quantization bucket.
        step_cache: Optional shared step-cost cache.
        moe: Optional sparse-expert configuration (must wrap ``model``).
            An MoE replica prices its FFN as the routed expert bank,
            checks capacity against all experts' weights, and reports
            expert-traffic statistics.
        detail: Metric retention (see
            :attr:`~repro.serving.metrics.RunSummary.detail`): ``"full"``
            keeps per-iteration records, ``"aggregate"`` streams them
            into running totals so million-request traces stay flat in
            memory.
        load_accounting: ``"incremental"`` (default) answers the router/
            admission load views from O(1) counters maintained across
            ``enqueue``/``_admit``/``advance``; ``"scan"`` recomputes the
            O(batch + queue) sums on every probe — the scalar reference
            core's accounting, which the equivalence suite pins the
            counters against. Both modes produce bit-identical values.
        role: Pool role (:data:`REPLICA_ROLES`). ``"colocated"`` is the
            full request lifecycle; ``"prefill"`` batches prompt passes
            only, emits each surviving request into :attr:`outbound` at
            first token, and never decodes; ``"decode"`` admits
            transferred requests (context already prefilled — no prompt
            pass is charged) and runs the decoding state machine.
        prefix_cache: Optional session prefix/KV cache. When present, a
            session turn admitted here reuses its resident prefix — only
            the fresh suffix is charged as prefill — and the turn's
            final context is made resident for the session's next turn.
            Decode-role replicas never run a prompt pass, so they take
            no cache.
    """

    def __init__(
        self,
        replica_id: int,
        system: ServingSystem,
        model: ModelConfig,
        max_batch_size: int,
        speculation: SpeculationConfig = SpeculationConfig(),
        tlp_policy: Optional[TLPPolicy] = None,
        seed: int = 0,
        check_capacity: bool = True,
        context_mode: str = "per-request",
        context_bucket: int = 1,
        step_cache: Optional[StepCostCache] = None,
        moe: Optional[MoEModelConfig] = None,
        detail: str = "full",
        load_accounting: str = "incremental",
        role: str = "colocated",
        prefix_cache: Optional[PrefixCache] = None,
    ) -> None:
        if max_batch_size <= 0:
            raise ConfigurationError("max_batch_size must be positive")
        if load_accounting not in ("incremental", "scan"):
            raise ConfigurationError(
                "load_accounting must be 'incremental' or 'scan', "
                f"got {load_accounting!r}"
            )
        if role not in REPLICA_ROLES:
            raise ConfigurationError(
                f"role must be one of {', '.join(REPLICA_ROLES)}, "
                f"got {role!r}"
            )
        self.role = role
        self.replica_id = replica_id
        self.system = system
        self.model = model
        self.moe = moe
        self.max_batch_size = max_batch_size
        self.speculation = speculation
        self.check_capacity = check_capacity
        self.seed = seed
        self.pricer = StepPricer(
            system=system,
            model=model,
            context_mode=context_mode,
            context_bucket=context_bucket,
            step_cache=step_cache,
            moe=moe,
        )
        self.sampler = SpeculativeSampler(speculation, seed=seed + replica_id)
        self.policy: TLPPolicy = (
            tlp_policy if tlp_policy is not None else FixedTLP(speculation.tlp)
        )
        self.tlp_trace = TLPTrace()
        self._workload_name = workload_name(model, moe)
        self.summary = RunSummary(
            system=system.name, model=self._workload_name, detail=detail
        )
        self.load_accounting = load_accounting
        if detail == "aggregate":
            # Aggregate detail already drops per-iteration records; drop
            # the scheduler's per-decision history for the same reason
            # (fleet-scale traces make tens of millions of decisions).
            # The reschedule counter and standing decision survive, so
            # every reported number is bit-identical.
            scheduler = getattr(system, "scheduler", None)
            if scheduler is not None:
                scheduler.keep_history = False

        self.waiting: Deque[Request] = deque()
        self.active: List[Request] = []
        self.busy = False
        self.requests_routed = 0
        self.requests_served = 0
        # Prefill-pool handoff: requests that survived their prompt pass
        # and await a KV transfer. The cluster loop drains this after
        # every event on a prefill replica and schedules the transfers.
        self.outbound: List[Request] = []
        self.requests_transferred = 0
        self.prefix_cache = prefix_cache
        # Session handoff: finished requests whose session has a next
        # turn. The cluster loop drains this after every event and
        # schedules the follow-up arrival at finish + think time.
        self.followups: List[Request] = []
        self._current_tlp = speculation.tlp
        self._iteration = 0
        self._accepted_fraction = 1.0
        self._pending: Optional[Tuple[IterationResult, int]] = None
        # Speculative-acceptance accounting (drafted vs accepted drafts).
        self._drafted_tokens = 0
        self._accepted_draft_tokens = 0
        # Expert-traffic accounting (MoE replicas only).
        self.expert_token_visits = 0
        self._active_expert_sum = 0.0
        # Incremental load counters (exact integers, so the O(1) load
        # views below are bit-identical to rescanning the queues).
        self._remaining_tokens = 0
        self._active_context_sum = 0
        self._waiting_context_sum = 0
        # Admission-probe constants: pure functions of the speculation
        # config, hoisted out of the per-arrival completion projection.
        self.draft_overhead_per_iteration_s = speculation.draft_overhead_s()
        self.expected_tokens_per_iteration = max(
            1.0, speculation.expected_tokens_per_iteration()
        )
        # Macro-stepping state (see :meth:`plan_run`): fallback/engage
        # counters for reporting, a static-ineligibility latch, and the
        # tokens every slot deterministically accepts per frozen iteration
        # (resolved lazily on the first attempt).
        self.step_macro: Dict[str, int] = {}
        self._macro_off = False
        self._macro_steady: Optional[int] = None
        # Pricing closures are loop-invariant per (rlp, tlp): the fc
        # target, cache scope, and memo object they capture are stable
        # for a replica's lifetime, so rebuilding them per macro-run
        # (closure construction + scope resolution) is pure overhead.
        self._macro_pricer_cache: Dict[Tuple[int, int], Any] = {}

    @property
    def workload_name(self) -> str:
        """Model name as served (see
        :func:`~repro.models.workload.workload_name`)."""
        return self._workload_name

    @property
    def acceptance_rate(self) -> float:
        """Observed fraction of drafted tokens accepted (1.0 before any
        speculation has run — matching the engine's prior)."""
        if self._drafted_tokens == 0:
            return 1.0
        return self._accepted_draft_tokens / self._drafted_tokens

    @property
    def mean_active_experts(self) -> float:
        """Mean distinct experts activated per iteration (0 when dense)."""
        if self.moe is None or self._iteration == 0:
            return 0.0
        return self._active_expert_sum / self._iteration

    # -- load view (used by routers) ------------------------------------

    def outstanding(self) -> int:
        """Requests routed here and not yet finished (queued + active)."""
        return len(self.waiting) + len(self.active)

    @property
    def current_tlp(self) -> int:
        """Speculation length the replica is currently decoding at."""
        return self._current_tlp

    def outstanding_remaining_tokens(self) -> int:
        """Output tokens still owed to every outstanding request.

        Active requests count what decoding hasn't produced yet; queued
        requests their full generation length. Admission control divides
        this by per-iteration throughput to project how long the
        replica's backlog takes to drain ahead of a new arrival.

        O(1) from the incremental counters by default; ``"scan"``
        accounting recomputes the sum (bit-identical — the counters are
        exact integer arithmetic over the same requests).
        """
        if self.load_accounting == "incremental":
            return self._remaining_tokens
        remaining = sum(r.output_len - r.generated for r in self.active)
        remaining += sum(r.output_len - r.generated for r in self.waiting)
        return remaining

    def outstanding_context_lens(self) -> List[int]:
        """KV context of every outstanding request (decoded + queued).

        Every request counts its current KV context (prompt plus tokens
        generated so far — queued requests at a decode replica arrive
        mid-life). Routers use this to project the mean context of the
        post-admission batch when pricing admission cost. Always a scan
        — probes that only need the post-admission batch shape should
        use :meth:`projected_admission_load` instead.
        """
        contexts = [r.input_len + r.generated for r in self.active]
        contexts.extend(r.input_len + r.generated for r in self.waiting)
        return contexts

    def projected_admission_load(self, input_len: int) -> Tuple[int, int]:
        """(RLP, mean context) of the batch if a request joined now.

        The O(1) core of the routers' admission-cost probe: the
        hypothetical post-admission batch is the active requests, then
        FIFO-queued ones, then the candidate (of prompt length
        ``input_len``), truncated to the replica's batch slots; the mean
        context is ``max(1, round(sum / rlp))`` over exactly that batch —
        bit-identical to scanning :meth:`outstanding_context_lens`,
        because the integer context sums are maintained incrementally.
        The truncated batch always keeps every active request (admission
        never evicts), so only a waiting-queue prefix ever needs walking,
        and only when more requests queued during an in-flight step than
        the batch has free slots.
        """
        active_count = len(self.active)
        waiting_count = len(self.waiting)
        rlp = min(active_count + waiting_count + 1, self.max_batch_size)
        slots = rlp - active_count  # waiting prefix + maybe the candidate
        if self.load_accounting != "incremental":
            contexts = self.outstanding_context_lens()
            contexts.append(input_len)
            contexts = contexts[:rlp]
            return rlp, max(1, round(sum(contexts) / len(contexts)))
        if slots <= 0:
            total = self._active_context_sum
        elif slots > waiting_count:
            total = self._active_context_sum + self._waiting_context_sum + input_len
        elif slots == waiting_count:
            total = self._active_context_sum + self._waiting_context_sum
        else:
            total = self._active_context_sum
            for request in self.waiting:
                if slots == 0:
                    break
                total += request.input_len + request.generated
                slots -= 1
        return rlp, max(1, round(total / rlp))

    @property
    def idle(self) -> bool:
        """True when no prefill/decode work is in flight."""
        return not self.busy

    def reschedule_count(self) -> int:
        """FC migrations the replica's scheduler performed so far."""
        scheduler = getattr(self.system, "scheduler", None)
        if scheduler is None:
            return 0
        return scheduler.reschedule_count

    # -- event handlers --------------------------------------------------

    def enqueue(self, request: Request) -> None:
        """Accept a routed request into the waiting queue.

        Requests transferred into a decode pool arrive mid-life
        (``generated > 0``), so the incremental counters track what is
        genuinely outstanding — remaining output and current KV context
        — which reduces to the full output/prompt lengths for the fresh
        arrivals colocated and prefill replicas see.
        """
        request.state = RequestState.QUEUED
        self.waiting.append(request)
        self.requests_routed += 1
        self._remaining_tokens += request.output_len - request.generated
        self._waiting_context_sum += request.input_len + request.generated

    def poke(self, now: float) -> Optional[float]:
        """Start serving if idle; returns the next ``STEP_DONE`` time.

        A prefill-role replica's "step" is the prompt pass itself: it
        admits a batch, charges the prefill, and its ``STEP_DONE`` fires
        when the whole batch reaches first token — no decoding iteration
        is ever scheduled.
        """
        if self.busy:
            return None
        duration = self._admit(now)
        if not self.active:
            return None
        if self.role != "prefill":
            duration += self._schedule_step()
        self.busy = True
        return now + duration

    def on_step_done(self, now: float) -> Optional[float]:
        """Complete the in-flight iteration; returns the next one's time."""
        if self.role == "prefill":
            return self._prefill_done(now)
        if self._pending is None:
            raise SimulationError(
                f"replica {self.replica_id}: STEP_DONE with no step in flight"
            )
        result, tlp = self._pending
        self._pending = None

        accepted_total = 0
        finished_context = 0
        outputs: List[int] = []
        still_active: List[Request] = []
        serial = tlp == 1  # no draft model => exactly one token accepted
        for request in self.active:
            accepted = 1 if serial else self.sampler.accepted_tokens(tlp)
            credited = request.advance(accepted, self._iteration)
            accepted_total += credited
            if request.is_finished:
                outputs.append(EOS_TOKEN)
                request.finish_s = now
                self.requests_served += 1
                finished_context += request.input_len + request.output_len
                self.summary.record_request_latency(
                    max(0.0, now - request.arrival_s)
                )
                if request.followup is not None:
                    self.followups.append(request)
            else:
                outputs.append(0)
                still_active.append(request)
        self._remaining_tokens -= accepted_total
        self._active_context_sum += accepted_total - finished_context
        rlp = len(self.active)
        self._accepted_fraction = ServingEngine._accepted_fraction(
            accepted_total, rlp, tlp
        )
        if tlp > 1:
            self._drafted_tokens += rlp * (tlp - 1)
            self._accepted_draft_tokens += max(0, accepted_total - rlp)
        if self.moe is not None:
            tokens = rlp * tlp
            self.expert_token_visits += tokens * self.moe.experts_per_token
            self._active_expert_sum += expected_active_experts(
                self.moe.num_experts, self.moe.experts_per_token, tokens
            )
        self.system.observe_outputs(outputs)
        if self.summary.detail == "full":
            self.summary.add_iteration(
                IterationRecord(
                    iteration=self._iteration,
                    result=result,
                    tokens_accepted=accepted_total,
                    rlp_before=len(self.active),
                    rlp_after=len(still_active),
                )
            )
        else:
            self.summary.fold_iteration(result, accepted_total)
        self._iteration += 1
        if self._iteration >= MAX_ITERATIONS:
            raise SimulationError("decoding did not converge (runaway loop)")
        self.active = still_active

        duration = self._admit(now)
        if not self.active:
            self.busy = False
            return None
        duration += self._schedule_step()
        return now + duration

    def plan_run(self, now: float) -> Optional[RunPlan]:
        """Price the frozen run whose first iteration completes at ``now``.

        A run is *frozen* when nothing is admittable, the TLP is fixed
        and every slot deterministically accepts the same tokens per
        iteration. Returns ``None`` when the batch is not (each decline
        counted in ``step_macro``); otherwise the run up to the first
        slot completion, the iteration cap or :data:`MACRO_MAX_RUN`,
        priced and timed. Mutates no simulation state; commit the plan,
        or a prefix of it, through :meth:`compress_run`.
        """
        if self._macro_off:
            return None
        pending = self._pending
        if pending is None:
            return None
        counters = self.step_macro
        steady = self._macro_steady
        if steady is None:
            reason = self._macro_eligibility()
            if reason is not None:
                # Statically ineligible: latch off so the per-iteration
                # burst loop pays one flag test, not a re-diagnosis.
                self._macro_off = True
                counters["fallback_" + reason] = 1
                return None
            steady = self._macro_steady = self.speculation.steady_slot_tokens(
                self.policy.tlp
            )
        active = self.active
        if self.waiting and len(active) < self.max_batch_size:
            counters["fallback_admittable"] = (
                counters.get("fallback_admittable", 0) + 1
            )
            return None
        result_first, tlp = pending
        if tlp != self.policy.tlp:
            counters["fallback_tlp_policy"] = (
                counters.get("fallback_tlp_policy", 0) + 1
            )
            return None
        # K's three limiting terms: first slot completion, the iteration
        # cap and the hard per-step bound.
        min_remaining = self._macro_min_remaining()
        finish_free = (min_remaining - 1) // steady
        if finish_free < MACRO_MIN_RUN:
            counters["fallback_finish_due"] = (
                counters.get("fallback_finish_due", 0) + 1
            )
            return None
        iteration_room = MAX_ITERATIONS - 1 - self._iteration
        if iteration_room < MACRO_MIN_RUN:
            counters["fallback_iteration_cap"] = (
                counters.get("fallback_iteration_cap", 0) + 1
            )
            return None
        cap = min(finish_free, iteration_room, MACRO_MAX_RUN)
        draft = self.speculation.draft_overhead_s(tlp)
        rlp = len(active)
        per_iteration = rlp * steady
        pricer_key = (rlp, tlp)
        price = self._macro_pricer_cache.get(pricer_key)
        if price is None:
            price = self._macro_pricer(rlp, tlp)
            self._macro_pricer_cache[pricer_key] = price

        # Price iterations 2..cap+1 (cap completion candidates plus the
        # run's outgoing in-flight step). The context total entering
        # iteration i is total_0 + (i-1) * per_iteration; its raw mean
        # and bucketized mean replicate price_mean_total's arithmetic
        # exactly (np.round is round-half-even, bitwise equal to the
        # builtin on these int-ratio inputs, so the short-run scalar
        # path below and the long-run vector path are interchangeable).
        total_0 = self._active_context_sum
        bucket = self.pricer.context_bucket
        if cap <= MACRO_SMALL_RUN:
            # Scalar path: typical runs are a handful of iterations
            # (completions recur every ~1/steady_output_fraction steps),
            # where the vector pipeline's array setup costs more than it
            # saves. Plain int/float arithmetic is the reference
            # computation itself.
            seg_starts: List[int] = []
            seg_counts: List[int] = []
            segment_results: List[IterationResult] = []
            times_list = [now]
            clock = now
            total = total_0
            previous_mean = -1
            step_duration = 0.0
            for index in range(cap):
                total += per_iteration
                raw_mean = round(total / rlp)
                if raw_mean < 1:
                    raw_mean = 1
                if bucket <= 1:
                    mean = raw_mean
                else:
                    mean = round(raw_mean / bucket) * bucket
                    if mean < bucket:
                        mean = bucket
                if mean != previous_mean:
                    previous_mean = mean
                    seg_starts.append(index)
                    seg_counts.append(1)
                    result = price(raw_mean)
                    segment_results.append(result)
                    step_duration = draft + result.seconds
                else:
                    seg_counts[-1] += 1
                clock = clock + step_duration
                times_list.append(clock)
        else:
            totals = (
                total_0
                + np.arange(1, cap + 1, dtype=np.int64) * per_iteration
            )
            raw_means = np.maximum(np.round(totals / rlp), 1.0).astype(
                np.int64
            )
            if bucket <= 1:
                bucket_means = raw_means
            else:
                bucket_means = np.maximum(
                    np.round(raw_means / bucket).astype(np.int64) * bucket,
                    bucket,
                )
            boundaries = (
                np.flatnonzero(bucket_means[1:] != bucket_means[:-1]) + 1
            )
            starts = np.concatenate(([0], boundaries))
            counts = np.diff(np.concatenate((starts, [cap])))
            segment_results = [price(int(raw_means[s])) for s in starts]

            # Completion times: tau_1 = now, tau_{i+1} = tau_i + (draft
            # + seconds_{i+1}) — the same one-add-per-iteration chain
            # the event loop performs, as one sequential accumulate.
            segment_durations = np.array(
                [draft + result.seconds for result in segment_results]
            )
            times = np.empty(cap + 1, dtype=np.float64)
            times[0] = now
            times[1:] = np.repeat(segment_durations, counts)
            np.add.accumulate(times, out=times)
            seg_starts = starts.tolist()
            seg_counts = counts.tolist()
            times_list = times.tolist()
        return RunPlan(
            now, cap, rlp, tlp, per_iteration, steady, draft, result_first,
            seg_starts, seg_counts, segment_results, times_list,
        )

    def compress_run(self, plan: RunPlan, run: int) -> Tuple[float, float]:
        """Commit the first ``run`` iterations of ``plan`` in closed form.

        ``plan`` is a run :meth:`plan_run` priced from this replica's
        current state, its first iteration in flight; ``1 <= run <=
        plan.cap``. The iterations' prices (one per context-bucket
        segment) and completion times (one sequential float chain,
        bit-identical to the per-iteration adds) come from the plan, and
        every counter the per-iteration path would have touched is
        folded at once: the replica ends as ``run`` :meth:`on_step_done`
        rounds would leave it.

        Returns ``(next_done_at, last_completed_at)``: the completion
        time of the newly scheduled (still in-flight) iteration and of
        the run's last *completed* iteration (the caller's makespan
        watermark).
        """
        # Commit: replicate every side effect of `run` on_step_done +
        # _schedule_step rounds. No request finishes, so the slot state
        # advances uniformly and the monitor sees finish-free batches.
        rlp = plan.rlp
        tlp = plan.tlp
        per_iteration = plan.per_iteration
        draft = plan.draft
        self._macro_advance_slots(plan.steady * run)
        self._remaining_tokens -= per_iteration * run
        self._active_context_sum += per_iteration * run
        self._accepted_fraction = 1.0
        if tlp > 1:
            drafted = rlp * (tlp - 1) * run
            self._drafted_tokens += drafted
            self._accepted_draft_tokens += drafted
        if self.moe is not None:
            tokens = rlp * tlp
            self.expert_token_visits += (
                tokens * self.moe.experts_per_token * run
            )
            expected = expected_active_experts(
                self.moe.num_experts, self.moe.experts_per_token, tokens
            )
            if run <= MACRO_SMALL_RUN:
                expert_sum = self._active_expert_sum
                for _ in range(run):
                    expert_sum += expected
                self._active_expert_sum = expert_sum
            else:
                chain = np.empty(run + 1, dtype=np.float64)
                chain[0] = self._active_expert_sum
                chain[1:] = expected
                np.add.accumulate(chain, out=chain)
                self._active_expert_sum = float(chain[-1])
        self.system.observe_steady(run, rlp)

        # Fold completed iterations 1..run: the in-flight result, then
        # the priced segments truncated to the run length.
        segment_results = plan.results
        fold_segments: List[Tuple[IterationResult, int]] = [(plan.first, 1)]
        needed = run - 1
        for index, count in enumerate(plan.counts):
            if needed <= 0:
                break
            take = count if count < needed else needed
            fold_segments.append((segment_results[index], take))
            needed -= take
        summary = self.summary
        if summary.detail == "full":
            records = summary.records
            iteration = self._iteration
            for result, count in fold_segments:
                for _ in range(count):
                    records.append(
                        IterationRecord(
                            iteration=iteration,
                            result=result,
                            tokens_accepted=per_iteration,
                            rlp_before=rlp,
                            rlp_after=rlp,
                        )
                    )
                    iteration += 1
        summary.fold_run_segments(fold_segments, per_iteration)
        if draft != 0.0:
            if run <= MACRO_SMALL_RUN:
                draft_total = summary.draft_seconds
                for _ in range(run):
                    draft_total += draft
                summary.draft_seconds = draft_total
            else:
                chain = np.empty(run + 1, dtype=np.float64)
                chain[0] = summary.draft_seconds
                chain[1:] = draft
                np.add.accumulate(chain, out=chain)
                summary.draft_seconds = float(chain[-1])
        self.tlp_trace.values.extend([tlp] * run)
        self._iteration += run
        # Iteration run+1 leaves in flight; its segment holds price index
        # run-1 (index j prices iteration j+2).
        segment_index = bisect_right(plan.starts, run - 1) - 1
        self._pending = (segment_results[segment_index], tlp)
        counters = self.step_macro
        counters["macro_steps"] = counters.get("macro_steps", 0) + 1
        counters["iterations_compressed"] = (
            counters.get("iterations_compressed", 0) + run
        )
        return plan.times[run], plan.times[run - 1]

    def _macro_eligibility(self) -> Optional[str]:
        """Why this replica can never macro-step, or ``None`` if it can.

        Static gates: closed-form pricing needs the rounded-mean context
        path; a frozen TLP needs exactly :class:`FixedTLP` (a subclass
        could vary its answer); and the per-slot acceptance must be
        deterministic *without consuming the sampler's RNG stream*
        (``tlp == 1``, or ``acceptance_rate >= 1.0`` — see
        :meth:`SpeculationConfig.steady_slot_tokens`), otherwise skipping
        the per-iteration draws would desynchronize later samples.
        """
        if self.pricer.context_mode != "mean":
            return "context_mode"
        if type(self.policy) is not FixedTLP:
            return "tlp_policy"
        if self.speculation.steady_slot_tokens(self.policy.tlp) is None:
            return "speculation_draws"
        return None

    def _macro_min_remaining(self) -> int:
        """Fewest output tokens any active request still owes."""
        return min(r.output_len - r.generated for r in self.active)

    def _macro_advance_slots(self, per_slot: int) -> None:
        """Advance every active slot by ``per_slot`` accepted tokens.

        Only called with ``per_slot`` strictly below every slot's
        remaining budget, so no request can finish and request state
        stays ``DECODING`` throughout — the closed form of ``run``
        consecutive ``Request.advance`` credits.
        """
        for request in self.active:
            request.generated += per_slot

    def _macro_pricer(self, rlp: int, tlp: int):
        """Mean-mode pricing callable for one frozen run (see
        :meth:`StepPricer.run_pricer`); slot-mirroring subclasses layer
        their per-replica memo on top."""
        return self.pricer.run_pricer(rlp, tlp)

    def _prefill_done(self, now: float) -> Optional[float]:
        """A prefill-role batch reached first token; hand off or finish.

        Every request in the batch emits exactly one token. Single-token
        requests finish here; the rest turn ``TRANSFERRING`` and join
        :attr:`outbound` for the cluster loop to ship to the decode
        pool. Either way the whole batch leaves this replica, so the
        incremental counters shed each request's remaining output and
        full KV context.
        """
        if not self.active:
            raise SimulationError(
                f"replica {self.replica_id}: STEP_DONE with no prefill "
                "batch in flight"
            )
        accepted_total = 0
        departed_remaining = 0
        departed_context = 0
        for request in self.active:
            request.first_token_s = now
            accepted_total += request.advance(1, self._iteration)
            if request.is_finished:
                request.finish_s = now
                self.requests_served += 1
                departed_context += request.input_len + request.output_len
                self.summary.record_request_latency(
                    max(0.0, now - request.arrival_s)
                )
                if request.followup is not None:
                    self.followups.append(request)
            else:
                request.phase = RequestPhase.TRANSFERRING
                self.outbound.append(request)
                self.requests_transferred += 1
                departed_remaining += request.output_len - request.generated
                departed_context += request.input_len + request.generated
        self._remaining_tokens -= accepted_total + departed_remaining
        self._active_context_sum += accepted_total - departed_context
        self.summary.tokens_generated += accepted_total
        self._iteration += 1
        if self._iteration >= MAX_ITERATIONS:
            raise SimulationError("prefill backlog did not converge")
        self.active = []
        self._clear_slots()
        duration = self._admit(now)
        if not self.active:
            self.busy = False
            return None
        return now + duration

    def _clear_slots(self) -> None:
        """Hook for slot-mirroring subclasses: a prefill-role batch
        departs wholesale, so any per-slot state resets with it."""

    def finalize(self, makespan_s: float) -> RunSummary:
        """Close out the run summary once the cluster trace has drained."""
        if (
            self.waiting
            or self.active
            or self.busy
            or self.outbound
            or self.followups
        ):
            raise SimulationError(
                f"replica {self.replica_id} finalized with work outstanding"
            )
        self.summary.reschedules = self.reschedule_count()
        self.summary.makespan_seconds = makespan_s
        return self.summary

    # -- internals -------------------------------------------------------

    def _admit(self, now: float) -> float:
        """Fill open batch slots; returns the prefill seconds charged.

        Role variants: a decode-role replica admits transferred
        requests whose context is already prefilled — it charges no
        prompt pass and counts queueing from the KV transfer's
        completion, not the cluster arrival. A prefill-role replica
        charges the prompt pass but never forms a decoding batch (its
        capacity bound is the first-token context, and the scheduler is
        never engaged).
        """
        fresh: List[Request] = []
        while self.waiting and (
            len(self.active) + len(fresh) < self.max_batch_size
        ):
            request = self.waiting.popleft()
            request.state = RequestState.PREFILLING
            self._waiting_context_sum -= request.input_len + request.generated
            self._active_context_sum += request.input_len + request.generated
            fresh.append(request)
        if not fresh:
            return 0.0
        if self.check_capacity:
            cohort = self.active + fresh
            if self.role == "prefill":
                max_seq = max(r.input_len + 1 for r in cohort)
            else:
                max_seq = max(r.input_len + r.output_len for r in cohort)
            self.system.check_capacity(
                self.model, len(cohort), max_seq, moe=self.moe
            )
        if self.role == "decode":
            self.summary.queueing_seconds += sum(
                max(0.0, now - r.transfer_done_s) for r in fresh
            )
            for request in fresh:
                request.state = RequestState.DECODING
            self.active.extend(fresh)
            self.system.begin_batch(len(self.active), self._current_tlp)
            return 0.0
        self.summary.queueing_seconds += sum(
            max(0.0, now - r.arrival_s) for r in fresh
        )
        if self.prefix_cache is not None:
            # The serving-path cache read: a resident prefix discounts
            # the prompt pass to the fresh suffix (KV capacity and
            # transfer still cover the full context — the cache spares
            # prompt *computation*, not memory). The turn's final
            # context becomes resident for the session's next turn;
            # turns are serial, so it is valid by the time that turn
            # can arrive. Non-session requests pass through untouched
            # (prefill_len == input_len), keeping independent traces
            # byte-identical.
            for request in fresh:
                if request.session_id is None:
                    continue
                if request.prefix_len > 0:
                    request.cached_prefix_len = self.prefix_cache.lookup(
                        request.session_id, request.prefix_len
                    )
                self.prefix_cache.insert(
                    request.session_id,
                    request.input_len + request.output_len,
                )
        mean_input = max(
            1, round(sum(r.prefill_len for r in fresh) / len(fresh))
        )
        result = self.system.execute_prefill(self.model, len(fresh), mean_input)
        self.summary.prefill_seconds += result.seconds
        self.summary.prefill_energy += result.energy_joules
        if self.role == "prefill":
            # The batch stays PREFILLING until `_prefill_done` emits the
            # first tokens; no decoding batch begins on this replica.
            self.active.extend(fresh)
            return result.seconds
        for request in fresh:
            request.state = RequestState.DECODING
        self.active.extend(fresh)
        self.system.begin_batch(len(self.active), self._current_tlp)
        return result.seconds

    def _schedule_step(self) -> float:
        """Price the next iteration; returns its duration (draft + step)."""
        rlp = len(self.active)
        tlp = self.policy.next_tlp(self._iteration, rlp, self._accepted_fraction)
        if tlp != self._current_tlp:
            self.system.update_tlp(tlp)
            self._current_tlp = tlp
        self.tlp_trace.record(tlp)
        if (
            self.load_accounting == "incremental"
            and self.pricer.context_mode == "mean"
        ):
            # The active-context counter is exactly the sum price() would
            # recompute; skip the O(batch) pass per iteration.
            result = self.pricer.price_mean_total(
                rlp, tlp, self._active_context_sum
            )
        else:
            result = self.pricer.price(self.active, tlp)
        draft = self.speculation.draft_overhead_s(tlp)
        self.summary.draft_seconds += draft
        self._pending = (result, tlp)
        return draft + result.seconds

    # -- standalone single-replica loop ----------------------------------

    def serve_trace(self, requests: Sequence[Request]) -> RunSummary:
        """Serve an arrival-stamped trace on this replica alone.

        The single-replica degenerate case of the cluster event loop;
        :meth:`ServingEngine.run_trace` delegates here. Runs the one
        shared event loop (``ClusterSimulator.run``) rather than keeping a
        private copy of the dispatch logic.
        """
        # Imported here: repro.cluster.cluster imports this module.
        from repro.cluster.cluster import ClusterSimulator
        from repro.cluster.router import RoundRobinRouter

        ClusterSimulator([self], RoundRobinRouter()).run(requests)
        return self.summary
