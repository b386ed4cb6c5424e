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
prices a run of iterations with :meth:`plan_run`, frozen or carried past
slot completions, and folds it through :meth:`compress_run`. The scalar
core, and with it
:meth:`ServingEngine.run_trace`, never macro-steps, so every
scalar-vs-vectorized equivalence test checks that refinement against the
per-iteration ground model.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import repeat
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.prefixcache import PrefixCache
from repro.core.placement import PlacementTarget
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

#: Runs at or below this length are priced, timed and folded with plain
#: int/float arithmetic, one iteration at a time; longer runs gather
#: their prices from a :class:`PriceLine` as one block and time and fold
#: it with one ``np.add.accumulate`` each. Set from a micro-benchmark of
#: plan plus commit: on warm lines the two cost the same at this length
#: and the gathered block less beyond it; on cold lines both pay the
#: same per priced mean, and the block's fixed cost is paid once per run.
MACRO_SMALL_RUN = 16


def _add_in_turn(total: float, values: np.ndarray) -> float:
    """``total`` after ``total += value`` for each of ``values`` in turn.

    A plain loop for a run of at most :data:`MACRO_SMALL_RUN` values,
    otherwise one sequential ``np.add.accumulate``: the same additions
    in the same order, so the same rounding.
    """
    if len(values) <= MACRO_SMALL_RUN:
        for value in values.tolist():
            total += value
        return total
    chain = np.empty(len(values) + 1, dtype=np.float64)
    chain[0] = total
    chain[1:] = values
    np.add.accumulate(chain, out=chain)
    return float(chain[-1])


class PriceLine:
    """Mean-mode step prices of one ``(FC target code, rlp, tlp)``,
    indexed by raw mean context.

    A mean-mode step's price is a pure function of its planned FC
    target, rlp, tlp and bucketed mean context on one system
    configuration and workload, so a line is a dense, never-evicted
    cache of them: slot ``m`` holds the :class:`IterationResult` of raw
    mean context ``m`` (``None`` until priced) and, once a run has
    gathered it, its fold row ``[seconds, energy_joules,
    *time_breakdown values, *energy_breakdown values]`` (``NaN`` until
    then). Every result of a line shares its FC target and breakdown
    keys, so all of its rows share one layout. The line grows
    geometrically to cover the largest mean asked for, keeping what it
    holds.
    """

    __slots__ = ("results", "rows")

    def __init__(self) -> None:
        self.results = np.empty(0, dtype=object)
        self.rows: Optional[np.ndarray] = None

    def lookup(self, raw_mean: int, price) -> IterationResult:
        """The result at ``raw_mean``, priced by ``price(raw_mean)`` and
        kept when unseen."""
        results = self.results
        if raw_mean < len(results):
            result = results[raw_mean]
            if result is not None:
                return result
        else:
            self._grow(raw_mean)
        result = self.results[raw_mean] = price(raw_mean)
        return result

    def gather(
        self, raw_means: np.ndarray, price, bucketize
    ) -> Tuple[List[IterationResult], np.ndarray]:
        """Results (a list) and fold rows of ``raw_means``.

        One fancy index each; only means without a row are visited one
        by one, in ascending order, and only unseen ones are priced (by
        ``price``), once per run of them that ``bucketize`` maps to one
        priced context.
        """
        top = int(raw_means.max())
        if top >= len(self.results):
            self._grow(top)
        rows = self.rows
        if rows is not None:
            block = rows[raw_means]
            unset = np.isnan(block[:, 0])
            if not unset.any():
                return self.results[raw_means].tolist(), block
            missing = np.unique(raw_means[unset]).tolist()
        else:
            missing = np.unique(raw_means).tolist()
        results = self.results
        values = []
        priced_context = None
        for mean in missing:
            result = results[mean]
            if result is None:
                context = bucketize(mean)
                if context != priced_context:
                    priced_context = context
                    priced = price(mean)
                result = results[mean] = priced
            values.append(
                (result.seconds, result.energy_joules)
                + tuple(result.time_breakdown.values())
                + tuple(result.energy_breakdown.values())
            )
        if rows is None:
            rows = self.rows = np.full(
                (len(results), len(values[0])), np.nan, dtype=np.float64
            )
        rows[missing] = values
        return results[raw_means].tolist(), rows[raw_means]

    def _grow(self, top: int) -> None:
        size = len(self.results)
        grown = max(2 * size, top + 1)
        results = np.empty(grown, dtype=object)
        results[:size] = self.results
        self.results = results
        if self.rows is not None:
            rows = np.full((grown, self.rows.shape[1]), np.nan)
            rows[:size] = self.rows
            self.rows = rows


class CompletionSchedule:
    """The slot side of a run carried past slot completions.

    A replica's :meth:`Replica._schedule_completions` hook builds it from
    its batch and its waiting queue, and :meth:`Replica.plan_run` adds
    the run's per-iteration arrays. Slot ``k`` is the ``k``-th request
    the run decodes: the active requests in batch order, then each refill
    in FIFO order. That is also the order a per-iteration loop keeps its
    batch in: compaction keeps the survivors' order and refills append.

    Attributes:
        requests / starts / remaining / contexts / totals / finishes: Per
            slot: the request; the completion after which it joined the
            batch (0 for the batch the run starts with); the tokens it
            owed and its KV context then; its prompt plus output length;
            and the completion at which it finishes (past ``cap`` when
            the run ends first).
        completions: Each completion at which slots finish, as its
            1-based index within the run, ascending (entries past
            ``cap``, left when a horizon cut the run, are never
            committed). The lists below hold one entry per such
            completion.
        finished: The slots finishing there, ascending.
        stops: The slot count after its refill: the refill is slots
            ``stops[e - 1]`` (the starting batch size for the first)
            through ``stops[e] - 1``.
        prefills: The refill's prefill price (``None`` without a refill).
        sizes: The batch size after the refill.
        deficits: Tokens the finishing slots fall short of ``steady``
            (a finishing slot is credited only what it still owes).
        corrections: How far the active-context total moves beyond the
            accepted tokens: the refills' contexts minus the finished
            slots' totals.
        cap: Completions the schedule covers.
        drained: Whether the batch is empty after completion ``cap``.
        rlps / tokens / context_totals / segments: Set by the planner:
            the batch size of each priced iteration, the tokens each of
            the ``cap`` completions accepts, the active-context total
            entering each of iterations ``1..cap + 1``, and the
            ``(first, stop, rows)`` price-line segments of the priced
            iterations (``rows`` is a gathered segment's fold-row block,
            ``None`` for one looked up iteration by iteration).
    """

    __slots__ = (
        "requests", "starts", "remaining", "contexts", "totals", "finishes",
        "completions", "finished", "stops", "prefills", "sizes", "deficits",
        "corrections", "cap", "drained", "rlps", "tokens", "context_totals",
        "segments",
    )

    def __init__(self, requests, remaining, contexts, totals, finishes):
        self.requests: List[Request] = requests
        self.starts: List[int] = [0] * len(requests)
        self.remaining: List[int] = remaining
        self.contexts: List[int] = contexts
        self.totals: List[int] = totals
        self.finishes: List[int] = finishes
        self.completions: List[int] = []
        self.finished: List[List[int]] = []
        self.stops: List[int] = []
        self.prefills: List[Optional[IterationResult]] = []
        self.sizes: List[int] = []
        self.deficits: List[int] = []
        self.corrections: List[int] = []
        self.cap = 0
        self.drained = False
        self.rlps: Optional[np.ndarray] = None
        self.tokens: Optional[np.ndarray] = None
        self.context_totals: Optional[np.ndarray] = None
        self.segments: List[Tuple[int, int, Optional[np.ndarray]]] = []


class RunPlan:
    """A priced macro-run (see :meth:`Replica.plan_run`), committed whole
    or in part through :meth:`Replica.compress_run`.

    Attributes:
        replica / iteration: The replica that priced the run and its
            iteration count then. A commit on another replica, or after
            the replica has stepped, raises.
        start: Completion time of the run's first iteration (the one in
            flight when the run was planned).
        cap: Completions the run covers. A frozen run stops before its
            first slot completion, at the iteration cap or at
            :data:`MACRO_MAX_RUN`; a completion run (``completions`` set)
            see :meth:`Replica.plan_run`.
        times: ``cap + 1`` completion times: ``times[i]`` is iteration
            ``i + 1``'s, so ``times[0] == start`` and ``times[cap]`` is
            the in-flight iteration's after the whole run commits
            (``None`` when the batch drains at completion ``cap``).
        per_iteration: A frozen run's tokens per iteration (every slot's
            deterministic credit); each iteration moves the replica's
            remaining-token and active-context counters by it. ``None``
            for a completion run, whose credit is per iteration.
        rlp / tlp / steady / draft: The batch size the run starts with,
            its TLP, the per-slot credit and the draft overhead per
            iteration.
        results: ``cap + 1`` prices: ``results[i]`` is iteration
            ``i + 1``'s, so ``results[0]`` is the one in flight when the
            run was planned and ``results[cap]`` the one the whole run
            leaves in flight (``None`` when the batch drains).
        rows: ``None`` for a completion run and for a frozen run of at
            most :data:`MACRO_SMALL_RUN` iterations; otherwise the
            ``(cap + 1, columns)`` block of the results' price-line fold
            rows, which a commit folds.
        completions: ``None`` for a frozen run; a completion run's
            :class:`CompletionSchedule`.
    """

    __slots__ = (
        "replica", "iteration", "start", "cap", "rlp", "tlp",
        "per_iteration", "steady", "draft", "results", "rows", "times",
        "completions",
    )

    def __init__(
        self, replica, start, cap, rlp, tlp, per_iteration, steady, draft,
        results, rows, times, completions=None,
    ) -> None:
        self.replica: "Replica" = replica
        self.iteration: int = replica._iteration
        self.start = start
        self.cap = cap
        self.rlp = rlp
        self.tlp = tlp
        self.per_iteration: Optional[int] = per_iteration
        self.steady = steady
        self.draft = draft
        self.results: List[Optional[IterationResult]] = results
        self.rows: Optional[np.ndarray] = rows
        self.times: List[Optional[float]] = times
        self.completions: Optional[CompletionSchedule] = completions


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
        # Mean-mode price lines keyed by (FC target code, rlp, tlp) (a
        # vectorized fleet shares one dict per price group), and this
        # replica's run-pricer closure per key: the FC target, cache
        # scope and workload name a closure hoists are invariant under
        # one key, so each is built once.
        self._price_lines: Dict[Tuple[int, int, int], PriceLine] = {}
        self._run_pricers: Dict[Tuple[int, int, int], Any] = {}

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

    def plan_run(
        self, now: float, horizon: Optional[float]
    ) -> Optional[RunPlan]:
        """Price the run whose first iteration completes at ``now``.

        ``horizon`` is the time of the next event that could observe the
        fleet (``None`` when none is pending). Returns ``None`` when the
        batch cannot macro-step (each decline counted in ``step_macro``),
        otherwise one of two runs:

        * A *frozen* run: nothing is admittable, the TLP is fixed and
          every slot deterministically accepts the same tokens per
          iteration. It covers the iterations up to the first slot
          completion, the iteration cap or :data:`MACRO_MAX_RUN`, priced
          and timed. Prices come off the price line of the batch's ``(FC
          target code, rlp, tlp)``: a run of at most
          :data:`MACRO_SMALL_RUN` iterations looks one up per context
          segment and times itself one add at a time; a longer one
          gathers its prices and fold rows with one fancy index over its
          raw means (:meth:`PriceLine.gather`, pricing only unseen means)
          and times them with one accumulate.
        * A *completion* run, when the frozen run would end at its first
          slot completion before ``horizon`` anyway, or when a slot
          finishes within :data:`MACRO_MIN_RUN` iterations and the
          in-flight iteration completes before ``horizon``; only a
          replica whose :meth:`_schedule_completions` hook schedules one
          (a :class:`~repro.cluster.fleetstate.VectorReplica` with a
          recognized FC planner) carries completions. See
          :meth:`_plan_completions`. It is counted in
          ``step_macro["completion_runs"]``; ``fallback_finish_due``
          counts the declines where a slot finishes within
          :data:`MACRO_MIN_RUN` iterations and no completion run is
          planned, which prices nothing when the in-flight iteration
          completes at or past ``horizon``.

        Mutates no simulation state (price lines, prefill prices and
        capacity verdicts are caches); commit the plan, or a prefix of
        it, through :meth:`compress_run`.
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
        if self.waiting and len(self.active) < self.max_batch_size:
            counters["fallback_admittable"] = (
                counters.get("fallback_admittable", 0) + 1
            )
            return None
        if pending[1] != self.policy.tlp:
            counters["fallback_tlp_policy"] = (
                counters.get("fallback_tlp_policy", 0) + 1
            )
            return None
        # K's three limiting terms: first slot completion, the iteration
        # cap and the hard per-step bound.
        min_remaining = self._macro_min_remaining()
        finish_free = (min_remaining - 1) // steady
        iteration_room = MAX_ITERATIONS - 1 - self._iteration
        limit = min(iteration_room, MACRO_MAX_RUN)
        if finish_free < MACRO_MIN_RUN:
            plan = None
            if (horizon is None or now < horizon) and (
                iteration_room >= MACRO_MIN_RUN
            ):
                plan = self._plan_completions(
                    now, horizon, pending, steady, limit
                )
            if plan is None:
                counters["fallback_finish_due"] = (
                    counters.get("fallback_finish_due", 0) + 1
                )
            return plan
        if iteration_room < MACRO_MIN_RUN:
            counters["fallback_iteration_cap"] = (
                counters.get("fallback_iteration_cap", 0) + 1
            )
            return None
        cap = min(finish_free, limit)
        frozen = None
        if cap == finish_free:
            # The run ends at its first slot completion. Without a
            # horizon it commits inline whatever happens, so carry it
            # through; with one, only when that completion precedes it
            # (otherwise the frozen run goes lazy).
            if horizon is not None:
                frozen = self._plan_frozen(now, pending, steady, cap)
            if horizon is None or frozen.times[cap] < horizon:
                plan = self._plan_completions(
                    now, horizon, pending, steady, limit
                )
                if plan is not None:
                    return plan
        if frozen is None:
            frozen = self._plan_frozen(now, pending, steady, cap)
        return frozen

    def _plan_frozen(
        self, now: float, pending, steady: int, cap: int
    ) -> RunPlan:
        """Price and time the frozen run of ``cap`` iterations (see
        :meth:`plan_run`)."""
        result_first, tlp = pending
        active = self.active
        draft = self.speculation.draft_overhead_s(tlp)
        rlp = len(active)
        per_iteration = rlp * steady
        # The run prices on the in-flight iteration's line: a frozen
        # batch's planned FC target stays put.
        line, price = self._price_line(
            0 if result_first.fc_target is PlacementTarget.PU else 1, rlp, tlp
        )

        # Price iterations 1..cap+1 (the one in flight, cap completion
        # candidates, and the run's outgoing in-flight step). The
        # context total entering iteration i is total_0 + (i-1) *
        # per_iteration; its raw mean replicates price_mean_total's
        # arithmetic exactly (np.rint is round-half-even, bitwise equal
        # to the builtin on these int-ratio inputs, so the short-run
        # scalar path below and the gathered path are interchangeable).
        total_0 = self._active_context_sum
        if cap <= MACRO_SMALL_RUN:
            # Scalar path: one line lookup per context-bucket segment,
            # one float add per iteration — the reference computation.
            bucket = self.pricer.context_bucket
            lookup = line.lookup
            results = [result_first]
            times = [now]
            clock = now
            total = total_0
            previous_mean = -1
            for _ in range(cap):
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
                    result = lookup(raw_mean, price)
                    step_duration = draft + result.seconds
                results.append(result)
                clock = clock + step_duration
                times.append(clock)
            rows = None
        else:
            # Gathered path: the run's prices and fold rows come off its
            # price line in one fancy index over the raw means, and the
            # completion times tau_{i+1} = tau_i + (seconds_{i+1} + draft)
            # — the event loop's one-add-per-iteration chain — are one
            # sequential accumulate.
            means = np.arange(
                total_0,
                total_0 + (cap + 1) * per_iteration,
                per_iteration,
                dtype=np.int64,
            ) / rlp
            np.rint(means, out=means)
            np.maximum(means, 1.0, out=means)
            results, rows = line.gather(
                means.astype(np.int64), price, self.pricer._bucketize
            )
            chain = np.empty(cap + 1, dtype=np.float64)
            chain[0] = now
            np.add(rows[1:, 0], draft, out=chain[1:])
            np.add.accumulate(chain, out=chain)
            times = chain.tolist()
        return RunPlan(
            self, now, cap, rlp, tlp, per_iteration, steady, draft, results,
            rows, times,
        )

    def _plan_completions(
        self,
        now: float,
        horizon: Optional[float],
        pending,
        steady: int,
        limit: int,
    ) -> Optional[RunPlan]:
        """Price a run carried past slot completions (see :meth:`plan_run`).

        The replica's :meth:`_schedule_completions` hook lays out which
        slots finish at which completion and how each refill fills the
        freed slots. Finished slots are stamped and compacted; freed
        slots are refilled in FIFO order from the waiting queue, each
        refill with its prefill, capacity check and ``begin_batch``; the
        batch shrinks once the queue runs dry. The schedule stops at the
        iteration cap or :data:`MACRO_MAX_RUN` (``limit``), when the
        batch drains, or before a refill whose capacity check fails
        (where the per-iteration step raises). With a ``horizon`` it is
        laid out at most about twice as far as the in-flight iteration's
        duration puts the horizon, so a near horizon never pays for a
        long schedule; a run that stops short of it simply plans again.

        Everything per iteration is an array: the batch size of each
        stretch between completions, the context total (one cumulative
        sum of ``rlp * steady`` plus each completion's correction), the
        raw means, the prices (gathered per ``(FC target code, rlp,
        tlp)`` price-line segment, or looked up iteration by iteration
        in a segment of at most :data:`MACRO_SMALL_RUN`), and the
        completion times, one accumulate of ``prefill + (draft +
        seconds)`` (the association order of :meth:`on_step_done`'s
        ``now + duration``). The run then stops at its first completion
        at or past ``horizon``. Returns ``None`` when no slot completion
        is left in the run.
        """
        result_first, tlp = pending
        draft = self.speculation.draft_overhead_s(tlp)
        if horizon is not None:
            reach = int((horizon - now) / (draft + result_first.seconds))
            limit = min(limit, 2 * reach + MACRO_MIN_RUN)
        schedule = self._schedule_completions(steady, limit)
        if schedule is None or not schedule.completions:
            return None
        cap = schedule.cap
        size = cap if schedule.drained else cap + 1
        completions = schedule.completions
        # The batch size of priced iterations 1..size: a stretch per
        # completion at which slots finish.
        stretch_sizes = [len(self.active)] + schedule.sizes
        bounds = [0] + completions + [size]
        rlps = np.repeat(stretch_sizes, np.diff(bounds))
        # Tokens accepted at, and context total entering, each iteration.
        at = np.asarray(completions) - 1
        tokens = rlps[:cap] * steady
        tokens[at] -= schedule.deficits
        context_totals = np.empty(cap + 1, dtype=np.int64)
        context_totals[0] = self._active_context_sum
        context_totals[1:] = tokens
        context_totals[1:][at] += schedule.corrections
        np.cumsum(context_totals, out=context_totals)
        means = context_totals[:size] / rlps
        np.rint(means, out=means)
        np.maximum(means, 1.0, out=means)
        raw_means = means.astype(np.int64)

        # Price per (FC target code, rlp) segment: the first stretch on
        # the in-flight iteration's line, later ones where the scheduler
        # re-plans after each completion.
        plan_target = self.system.plan_fc_target
        codes: Dict[int, int] = {}
        segments = []
        for index, rlp in enumerate(stretch_sizes):
            start, stop = bounds[index], bounds[index + 1]
            if start == stop:
                continue
            if index == 0:
                code = 0 if result_first.fc_target is PlacementTarget.PU else 1
            else:
                code = codes.get(rlp)
                if code is None:
                    target = plan_target(rlp, tlp)
                    code = 0 if target is PlacementTarget.PU else 1
                    codes[rlp] = code
            if segments and segments[-1][2:] == [code, rlp]:
                segments[-1][1] = stop
            else:
                segments.append([start, stop, code, rlp])
        results: List[Optional[IterationResult]] = []
        seconds = np.empty(size, dtype=np.float64)
        bucketize = self.pricer._bucketize
        for segment in segments:
            start, stop, code, rlp = segment
            line, price = self._price_line(code, rlp, tlp)
            if stop - start <= MACRO_SMALL_RUN:
                lookup = line.lookup
                priced = [
                    lookup(mean, price)
                    for mean in raw_means[start:stop].tolist()
                ]
                seconds[start:stop] = [result.seconds for result in priced]
                rows = None
            else:
                priced, rows = line.gather(
                    raw_means[start:stop], price, bucketize
                )
                seconds[start:stop] = rows[:, 0]
            results.extend(priced)
            segment[2:] = [rows]
        results[0] = result_first

        # Completion times: prefill + (draft + seconds) per iteration.
        increments = seconds[1:]
        increments += draft
        refills = [
            (completion - 1, prefill.seconds)
            for completion, prefill in zip(completions, schedule.prefills)
            if prefill is not None
        ]
        if refills:
            where, prefill_seconds = zip(*refills)
            where = list(where)
            increments[where] = np.add(prefill_seconds, increments[where])
        chain = np.empty(size, dtype=np.float64)
        chain[0] = now
        chain[1:] = increments
        np.add.accumulate(chain, out=chain)
        if horizon is not None:
            # Completions strictly before the horizon commit; the first
            # one at or past it stays in flight.
            # (The schedule's entries past the cut are never committed.)
            before = int(np.searchsorted(chain, horizon))
            if before < cap:
                if before < completions[0]:
                    return None
                cap = before
                schedule.drained = False
        schedule.cap = cap
        schedule.rlps = rlps
        schedule.tokens = tokens
        schedule.context_totals = context_totals
        schedule.segments = [tuple(segment) for segment in segments]
        times = chain[: cap + 1].tolist()
        del results[cap + 1:]
        if schedule.drained:
            times.append(None)
            results.append(None)
        counters = self.step_macro
        counters["completion_runs"] = counters.get("completion_runs", 0) + 1
        return RunPlan(
            self, now, cap, len(self.active), tlp, None, steady, draft,
            results, None, times, schedule,
        )

    def compress_run(
        self, plan: RunPlan, run: int
    ) -> Tuple[Optional[float], float]:
        """Commit the first ``run`` iterations of ``plan`` in closed form.

        ``plan`` is a run :meth:`plan_run` priced on this replica at its
        current iteration, its first iteration in flight, and ``1 <= run
        <= plan.cap``; otherwise :class:`SimulationError` is raised
        before any state changes. The iterations' prices and completion
        times (one sequential float chain, bit-identical to the
        per-iteration adds) come from the plan, and every counter the
        per-iteration path would have touched is folded at once: the
        replica ends as ``run`` :meth:`on_step_done` rounds would leave
        it. A completion run replays its schedule's finishes and refills
        in completion order (stamping finished requests, popping the
        queue, charging queueing and prefill, and ``observe_finished`` /
        ``begin_batch`` for the monitor) between closed-form
        ``observe_steady`` stretches. Every committed iteration folds
        through :meth:`RunSummary.fold_run_segments`: a gathered segment
        longer than :data:`MACRO_SMALL_RUN` with one accumulate over its
        rows, the rest iteration by iteration.

        Returns ``(next_done_at, last_completed_at)``: the completion
        time of the newly scheduled (still in-flight) iteration, ``None``
        when the batch drained, and of the run's last *completed*
        iteration (the caller's makespan watermark).
        """
        if plan.replica is not self or plan.iteration != self._iteration:
            raise SimulationError(
                f"replica {self.replica_id}: cannot commit a stale plan "
                f"(priced on replica {plan.replica.replica_id} at "
                f"iteration {plan.iteration}, now at {self._iteration})"
            )
        if not 1 <= run <= plan.cap:
            raise SimulationError(
                f"replica {self.replica_id}: cannot commit {run} "
                f"iterations of a {plan.cap}-iteration run"
            )
        tlp = plan.tlp
        schedule = plan.completions
        if schedule is None:
            # A frozen run: no request finishes, so the slot state
            # advances uniformly and the monitor sees finish-free
            # batches.
            rlp = plan.rlp
            per_iteration = tokens = plan.per_iteration
            self._macro_advance_slots(plan.steady * run)
            self._remaining_tokens -= per_iteration * run
            self._active_context_sum += per_iteration * run
            self._accepted_fraction = 1.0
            if tlp > 1:
                drafted = rlp * (tlp - 1) * run
                self._drafted_tokens += drafted
                self._accepted_draft_tokens += drafted
            if self.moe is not None:
                self._fold_experts(np.full(run, rlp), tlp)
            self.system.observe_steady(run, rlp)
            if self.summary.detail == "full":
                self._record_iterations(
                    plan, run, repeat(per_iteration), repeat(rlp), repeat(0)
                )
            segments = ((0, plan.cap + 1, plan.rows),)
        else:
            tokens = self._replay_completions(plan, run)
            segments = schedule.segments

        # Fold completed iterations 1..run: a long gathered segment by
        # its rows, everything between per iteration.
        folded = 0
        for start, stop, rows in segments:
            stop = min(stop, run)
            if rows is None or stop - start <= MACRO_SMALL_RUN:
                continue
            if folded < start:
                self._fold_iterations(plan, tokens, folded, start)
            self._fold_iterations(
                plan, tokens, start, stop, rows[: stop - start]
            )
            folded = stop
        if folded < run:
            self._fold_iterations(plan, tokens, folded, run)

        # Iterations 2..run+1 were scheduled (up to run when the batch
        # drained at the last completion).
        summary = self.summary
        result = plan.results[run]
        scheduled = run if result is not None else run - 1
        if plan.draft != 0.0 and scheduled:
            summary.draft_seconds = _add_in_turn(
                summary.draft_seconds, np.full(scheduled, plan.draft)
            )
        self.tlp_trace.values.extend([tlp] * scheduled)
        self._iteration += run
        if result is None:
            self._pending = None
            self.busy = False
        else:
            self._pending = (result, tlp)
        counters = self.step_macro
        counters["macro_steps"] = counters.get("macro_steps", 0) + 1
        counters["iterations_compressed"] = (
            counters.get("iterations_compressed", 0) + run
        )
        return plan.times[run], plan.times[run - 1]

    def _fold_iterations(
        self, plan: RunPlan, tokens, start: int, stop: int, rows=None
    ) -> None:
        """Fold iterations ``start + 1 .. stop`` of ``plan``, one
        ``(result, 1)`` pair each; ``tokens`` is every iteration's count
        or a list of them (see :meth:`RunSummary.fold_run_segments`)."""
        self.summary.fold_run_segments(
            list(zip(plan.results[start:stop], repeat(1))),
            tokens if isinstance(tokens, int) else tokens[start:stop],
            rows,
        )

    def _replay_completions(self, plan: RunPlan, run: int) -> List[int]:
        """Commit the slot side of a completion run's first ``run``
        iterations; returns the tokens each accepted.

        Each completion at which slots finish replays what
        :meth:`on_step_done` does there, in order: the finished requests
        are stamped and their latencies recorded in batch order, the
        monitor counts them (``observe_finished``), the refill pops the
        queue, charges queueing and prefill, and restarts the monitor
        (``begin_batch``). The stretches between are one
        ``observe_steady`` each. The batch, its slot mirrors and the
        counters are then set to where the run leaves them.
        """
        schedule = plan.completions
        steady = plan.steady
        tlp = plan.tlp
        times = plan.times
        requests = schedule.requests
        contexts = schedule.contexts
        system = self.system
        observe_steady = system.observe_steady
        observe_finished = system.observe_finished
        summary = self.summary
        latencies = summary.request_latencies
        popleft = self.waiting.popleft
        iteration = self._iteration
        finished_state = RequestState.FINISHED
        decoding_state = RequestState.DECODING
        rlp = first = plan.rlp
        last = served = refilled_context = 0
        events = bisect_right(schedule.completions, run)
        for completion, finished, stop, prefill, size in zip(
            schedule.completions[:events],
            schedule.finished,
            schedule.stops,
            schedule.prefills,
            schedule.sizes,
        ):
            if completion - 1 > last:
                observe_steady(completion - 1 - last, rlp)
            now = times[completion - 1]
            for slot in finished:
                request = requests[slot]
                request.generated = request.output_len
                request.state = finished_state
                request.finish_iteration = iteration + completion - 1
                request.finish_s = now
                latencies.append(max(0.0, now - request.arrival_s))
                if request.followup is not None:
                    self.followups.append(request)
            served += len(finished)
            observe_finished(len(finished), rlp)
            rlp = size
            if stop > first:
                # _admit's pops, state moves and queueing sum, in order.
                waited = 0
                for slot in range(first, stop):
                    request = requests[slot]
                    popleft()
                    request.state = decoding_state
                    refilled_context += contexts[slot]
                    waited += max(0.0, now - request.arrival_s)
                summary.queueing_seconds += waited
                summary.prefill_seconds += prefill.seconds
                summary.prefill_energy += prefill.energy_joules
                system.begin_batch(rlp, self._current_tlp)
                first = stop
            last = completion
        if run > last:
            observe_steady(run - last, rlp)

        starts = schedule.starts
        alive = [
            slot
            for slot, (start, finish) in enumerate(
                zip(starts, schedule.finishes)
            )
            if start <= run < finish
        ]
        decoded = [steady * (run - starts[slot]) for slot in alive]
        self._commit_slots(
            [requests[slot] for slot in alive],
            [schedule.remaining[s] - d for s, d in zip(alive, decoded)],
            [contexts[s] + d for s, d in zip(alive, decoded)],
            [schedule.totals[slot] for slot in alive],
        )
        tokens = schedule.tokens[:run]
        rlps = schedule.rlps[:run]
        accepted = int(tokens.sum())
        self._remaining_tokens -= accepted
        self._waiting_context_sum -= refilled_context
        self._active_context_sum = int(schedule.context_totals[run])
        self.requests_served += served
        if tlp > 1:
            slots = int(rlps.sum())
            self._drafted_tokens += slots * (tlp - 1)
            self._accepted_draft_tokens += accepted - slots
            self._accepted_fraction = ServingEngine._accepted_fraction(
                int(tokens[-1]), int(rlps[-1]), tlp
            )
        else:
            self._accepted_fraction = 1.0
        if self.moe is not None:
            self._fold_experts(rlps, tlp)
        tokens = tokens.tolist()
        if summary.detail == "full":
            finishing = [0] * run
            for completion, finished in zip(
                schedule.completions[:events], schedule.finished
            ):
                finishing[completion - 1] = len(finished)
            self._record_iterations(
                plan, run, tokens, rlps.tolist(), finishing
            )
        return tokens

    def _fold_experts(self, rlps: np.ndarray, tlp: int) -> None:
        """Count the expert traffic of iterations of batch sizes ``rlps``
        at ``tlp`` (MoE replicas), as one :meth:`on_step_done` per
        iteration does."""
        moe = self.moe
        self.expert_token_visits += (
            int(rlps.sum()) * tlp * moe.experts_per_token
        )
        sizes, where = np.unique(rlps, return_inverse=True)
        expected = np.asarray(
            [
                expected_active_experts(
                    moe.num_experts, moe.experts_per_token, size * tlp
                )
                for size in sizes.tolist()
            ]
        )
        self._active_expert_sum = _add_in_turn(
            self._active_expert_sum, expected[where]
        )

    def _record_iterations(self, plan, run, tokens, rlps, finishing) -> None:
        """Append the ``detail="full"`` records of a run's first ``run``
        iterations (per-iteration tokens, batch sizes and finishes)."""
        records = self.summary.records
        iteration = self._iteration
        for result, accepted, rlp, finished in zip(
            plan.results[:run], tokens, rlps, finishing
        ):
            records.append(
                IterationRecord(
                    iteration=iteration,
                    result=result,
                    tokens_accepted=accepted,
                    rlp_before=rlp,
                    rlp_after=rlp - finished,
                )
            )
            iteration += 1

    def _price_line(self, code: int, rlp: int, tlp: int):
        """The mean-mode price line of ``(code, rlp, tlp)`` and this
        replica's pricer for its misses (see
        :meth:`StepPricer.run_pricer`)."""
        key = (code, rlp, tlp)
        line = self._price_lines.get(key)
        if line is None:
            line = self._price_lines[key] = PriceLine()
        price = self._run_pricers.get(key)
        if price is None:
            price = self._run_pricers[key] = self.pricer.run_pricer(rlp, tlp)
        return line, price

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

    def _schedule_completions(
        self, steady: int, limit: int
    ) -> Optional[CompletionSchedule]:
        """Lay out a completion run of at most ``limit`` completions.

        The hook behind :meth:`_plan_completions`. A replica that can
        carry a run past slot completions returns its
        :class:`CompletionSchedule` (and commits one through
        :meth:`_commit_slots`); this one returns ``None``: the scalar
        oracle's replica keeps its slot state on the request objects and
        steps every completion.
        """
        return None

    def _commit_slots(
        self,
        active: List[Request],
        remaining: List[int],
        contexts: List[int],
        totals: List[int],
    ) -> None:
        """Install the batch a completion run leaves (see
        :meth:`_schedule_completions`)."""
        raise NotImplementedError

    def _macro_advance_slots(self, per_slot: int) -> None:
        """Advance every active slot by ``per_slot`` accepted tokens.

        Only called with ``per_slot`` strictly below every slot's
        remaining budget, so no request can finish and request state
        stays ``DECODING`` throughout — the closed form of ``run``
        consecutive ``Request.advance`` credits.
        """
        for request in self.active:
            request.generated += per_slot

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
