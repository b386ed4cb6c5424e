"""Array-backed fleet state: the vectorized cluster core's data plane.

The scalar reference core answers every routing probe and admission
projection by looping Python ``Replica`` objects — attribute walks,
queue scans, dict probes, and placement plans per replica per arrival.
This module keeps the *same* per-replica state machines but mirrors the
fleet's load counters into flat numpy arrays, so the per-arrival hot
path becomes a handful of vector operations across all replicas at once
(the HBM-PIM simulator idiom: bank state as dense tensors advanced in
bulk):

* :class:`FleetState` — a sequence view over the replicas plus fleet-wide
  arrays of the incremental load counters (``_remaining_tokens``, active/
  waiting context sums, batch occupancy, current TLP). Routing probes
  (:meth:`FleetState.fleet_step_seconds`,
  :meth:`FleetState.fleet_completion_seconds`) project every replica's
  post-admission batch shape with vector arithmetic and gather prices
  from per-group dense tables; misses are priced through one
  pinned-target :func:`~repro.systems.batch.price_steps_at` call per
  group, so every lane stays bit-identical to the scalar probe.
* :class:`VectorReplica` — a :class:`~repro.cluster.replica.Replica`
  whose per-step bookkeeping runs on primitive slot arrays (remaining
  tokens and context per batch slot as plain ints) instead of request
  objects, with a memo in front of step pricing. Request objects are
  only touched when a request *finishes* (stamping final state for the
  tenant reports), not once per iteration.

Price-table soundness: a projected step price is keyed by
``(fc target, rlp, tlp, bucketed mean context)`` within a group of
configuration-equal systems serving one workload. The FC placement is
*not* a pure function of ``(rlp, tlp)`` — PAPI's standing decision can
lag the stateless ``rlp * tlp > alpha`` rule right after a TLP-policy
register write — so each probe resolves every replica's target through
that replica's own ``plan_fc_target`` (exactly as the scalar reference
probe does) and the target is part of the table index. This is the
same key discipline the shared step-cost cache documents: divergent
scheduler state between replicas can never alias.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.replica import Replica
from repro.cluster.router import ADMISSION_CONTEXT_BUCKET
from repro.core.placement import PlacementTarget
from repro.errors import ConfigurationError, SimulationError
from repro.models.workload import build_step_grid
from repro.serving.engine import MAX_ITERATIONS, ServingEngine
from repro.serving.metrics import IterationRecord
from repro.serving.request import Request, RequestState
from repro.serving.tlp_policy import FixedTLP
from repro.systems.baselines import A100AttAccSystem, AttAccOnlySystem
from repro.systems.batch import price_steps_at
from repro.systems.papi import PAPISystem, PIMOnlyPAPISystem

#: Step-price memo bound per replica (see ``VectorReplica``). Entries are
#: pure functions of their key, so clearing a full memo can only cost
#: recomputation, never correctness.
STEP_MEMO_ENTRIES = 1 << 16

#: Dense-table index of each FC placement a probe can resolve (FC runs
#: on the PUs or on FC-PIM, nowhere else).
TARGET_CODES = {PlacementTarget.PU: 0, PlacementTarget.FC_PIM: 1}
CODE_TARGETS = (PlacementTarget.PU, PlacementTarget.FC_PIM)

#: FC planners the probes can evaluate as array arithmetic, recognized
#: by function identity (a subclass overriding ``plan_fc_target`` falls
#: back to per-lane resolution). ``PLAN_PAPI`` is the standing-decision
#: + ``rlp * tlp > alpha`` rule; the constant planners always place FC
#: on one unit.
PLAN_PAPI = 0
PLAN_CONSTANT_PU = 1
PLAN_CONSTANT_FC = 2
PLAN_GENERIC = 3

_PLAN_KINDS = {
    PAPISystem.plan_fc_target: PLAN_PAPI,
    A100AttAccSystem.plan_fc_target: PLAN_CONSTANT_PU,
    PIMOnlyPAPISystem.plan_fc_target: PLAN_CONSTANT_FC,
    AttAccOnlySystem.plan_fc_target: PLAN_CONSTANT_FC,
}


def _planner_kind(system) -> int:
    """How a probe may resolve this system's FC placement in bulk."""
    return _PLAN_KINDS.get(type(system).plan_fc_target, PLAN_GENERIC)


class VectorReplica(Replica):
    """Replica with primitive slot state for the vectorized core.

    Event semantics, pricing, and every reported number are identical to
    :class:`~repro.cluster.replica.Replica` — the equivalence suite pins
    the outputs bit-for-bit. What changes is the per-iteration machinery:

    * Remaining tokens and context length per batch slot live in parallel
      ``List[int]`` mirrors (``_slot_remaining`` / ``_slot_context``), so
      the step-done loop touches plain ints instead of request
      attributes, and :class:`Request` objects are only written when a
      request finishes.
    * Step pricing goes through a per-replica memo keyed by
      ``(rlp, tlp, context key)`` in front of the shared step cache —
      placement planning is a pure function of that key (see module
      docstring), so the memo is exact.
    * The runtime monitor is fed the *count* of finished requests
      (:meth:`~repro.systems.base.ServingSystem.observe_finished`)
      instead of a per-request output vector.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.load_accounting != "incremental":
            raise ConfigurationError(
                "the vectorized core requires load_accounting='incremental' "
                "(its fleet arrays mirror the incremental counters)"
            )
        self._slot_remaining: List[int] = []
        self._slot_context: List[int] = []
        self._slot_total: List[int] = []
        self._price_memo: Dict[tuple, object] = {}
        self._prefill_memo: Dict[tuple, object] = {}
        self._capacity_ok: set = set()
        self._draft_of: Dict[int, float] = {}
        # Prefill's FC target is re-planned per call; memoizing its price
        # is only sound when the planner provably cannot vary it with
        # scheduler state (every recognized planner — the probe-time
        # ``rlp=10**6`` sentinel can never match a standing decision).
        self._pure_planner = _planner_kind(self.system) != PLAN_GENERIC
        # Exactly ``FixedTLP`` (not a subclass) provably returns its
        # constant from ``next_tlp`` — skip the call per step.
        self._fixed_tlp = (
            self.policy.tlp if type(self.policy) is FixedTLP else None
        )

    # -- event handlers ---------------------------------------------------

    def on_step_done(self, now: float) -> Optional[float]:
        """Slot-array twin of :meth:`Replica.on_step_done`."""
        if self.role == "prefill":
            return self._prefill_done(now)
        if self._pending is None:
            raise SimulationError(
                f"replica {self.replica_id}: STEP_DONE with no step in flight"
            )
        result, tlp = self._pending
        self._pending = None

        active = self.active
        remaining = self._slot_remaining
        contexts = self._slot_context
        rlp = len(active)
        finished: List[int] = []
        if tlp == 1:
            # No draft model => exactly one token accepted per slot. The
            # common shape — nothing finishing this step — runs as two
            # C-speed list comprehensions instead of a Python slot loop.
            accepted_total = rlp
            if 1 not in remaining:
                remaining = [rem - 1 for rem in remaining]
                contexts = [ctx + 1 for ctx in contexts]
                self._slot_remaining = remaining
                self._slot_context = contexts
            else:
                for i in range(rlp):
                    rem = remaining[i]
                    if rem == 1:
                        finished.append(i)
                        remaining[i] = 0
                    else:
                        remaining[i] = rem - 1
                        contexts[i] += 1
        else:
            sampler = self.sampler
            accepted_total = 0
            for i in range(rlp):
                rem = remaining[i]
                accepted = sampler.accepted_tokens(tlp)
                credited = accepted if accepted < rem else rem
                accepted_total += credited
                if credited == rem:
                    finished.append(i)
                    remaining[i] = 0
                else:
                    remaining[i] = rem - credited
                    contexts[i] += credited

        summary = self.summary
        iteration = self._iteration
        finished_context = 0
        if finished:
            self.requests_served += len(finished)
            # ``record_request_latency`` inlined: ``max(0.0, ...)``
            # already guarantees the non-negativity it validates.
            latencies = summary.request_latencies
            for i in finished:
                request = active[i]
                request.generated = request.output_len
                request.state = RequestState.FINISHED
                request.finish_iteration = iteration
                request.finish_s = now
                finished_context += request.input_len + request.output_len
                latencies.append(max(0.0, now - request.arrival_s))
                if request.followup is not None:
                    self.followups.append(request)
        self._remaining_tokens -= accepted_total
        self._active_context_sum += accepted_total - finished_context
        if tlp == 1:
            # ``_accepted_fraction``'s tlp <= 1 branch, inlined.
            self._accepted_fraction = 1.0
        else:
            self._accepted_fraction = ServingEngine._accepted_fraction(
                accepted_total, rlp, tlp
            )
            self._drafted_tokens += rlp * (tlp - 1)
            self._accepted_draft_tokens += max(0, accepted_total - rlp)
        if self.moe is not None:
            from repro.models.moe import expected_active_experts

            tokens = rlp * tlp
            self.expert_token_visits += tokens * self.moe.experts_per_token
            self._active_expert_sum += expected_active_experts(
                self.moe.num_experts, self.moe.experts_per_token, tokens
            )
        self.system.observe_finished(len(finished), rlp)
        if summary.detail == "full":
            summary.add_iteration(
                IterationRecord(
                    iteration=iteration,
                    result=result,
                    tokens_accepted=accepted_total,
                    rlp_before=rlp,
                    rlp_after=rlp - len(finished),
                )
            )
        else:
            summary.fold_iteration(result, accepted_total)
        self._iteration = iteration + 1
        if self._iteration >= MAX_ITERATIONS:
            raise SimulationError("decoding did not converge (runaway loop)")
        if finished:
            totals = self._slot_total
            self.active = [a for a, rem in zip(active, remaining) if rem]
            self._slot_context = [
                ctx for ctx, rem in zip(contexts, remaining) if rem
            ]
            self._slot_total = [
                t for t, rem in zip(totals, remaining) if rem
            ]
            self._slot_remaining = [rem for rem in remaining if rem]

        duration = self._admit(now) if self.waiting else 0.0
        if not self.active:
            self.busy = False
            return None
        duration += self._schedule_step()
        return now + duration

    # -- internals --------------------------------------------------------

    def _admit(self, now: float) -> float:
        """Memoized twin of :meth:`Replica._admit`, mirroring fresh slots.

        Prefill pricing is a pure function of ``(cohort size, mean input
        length)`` and the capacity check of ``(cohort size, max sequence
        length)`` on a fixed system configuration, so both run through
        memos (shared across a price group, see
        :meth:`FleetState._share_price_memos`); every state transition —
        queue pops, context counters, queueing/prefill accounting,
        ``begin_batch`` — matches the reference line for line.

        Role variants mirror :meth:`Replica._admit`: a prefill-role
        batch departs wholesale at first token and never forms a
        decoding batch, so the scalar reference body (which keeps no
        slot mirrors) is already exact for it; a decode-role batch skips
        the prompt pass and counts queueing from the KV transfer's
        completion.
        """
        if self.role == "prefill":
            return Replica._admit(self, now)
        active = self.active
        waiting = self.waiting
        max_batch = self.max_batch_size
        if not waiting or len(active) >= max_batch:
            return 0.0
        fresh: List[Request] = []
        while waiting and len(active) + len(fresh) < max_batch:
            request = waiting.popleft()
            request.state = RequestState.PREFILLING
            self._waiting_context_sum -= request.input_len + request.generated
            self._active_context_sum += request.input_len + request.generated
            fresh.append(request)
        if self.check_capacity:
            cohort = len(active) + len(fresh)
            # The active slots' total lengths live in the _slot_total
            # mirror: one C-speed max over plain ints instead of a
            # request-attribute generator walk per admission.
            max_seq = max(r.input_len + r.output_len for r in fresh)
            slot_total = self._slot_total
            if slot_total:
                active_max = max(slot_total)
                if active_max > max_seq:
                    max_seq = active_max
            key = (cohort, max_seq)
            if key not in self._capacity_ok:
                self.system.check_capacity(
                    self.model, cohort, max_seq, moe=self.moe
                )
                self._capacity_ok.add(key)
        summary = self.summary
        if self.role == "decode":
            # Transferred requests arrive with their context already
            # prefilled: no prompt pass, and their wait is measured from
            # the KV transfer landing, not the cluster arrival.
            summary.queueing_seconds += sum(
                max(0.0, now - r.transfer_done_s) for r in fresh
            )
            seconds = 0.0
        else:
            summary.queueing_seconds += sum(
                max(0.0, now - r.arrival_s) for r in fresh
            )
            if self.prefix_cache is not None:
                # Same call site and order as the reference ``_admit``,
                # so LRU state and hit/miss sequences evolve
                # bit-identically across cores. The memo below stays
                # sound: the discount enters through ``mean_input``,
                # and the prefill price is a pure function of
                # ``(count, mean_input)`` regardless of how the mean
                # was discounted.
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
            count = len(fresh)
            mean_input = max(
                1, round(sum(r.prefill_len for r in fresh) / count)
            )
            memo = self._prefill_memo
            result = memo.get((count, mean_input))
            if result is None:
                result = self.system.execute_prefill(
                    self.model, count, mean_input
                )
                if self._pure_planner:
                    memo[(count, mean_input)] = result
            summary.prefill_seconds += result.seconds
            summary.prefill_energy += result.energy_joules
            seconds = result.seconds
        slot_remaining = self._slot_remaining
        slot_context = self._slot_context
        slot_total = self._slot_total
        for request in fresh:
            request.state = RequestState.DECODING
            input_len = request.input_len
            generated = request.generated
            slot_remaining.append(request.output_len - generated)
            slot_context.append(input_len + generated)
            slot_total.append(input_len + request.output_len)
        active.extend(fresh)
        self.system.begin_batch(len(active), self._current_tlp)
        return seconds

    def _clear_slots(self) -> None:
        """A prefill-role batch departs wholesale; reset the mirrors."""
        self._slot_remaining = []
        self._slot_context = []
        self._slot_total = []

    def _schedule_step(self) -> float:
        """Memoized twin of :meth:`Replica._schedule_step`."""
        rlp = len(self.active)
        tlp = self._fixed_tlp
        if tlp is None:
            tlp = self.policy.next_tlp(
                self._iteration, rlp, self._accepted_fraction
            )
        if tlp != self._current_tlp:
            self.system.update_tlp(tlp)
            self._current_tlp = tlp
        self.tlp_trace.values.append(tlp)
        pricer = self.pricer
        # The planned FC placement is part of the key: PAPI's standing
        # decision is scheduler state (it can lag the stateless rule
        # right after the TLP register write above), and the price the
        # pricer computes is a pure function of (target, rlp, tlp,
        # contexts) — the step-cost cache's own key discipline. In mean
        # mode the key carries the derived mean context, not the raw sum:
        # ``price_mean_total``'s first move is exactly this arithmetic,
        # so every context sum collapsing to one mean shares one entry —
        # and the memo can be shared across a whole price group (see
        # :meth:`FleetState._share_price_memos`).
        target = self.system.plan_fc_target(rlp, tlp)
        code = 0 if target is PlacementTarget.PU else 1
        if pricer.context_mode == "mean":
            total = self._active_context_sum
            key = (code, rlp, tlp, max(1, round(total / rlp)))
            memo = self._price_memo
            result = memo.get(key)
            if result is None:
                result = pricer.price_mean_total(rlp, tlp, total)
                if len(memo) >= STEP_MEMO_ENTRIES:
                    memo.clear()
                memo[key] = result
        else:
            key = (code, rlp, tlp, tuple(self._slot_context))
            memo = self._price_memo
            result = memo.get(key)
            if result is None:
                result = pricer.price_contexts(self._slot_context, tlp)
                if len(memo) >= STEP_MEMO_ENTRIES:
                    memo.clear()
                memo[key] = result
        draft = self._draft_of.get(tlp)
        if draft is None:
            draft = self._draft_of[tlp] = self.speculation.draft_overhead_s(tlp)
        self.summary.draft_seconds += draft
        self._pending = (result, tlp)
        return draft + result.seconds

    # -- macro-stepping hooks (see Replica.compress_run) -------------------

    def _macro_min_remaining(self) -> int:
        """Fewest remaining tokens, from the slot mirror."""
        return min(self._slot_remaining)

    def _macro_advance_slots(self, per_slot: int) -> None:
        """Advance the slot mirrors uniformly (no slot can finish).

        ``_slot_total`` is invariant during decoding; request objects are
        only touched at finish/compaction, which a frozen run excludes.
        """
        self._slot_remaining = [
            rem - per_slot for rem in self._slot_remaining
        ]
        self._slot_context = [ctx + per_slot for ctx in self._slot_context]

    def _macro_pricer(self, rlp: int, tlp: int):
        """Layer the per-replica step memo over the run pricer.

        Keys match :meth:`_schedule_step`'s mean-mode discipline —
        ``(target code, rlp, tlp, raw mean)`` — so a macro-run and the
        per-iteration path populate one shared (group-shareable) memo.
        """
        price_mean = self.pricer.run_pricer(rlp, tlp)
        target = self.system.plan_fc_target(rlp, tlp)
        code = 0 if target is PlacementTarget.PU else 1
        memo = self._price_memo

        def price(raw_mean: int):
            key = (code, rlp, tlp, raw_mean)
            result = memo.get(key)
            if result is None:
                result = price_mean(raw_mean)
                if len(memo) >= STEP_MEMO_ENTRIES:
                    memo.clear()
                memo[key] = result
            return result

        return price


class _PriceGroup:
    """One interchangeable-pricing group of a fleet's replicas.

    Replicas sharing a configuration-equal system and the same workload
    price identically (the equality the shared price cache scopes by),
    so one dense table of step prices — indexed ``[fc target, rlp, tlp,
    context bucket]``, ``NaN`` marking unpriced points — serves them
    all.
    """

    __slots__ = ("indices", "representative", "table", "entries")

    def __init__(
        self, indices: Optional[np.ndarray], representative: Replica
    ) -> None:
        self.indices = indices  # None => the whole fleet (single group)
        self.representative = representative
        self.table = np.full(
            (len(CODE_TARGETS), 1, 1, 1), np.nan, dtype=np.float64
        )
        self.entries = 0

    def ensure(self, rlp_max: int, tlp_max: int, ctx_max: int) -> None:
        """Grow the table to cover the given indices.

        Only an overflowing axis grows (geometrically); the others keep
        their size, so a context overflow never multiplies the rlp and
        tlp extents along with it.
        """
        shape = self.table.shape
        if rlp_max < shape[1] and tlp_max < shape[2] and ctx_max < shape[3]:
            return
        new_shape = (shape[0],) + tuple(
            size if index < size else max(2 * size, index + 1)
            for size, index in zip(shape[1:], (rlp_max, tlp_max, ctx_max))
        )
        grown = np.full(new_shape, np.nan, dtype=np.float64)
        grown[:, : shape[1], : shape[2], : shape[3]] = self.table
        self.table = grown


class FleetState:
    """Sequence view of the fleet plus flat arrays of its load counters.

    Drop-in wherever the cluster passes its replica list (routers index
    and iterate it like a list), with three additions the vectorized hot
    paths dispatch on:

    * :meth:`fleet_step_seconds` / :meth:`fleet_completion_seconds` —
      array-parallel twins of the per-replica ``projected_*_seconds``
      reference probes (the router module dispatches to these when
      present), plus the version-memoized ``probe_*`` and ``route_*``
      verdicts built on them.
    * :meth:`outstanding_counts` — queued + active per replica, for
      vectorized router ranking.
    * :meth:`mark_dirty` / ``_flush`` — the simulator marks a replica
      after handling its event; arrays refresh lazily at the next probe,
      so a burst of step events between two arrivals costs one refresh.

    The arrays mirror the replicas' incremental integer counters exactly
    — the probes compute the same integer/float arithmetic the scalar
    probes do, elementwise, so results are bit-identical.
    """

    def __init__(self, replicas: Sequence[Replica]) -> None:
        fleet = list(replicas)
        if not fleet:
            raise ConfigurationError("cluster needs at least one replica")
        for replica in fleet:
            if replica.load_accounting != "incremental":
                raise ConfigurationError(
                    "FleetState mirrors the incremental load counters; "
                    f"replica {replica.replica_id} uses "
                    f"{replica.load_accounting!r} accounting"
                )
        self._replicas = fleet
        n = len(fleet)
        self.active_count = np.zeros(n, dtype=np.int64)
        self.waiting_count = np.zeros(n, dtype=np.int64)
        self.active_context = np.zeros(n, dtype=np.int64)
        self.waiting_context = np.zeros(n, dtype=np.int64)
        self.remaining_tokens = np.zeros(n, dtype=np.int64)
        self.current_tlp = np.zeros(n, dtype=np.int64)
        self.max_batch = np.asarray(
            [replica.max_batch_size for replica in fleet], dtype=np.int64
        )
        self.draft_overhead = np.asarray(
            [replica.draft_overhead_per_iteration_s for replica in fleet],
            dtype=np.float64,
        )
        self.expected_tokens = np.asarray(
            [replica.expected_tokens_per_iteration for replica in fleet],
            dtype=np.float64,
        )
        # expected * max_batch, precomputed elementwise — identical to the
        # scalar probe's per-call float product.
        self._drain_denominator = self.expected_tokens * self.max_batch
        self._dirty: set = set(range(n))
        self.hits = 0
        self.misses = 0
        self._groups = self._build_groups()
        self._share_price_memos()
        # FC-planner vectorization: when every system follows one of the
        # recognized planners, probes resolve all lanes' placements as
        # array arithmetic over mirrored scheduler state instead of ~n
        # Python calls. Any unrecognized planner drops the whole fleet to
        # the per-lane reference path.
        kinds = {_planner_kind(replica.system) for replica in fleet}
        self._uniform_planner = kinds.pop() if len(kinds) == 1 else PLAN_GENERIC
        self._mirror_scheduler = self._uniform_planner == PLAN_PAPI
        if self._mirror_scheduler:
            self._sched_rlp = np.zeros(n, dtype=np.int64)
            self._sched_tlp = np.zeros(n, dtype=np.int64)
            self._sched_code = np.full(n, -1, dtype=np.int64)
            self._alpha = np.asarray(
                [replica.system.alpha for replica in fleet], dtype=np.float64
            )
        self._constant_codes = (
            np.zeros(n, dtype=np.int64)
            if self._uniform_planner == PLAN_CONSTANT_PU
            else np.ones(n, dtype=np.int64)
            if self._uniform_planner == PLAN_CONSTANT_FC
            else None
        )
        # Probe scratch buffers: a routing probe runs a fixed pipeline of
        # elementwise passes over n-lane arrays, and at fleet widths the
        # allocator — not the arithmetic — dominates a fresh-temporary
        # formulation. Every pass below writes into one of these via
        # ``out=``; none survive a probe, so reuse is safe.
        self._sc_rlp = np.empty(n, dtype=np.int64)
        self._sc_slots = np.empty(n, dtype=np.int64)
        self._sc_total = np.empty(n, dtype=np.int64)
        self._sc_ctx = np.empty(n, dtype=np.int64)
        self._sc_codes = np.empty(n, dtype=np.int64)
        self._sc_outstanding = np.empty(n, dtype=np.int64)
        self._sc_mean = np.empty(n, dtype=np.float64)
        self._sc_per = np.empty(n, dtype=np.float64)
        self._sc_own = np.empty(n, dtype=np.float64)
        self._sc_backlog = np.empty(n, dtype=np.float64)
        self._sc_mask1 = np.empty(n, dtype=np.bool_)
        self._sc_mask2 = np.empty(n, dtype=np.bool_)
        self._rlp_cap = int(self.max_batch.max())
        # Step-array identity cache: the admission controller prices the
        # fleet and immediately projects completions from the list it got
        # back; keeping the array twin of the last returned list skips a
        # list -> array round trip per consultation.
        self._last_step_list: Optional[List[float]] = None
        self._last_step_array: Optional[np.ndarray] = None
        # Incremental probe cache (homogeneous fleets): between two step
        # probes only the replicas that handled an event can have changed,
        # so the previous probe's per-lane values stay exact everywhere
        # else. ``_probe_dirty`` collects changed lanes (a second consumer
        # of ``mark_dirty``, drained independently of ``_flush``);
        # ``_probe_sensitive`` holds the lanes whose projection included
        # the candidate's own input length (``slots > waiting``) — those
        # also refresh when a probe carries a different ``input_len``.
        self._probe_values: Optional[np.ndarray] = None
        self._probe_dirty: set = set()
        self._probe_sensitive: set = set()
        self._probe_input_len = -1
        # Fleet version + verdict memos: ``version`` advances on every
        # router-visible state change (``mark_dirty``), and the memos
        # below — whole-fleet step vectors, completion vectors, and
        # routing orders keyed by the probe's plan-group key — are valid
        # exactly while the version holds still. Back-to-back arrivals
        # against an unchanged fleet (deferral storms above all) reuse
        # the prior verdict in O(1) instead of re-pricing O(lanes); any
        # admit or step event bumps the version and drops the memos
        # wholesale.
        self.version = 0
        self._memo_version = 0
        self._steps_memo: Dict[int, np.ndarray] = {}
        self._completion_memo: Dict[
            Tuple[int, int], Tuple[np.ndarray, float]
        ] = {}
        self._order_memo: Dict[int, np.ndarray] = {}
        # Request-independent factors of the completion projection,
        # shared across a frozen-version segment's distinct output
        # lengths (``per_iteration`` per steps key, ``backlog`` per
        # version).
        self._per_memo: Dict[int, np.ndarray] = {}
        self._backlog_cache: Optional[np.ndarray] = None
        self.probe_hits = 0
        self.probe_misses = 0
        self._homogeneous = (
            len(self._groups) == 1 and self._groups[0].indices is None
        )
        self._sc_slack = np.empty(n, dtype=np.float64)
        self._flush()

    # -- sequence protocol (routers treat the fleet as a list) ------------

    def __len__(self) -> int:
        return len(self._replicas)

    def __getitem__(self, index):
        return self._replicas[index]

    def __iter__(self):
        return iter(self._replicas)

    # -- counter mirroring -------------------------------------------------

    def mark_dirty(self, index: int) -> None:
        """Note that ``replicas[index]``'s counters changed.

        Advances the fleet version exactly once per call: the simulator
        marks a replica once per handled event, so the version counts
        router-visible state changes — admission/routing verdicts cached
        at an older version can never be served again (see
        :meth:`_sync_memo`). Decisions that change no fleet state (a
        rejection, a deferral) never mark, which is precisely why a
        deferral storm holds the version still and re-probes stay O(1).
        """
        self._dirty.add(index)
        self._probe_dirty.add(index)
        self.version += 1

    def _flush(self) -> None:
        dirty = self._dirty
        if not dirty:
            return
        replicas = self._replicas
        active_count = self.active_count
        waiting_count = self.waiting_count
        active_context = self.active_context
        waiting_context = self.waiting_context
        remaining_tokens = self.remaining_tokens
        current_tlp = self.current_tlp
        mirror = self._mirror_scheduler
        for index in dirty:
            replica = replicas[index]
            active_count[index] = len(replica.active)
            waiting_count[index] = len(replica.waiting)
            active_context[index] = replica._active_context_sum
            waiting_context[index] = replica._waiting_context_sum
            remaining_tokens[index] = replica._remaining_tokens
            current_tlp[index] = replica._current_tlp
            if mirror:
                scheduler = replica.system.scheduler
                self._sched_rlp[index] = scheduler.rlp
                self._sched_tlp[index] = scheduler.tlp_register.read()
                target = scheduler.current_target
                self._sched_code[index] = (
                    -1
                    if target is None
                    else 0
                    if target is PlacementTarget.PU
                    else 1
                )
        dirty.clear()

    # -- grouping ----------------------------------------------------------

    def _build_groups(self) -> List[_PriceGroup]:
        """Group replicas by interchangeable pricing.

        Same criterion as the shared price cache's scopes —
        configuration-equal system (type + dataclass equality) serving
        the same workload — plus the pricer's context accounting knobs,
        so group members can also share one step-price memo. A
        homogeneous fleet collapses to one group with ``indices=None``
        (the fast whole-array path).
        """
        members: List[Tuple[Replica, List[int]]] = []
        for index, replica in enumerate(self._replicas):
            for representative, indices in members:
                if (
                    type(representative.system) is type(replica.system)
                    and representative._workload_name == replica._workload_name
                    and representative.pricer.context_mode
                    == replica.pricer.context_mode
                    and representative.pricer.context_bucket
                    == replica.pricer.context_bucket
                    and representative.system == replica.system
                ):
                    indices.append(index)
                    break
            else:
                members.append((replica, [index]))
        if len(members) == 1:
            return [_PriceGroup(None, members[0][0])]
        return [
            _PriceGroup(np.asarray(indices, dtype=np.intp), representative)
            for representative, indices in members
        ]

    def _share_price_memos(self) -> None:
        """Give each price group's vector replicas one shared step memo.

        A step price is a pure function of ``(planned target, rlp, tlp,
        context key)`` on a configuration-equal system serving the same
        workload with the same context accounting — the grouping
        criterion — so one replica's priced entry is exactly what any
        group member's pricer would return (the shared step-cost cache
        relies on the same interchangeability). Sharing turns the
        per-replica warmup (each replica missing the same operating
        points) into one warm table per group.
        """
        for group in self._groups:
            indices = (
                range(len(self._replicas))
                if group.indices is None
                else group.indices.tolist()
            )
            memo: Dict[tuple, object] = {}
            prefill_memo: Dict[tuple, object] = {}
            capacity_ok: set = set()
            for index in indices:
                replica = self._replicas[index]
                if isinstance(replica, VectorReplica):
                    replica._price_memo = memo
                    replica._prefill_memo = prefill_memo
                    replica._capacity_ok = capacity_ok

    # -- vectorized probes -------------------------------------------------

    def outstanding_counts(self) -> np.ndarray:
        """Queued + active requests per replica (router ranking)."""
        self._flush()
        return np.add(
            self.active_count, self.waiting_count, out=self._sc_outstanding
        )

    def _projected_loads(self, input_len: int) -> Tuple[np.ndarray, np.ndarray]:
        """(RLP, bucketed-context table index) per replica if a request joined.

        The array twin of
        :meth:`~repro.cluster.replica.Replica.projected_admission_load`
        followed by the probes' context bucketing: the same integer sums,
        the same half-even rounding (``np.rint`` == Python ``round`` on
        the same float64), elementwise across the fleet, every pass into
        a preallocated scratch buffer. The second array is the bucketed
        mean context *divided by the bucket* (the dense-table index);
        multiply back for the probe-key value.
        """
        active = self.active_count
        waiting = self.waiting_count
        rlp = np.add(active, waiting, out=self._sc_rlp)
        rlp += 1
        np.minimum(rlp, self.max_batch, out=rlp)
        slots = np.subtract(rlp, active, out=self._sc_slots)
        total = self._sc_total
        np.copyto(total, self.active_context)
        # Saturated fleets (every batch full, deep queues) project no
        # queue tail into any lane: with all slots at zero, none of the
        # masked additions below could fire, so skip the whole pass.
        if slots.any():
            # tail: the whole queue joins (slots >= waiting); full: the
            # candidate joins too (slots > waiting).
            tail = np.greater_equal(slots, waiting, out=self._sc_mask1)
            np.add(total, self.waiting_context, out=total, where=tail)
            full = np.greater(slots, waiting, out=self._sc_mask2)
            np.add(total, input_len, out=total, where=full)
            np.logical_not(tail, out=tail)
            partial = np.logical_and(
                tail, np.greater(slots, 0, out=self._sc_mask2), out=tail
            )
            if partial.any():
                # More queued than free slots (arrivals wait while a step
                # is in flight): walk the waiting prefix exactly as the
                # scalar probe does — each queued request at its current
                # KV context (decode pools queue mid-life requests).
                replicas = self._replicas
                for index in np.nonzero(partial)[0].tolist():
                    open_slots = int(slots[index])
                    prefix = 0
                    for request in replicas[index].waiting:
                        if open_slots == 0:
                            break
                        prefix += request.input_len + request.generated
                        open_slots -= 1
                    total[index] += prefix
        # max(1, round(total / rlp)), then round to the admission bucket:
        # all values are exact small integers in float64, so staying in
        # float through both roundings is bit-identical to the int64
        # formulation.
        mean = np.divide(total, rlp, out=self._sc_mean)
        np.rint(mean, out=mean)
        np.maximum(mean, 1, out=mean)
        mean /= ADMISSION_CONTEXT_BUCKET
        np.rint(mean, out=mean)
        np.maximum(mean, 1, out=mean)
        ctx_index = self._sc_ctx
        np.copyto(ctx_index, mean, casting="unsafe")
        return rlp, ctx_index

    def fleet_step_seconds(self, request: Request) -> List[float]:
        """Projected next-iteration seconds for every replica.

        Bit-identical lane-for-lane to
        :func:`~repro.cluster.router.projected_step_seconds` over each
        replica: the same projected batch shapes, the same grid point
        priced at the same pinned FC target — only the bookkeeping is
        arrays and dense tables instead of dicts.
        """
        values = self._fleet_step_array(request)
        result = values.tolist()
        self._last_step_array = values
        self._last_step_list = result
        return result

    def _fleet_step_array(self, request: Request) -> np.ndarray:
        """:meth:`fleet_step_seconds` as a float64 array.

        Homogeneous fleets run the incremental path: the cached previous
        probe stays valid lane-for-lane except where an event touched a
        replica (``_probe_dirty``) or the candidate's input length enters
        the projection (``_probe_sensitive``); only those lanes recompute
        — scalar arithmetic identical to the vector passes. Heterogeneous
        fleets (several price groups) take the full vector path.
        """
        self._flush()
        groups = self._groups
        if len(groups) == 1 and groups[0].indices is None:
            values = self._probe_values
            if values is None:
                return self._rebuild_probe(groups[0], request.input_len)
            lanes = self._probe_dirty
            input_len = request.input_len
            if input_len != self._probe_input_len:
                lanes |= self._probe_sensitive
                self._probe_input_len = input_len
            misses = 0
            if lanes:
                if len(lanes) * 4 >= values.shape[0]:
                    # Most of the fleet moved (step burst between two
                    # probes): one vector pass beats a long scalar loop.
                    return self._rebuild_probe(groups[0], input_len)
                misses = self._refresh_lanes(groups[0], lanes, input_len)
                lanes.clear()
            self.misses += misses
            self.hits += values.shape[0] - misses
            return values
        rlp, ctx_index = self._projected_loads(request.input_len)
        tlp = self.current_tlp
        codes = self._plan_codes(rlp, tlp)
        out = np.empty(len(self._replicas), dtype=np.float64)
        for group in groups:
            idx = group.indices
            g_codes = codes[idx]
            g_rlp = rlp[idx]
            g_tlp = tlp[idx]
            g_ctx = ctx_index[idx]
            group.ensure(
                int(g_rlp.max()), int(g_tlp.max()), int(g_ctx.max())
            )
            values = group.table[g_codes, g_rlp, g_tlp, g_ctx]
            missing = np.isnan(values)
            miss_count = int(missing.sum())
            if miss_count:
                self._price_group_misses(
                    group, g_codes, g_rlp, g_tlp,
                    g_ctx * ADMISSION_CONTEXT_BUCKET, values, missing,
                )
                self.misses += miss_count
            self.hits += values.shape[0] - miss_count
            out[idx] = values
        return out

    def _rebuild_probe(self, group: _PriceGroup, input_len: int) -> np.ndarray:
        """Full vector probe that seeds the incremental cache."""
        rlp, ctx_index = self._projected_loads(input_len)
        # ``_projected_loads`` leaves the open-slot counts in its scratch
        # buffer; a lane is input-sensitive exactly when the candidate
        # itself joins the projection (slots > waiting). Snapshot before
        # ``_plan_codes`` reuses the buffers.
        sensitive = np.greater(
            self._sc_slots, self.waiting_count, out=self._sc_mask1
        )
        self._probe_sensitive = set(np.nonzero(sensitive)[0].tolist())
        tlp = self.current_tlp
        codes = self._plan_codes(rlp, tlp)
        group.ensure(self._rlp_cap, int(tlp.max()), int(ctx_index.max()))
        values = group.table[codes, rlp, tlp, ctx_index]
        missing = np.isnan(values)
        miss_count = int(missing.sum())
        if miss_count:
            self._price_group_misses(
                group, codes, rlp, tlp,
                ctx_index * ADMISSION_CONTEXT_BUCKET, values, missing,
            )
            self.misses += miss_count
        self.hits += values.shape[0] - miss_count
        self._probe_values = values
        self._probe_input_len = input_len
        self._probe_dirty.clear()
        return values

    def _refresh_lanes(
        self, group: _PriceGroup, lanes: set, input_len: int
    ) -> int:
        """Recompute the cached probe's stale lanes; returns miss count.

        Scalar twin of one lane of the vector probe: the same projected
        batch shape (``projected_admission_load``'s arithmetic), the same
        two half-even roundings (Python ``round`` == ``np.rint`` on the
        same float64 quotients), the same per-replica placement
        resolution, the same dense table — so a refreshed lane is
        bit-identical to what the full vector pass would produce.
        """
        # Lanes mutate in place, so the identity cache handed to the
        # completion probe is stale from here on.
        self._last_step_list = None
        self._last_step_array = None
        replicas = self._replicas
        table = group.table
        values = self._probe_values
        sensitive = self._probe_sensitive
        bucket = ADMISSION_CONTEXT_BUCKET
        mirror = self._mirror_scheduler
        constant = self._constant_codes
        misses = 0
        for i in lanes:
            replica = replicas[i]
            active = len(replica.active)
            waiting_n = len(replica.waiting)
            rlp = active + waiting_n + 1
            max_batch = replica.max_batch_size
            if rlp > max_batch:
                rlp = max_batch
            slots = rlp - active
            total = replica._active_context_sum
            if slots > waiting_n:
                total += replica._waiting_context_sum + input_len
                sensitive.add(i)
            else:
                sensitive.discard(i)
                if slots == waiting_n:
                    total += replica._waiting_context_sum
                elif slots > 0:
                    # More queued than free slots: walk the prefix, each
                    # request at its current KV context.
                    for queued in replica.waiting:
                        if slots == 0:
                            break
                        total += queued.input_len + queued.generated
                        slots -= 1
            mean = max(1, round(total / rlp))
            ctx = max(1, round(mean / bucket))
            tlp = replica._current_tlp
            if mirror:
                scheduler = replica.system.scheduler
                target = scheduler.current_target
                if (
                    target is not None
                    and scheduler.rlp == rlp
                    and scheduler.tlp_register.read() == tlp
                ):
                    code = 0 if target is PlacementTarget.PU else 1
                else:
                    code = 1 if rlp * tlp <= replica.system.alpha else 0
            elif constant is not None:
                code = int(constant[i])
            else:
                code = TARGET_CODES[
                    replica.system.plan_fc_target(rlp, tlp)
                ]
            shape = table.shape
            if rlp >= shape[1] or tlp >= shape[2] or ctx >= shape[3]:
                group.ensure(max(rlp, self._rlp_cap), tlp, ctx)
                table = group.table
            value = table[code, rlp, tlp, ctx]
            if value != value:  # NaN: unseen operating point
                value = self._price_lane(group, code, rlp, tlp, ctx)
                misses += 1
            values[i] = value
        return misses

    def _price_lane(
        self, group: _PriceGroup, code: int, rlp: int, tlp: int, ctx: int
    ) -> float:
        """Price one unseen operating point (the incremental miss path).

        The one-lane case of :meth:`_price_group_misses`: the same
        pinned-target :func:`price_steps_at` call over a one-point grid.
        """
        representative = group.representative
        grid = build_step_grid(
            representative.model,
            [rlp],
            [tlp],
            [ctx * ADMISSION_CONTEXT_BUCKET],
            moe=representative.moe,
        )
        priced = price_steps_at(
            representative.system, grid, (CODE_TARGETS[code],)
        )
        value = float(priced.seconds[0])
        group.table[code, rlp, tlp, ctx] = value
        group.entries += 1
        return value

    def _plan_codes(self, rlp: np.ndarray, tlp: np.ndarray) -> np.ndarray:
        """Every lane's planned FC placement code for a probe's loads.

        FC placement is per-replica *state* (PAPI's standing decision can
        lag the stateless rule right after a TLP register write), so each
        lane resolves against its own replica's scheduler — as array
        arithmetic over the mirrored scheduler state when the fleet's
        planners are recognized (:data:`_PLAN_KINDS`), through each
        replica's ``plan_fc_target`` otherwise (the reference probes'
        exact discipline either way).
        """
        if self._mirror_scheduler:
            sched_code = self._sched_code
            standing = np.greater_equal(sched_code, 0, out=self._sc_mask1)
            np.logical_and(
                standing,
                np.equal(rlp, self._sched_rlp, out=self._sc_mask2),
                out=standing,
            )
            np.logical_and(
                standing,
                np.equal(tlp, self._sched_tlp, out=self._sc_mask2),
                out=standing,
            )
            if standing.all():
                # Steady state: every lane's projection matches its
                # scheduler's standing decision — the mirror array *is*
                # the answer (callers only read it).
                return self._sched_code
            # Formula lanes: FC_PIM (code 1) iff rlp * tlp <= alpha.
            estimate = np.multiply(rlp, tlp, out=self._sc_slots)
            formula = np.less_equal(estimate, self._alpha, out=self._sc_mask2)
            codes = self._sc_codes
            np.copyto(codes, formula, casting="unsafe")
            np.copyto(codes, sched_code, where=standing)
            return codes
        if self._constant_codes is not None:
            return self._constant_codes
        replicas = self._replicas
        rlp_list = rlp.tolist()
        tlp_list = tlp.tolist()
        codes = np.empty(len(replicas), dtype=np.int64)
        for i, replica in enumerate(replicas):
            codes[i] = TARGET_CODES[
                replica.system.plan_fc_target(rlp_list[i], tlp_list[i])
            ]
        return codes

    def _price_group_misses(
        self,
        group: _PriceGroup,
        g_codes: np.ndarray,
        g_rlp: np.ndarray,
        g_tlp: np.ndarray,
        g_bucketed: np.ndarray,
        values: np.ndarray,
        missing: np.ndarray,
    ) -> None:
        """Price a probe's unseen operating points and fill the table.

        Identical projections collapse to one grid lane; lanes are priced
        in a single pinned-target :func:`price_steps_at` call, with each
        lane's FC target pinned to what its replica planned.
        """
        lanes: Dict[Tuple[int, int, int, int], List[int]] = {}
        for position in np.nonzero(missing)[0].tolist():
            key = (
                int(g_codes[position]),
                int(g_rlp[position]),
                int(g_tlp[position]),
                int(g_bucketed[position]),
            )
            lanes.setdefault(key, []).append(position)
        representative = group.representative
        keys = list(lanes)
        targets = tuple(CODE_TARGETS[key[0]] for key in keys)
        grid = build_step_grid(
            representative.model,
            [key[1] for key in keys],
            [key[2] for key in keys],
            [key[3] for key in keys],
            moe=representative.moe,
        )
        priced = price_steps_at(representative.system, grid, targets)
        table = group.table
        bucket = ADMISSION_CONTEXT_BUCKET
        for lane, key in enumerate(keys):
            value = float(priced.seconds[lane])
            table[key[0], key[1], key[2], key[3] // bucket] = value
            for position in lanes[key]:
                values[position] = value
        group.entries += len(keys)

    def fleet_completion_seconds(
        self,
        request: Request,
        step_seconds: Optional[Sequence[float]] = None,
    ) -> List[float]:
        """Projected completion seconds for every replica.

        Bit-identical lane-for-lane to
        :func:`~repro.cluster.router.projected_completion_seconds`: the
        same ceil / backlog-drain arithmetic, elementwise.
        """
        if step_seconds is None:
            steps = self._fleet_step_array(request)
        elif step_seconds is self._last_step_list:
            # The admission controller (and the slo-slack router) hand
            # back the exact list the step probe just returned; reuse its
            # array twin instead of re-converting.
            steps = self._last_step_array
        else:
            steps = np.asarray(step_seconds, dtype=np.float64)
        self._flush()
        per_iteration = np.add(steps, self.draft_overhead, out=self._sc_per)
        own = np.divide(
            request.output_len, self.expected_tokens, out=self._sc_own
        )
        np.ceil(own, out=own)
        backlog = np.divide(
            self.remaining_tokens, self._drain_denominator,
            out=self._sc_backlog,
        )
        np.add(own, backlog, out=own)
        np.multiply(own, per_iteration, out=own)
        return own.tolist()

    # -- version-keyed verdict memos -----------------------------------

    #: Residency bound on each verdict memo. Distinct keys per version
    #: are naturally few (a handful of input-length buckets); the cap is
    #: a backstop against pathological traces, and clearing a memo can
    #: only cost recomputation, never correctness.
    VERDICT_MEMO_ENTRIES = 1 << 13

    def _sync_memo(self) -> None:
        """Drop every memoized verdict older than the current version."""
        if self._memo_version != self.version:
            self._steps_memo.clear()
            self._completion_memo.clear()
            self._order_memo.clear()
            self._per_memo.clear()
            self._backlog_cache = None
            self._memo_version = self.version

    def _steps_key(self, input_len: int) -> int:
        """The plan-group key a probe's step vector depends on.

        A probe reads the candidate's ``input_len`` only through lanes
        whose projection includes the candidate itself (``slots >
        waiting`` — the ``_probe_sensitive`` set, a pure function of
        fleet state and therefore fixed per version). A saturated
        homogeneous fleet has no such lane, so every input length maps to
        one shared key (``-1``) — the case deferral storms live in.
        Valid only after at least one probe ran at the current version
        (memos are cleared on every bump, so a non-empty memo implies the
        sensitive set reflects the current state).
        """
        if self._homogeneous and not self._probe_sensitive:
            return -1
        return input_len

    def probe_steps(self, request: Request) -> np.ndarray:
        """Version-memoized whole-fleet step vector.

        A hit returns the prior probe's array with zero recomputation; a
        miss runs :meth:`_fleet_step_array` (incremental per-lane refresh
        underneath) and memoizes a copy, so later in-place lane refreshes
        for a *different* input length can never corrupt this entry.
        Bit-identical either way: within one version no counter a probe
        reads has changed, so a recompute would reproduce the exact same
        floats.
        """
        self._sync_memo()
        memo = self._steps_memo
        if memo:
            values = memo.get(self._steps_key(request.input_len))
            if values is not None:
                self.probe_hits += 1
                return values
        self.probe_misses += 1
        values = self._fleet_step_array(request).copy()
        if len(memo) >= self.VERDICT_MEMO_ENTRIES:
            memo.clear()
        memo[self._steps_key(request.input_len)] = values
        return values

    def _steps_for(self, request: Request) -> np.ndarray:
        """:meth:`probe_steps` without touching the query counters.

        For internal second reads inside one logical query (the slack
        router needs both the completion vector and the step vector):
        the query already counted once, so this lookup must not.
        """
        memo = self._steps_memo
        if memo:
            values = memo.get(self._steps_key(request.input_len))
            if values is not None:
                return values
        values = self._fleet_step_array(request).copy()
        if len(memo) >= self.VERDICT_MEMO_ENTRIES:
            memo.clear()
        memo[self._steps_key(request.input_len)] = values
        return values

    def probe_min_batch(
        self, requests: Sequence[Request]
    ) -> Optional[np.ndarray]:
        """Best projected completions for a slice of arrivals, one pass.

        Every member is priced against the *current* fleet version,
        whose projections differ across members only through
        ``output_len`` when no lane is input-sensitive. One
        ``(members, replicas)`` broadcast of the completion arithmetic —
        the same elementwise op sequence as
        :meth:`probe_completions`, so row ``j`` is bit-identical to the
        scalar probe for member ``j`` — prices the whole slice; the
        row-wise minimum is exactly what :meth:`probe_min_completion`
        would return member by member. Returns ``None`` when members'
        step vectors could differ (input-sensitive lanes, heterogeneous
        fleet); callers fall back to the per-member probe. Counts one
        query (the shared step-vector lookup) per call.

        No event loop calls it (admission always probes member by
        member through ``SLOAdmissionController.decide``); it stays
        while ``perfbench/tracer.py`` wraps it by name.
        """
        self._sync_memo()
        if self._steps_memo and (
            not self._homogeneous or self._probe_sensitive
        ):
            # A probe already ran at this version, so the sensitivity
            # set is current: bail before doing any projection work.
            return None
        steps = self.probe_steps(requests[0])
        if not self._homogeneous or self._probe_sensitive:
            return None
        per_iteration = self._per_memo.get(-1)
        if per_iteration is None:
            per_iteration = np.add(steps, self.draft_overhead)
            self._per_memo[-1] = per_iteration
        backlog = self._backlog_cache
        if backlog is None:
            backlog = self._backlog_cache = np.divide(
                self.remaining_tokens, self._drain_denominator
            )
        outputs = np.array(
            [request.output_len for request in requests], dtype=np.int64
        )
        grid = np.divide(outputs[:, None], self.expected_tokens)
        np.ceil(grid, out=grid)
        np.add(grid, backlog, out=grid)
        np.multiply(grid, per_iteration, out=grid)
        return grid.min(axis=1)

    def probe_completions(self, request: Request) -> Tuple[np.ndarray, float]:
        """Version-memoized ``(completion vector, minimum)`` pair.

        The completion arithmetic is exactly
        :meth:`fleet_completion_seconds`'s (same elementwise ops, same
        scratch discipline); the memo key extends the step key with the
        candidate's ``output_len`` (the only other request field the
        projection reads). The cached minimum equals ``min()`` over the
        probe's list form — one float compared bit-for-bit by the
        admission controller.
        """
        self._sync_memo()
        memo = self._completion_memo
        if memo:
            entry = memo.get(
                (self._steps_key(request.input_len), request.output_len)
            )
            if entry is not None:
                self.probe_hits += 1
                return entry
        # The query counts exactly once — through the step-vector lookup
        # below (hit when the probe vector was reused and only the four
        # elementwise completion passes ran, miss when the whole fleet
        # probe recomputed).
        steps = self.probe_steps(request)
        key = self._steps_key(request.input_len)
        # ``per_iteration`` and ``backlog`` are request-independent (per
        # steps key / per version respectively): compute each once per
        # frozen-version segment and let every distinct output length in
        # the segment reuse them — the same float64 operands the
        # unshared pipeline would rebuild, so results are bit-identical.
        per_iteration = self._per_memo.get(key)
        if per_iteration is None:
            per_iteration = np.add(steps, self.draft_overhead)
            self._per_memo[key] = per_iteration
        backlog = self._backlog_cache
        if backlog is None:
            backlog = self._backlog_cache = np.divide(
                self.remaining_tokens, self._drain_denominator
            )
        completions = np.divide(request.output_len, self.expected_tokens)
        np.ceil(completions, out=completions)
        np.add(completions, backlog, out=completions)
        np.multiply(completions, per_iteration, out=completions)
        entry = (completions, float(completions.min()))
        if len(memo) >= self.VERDICT_MEMO_ENTRIES:
            memo.clear()
        memo[(key, request.output_len)] = entry
        return entry

    def probe_min_completion(self, request: Request) -> float:
        """The admission controller's fast path: best projected completion.

        Equals ``min(fleet_completion_seconds(request))`` — the value
        the admission controller compares against the deadline — via
        the version memo. The hit path is hand-inlined (version check,
        steps key, one dict probe): deferral storms take it millions of
        times per trace, so every avoided method call is wall-clock.
        """
        if self._memo_version != self.version:
            self._sync_memo()
        memo = self._completion_memo
        if memo:
            key = (
                -1
                if (self._homogeneous and not self._probe_sensitive)
                else request.input_len
            )
            entry = memo.get((key, request.output_len))
            if entry is not None:
                self.probe_hits += 1
                return entry[1]
        return self.probe_completions(request)[1]

    def _cost_order(self, request: Request, steps: np.ndarray) -> np.ndarray:
        """Replica indices by (step cost, outstanding, index), memoized.

        ``np.lexsort`` is stable with the last key primary, so the order
        ranks exactly the reference tuple-min criterion; ``steps`` must
        come from :meth:`probe_steps` at the current version (which also
        makes the memo key valid).
        """
        memo = self._order_memo
        key = self._steps_key(request.input_len)
        order = memo.get(key)
        if order is None:
            order = np.lexsort((self.outstanding_counts(), steps))
            if len(memo) >= self.VERDICT_MEMO_ENTRIES:
                memo.clear()
            memo[key] = order
        return order

    def route_min_cost(self, request: Request) -> int:
        """The min-cost router's verdict via the version memo.

        Identical to the reference router's ``min`` over (cost,
        outstanding, index) tuples — ``np.lexsort`` is stable with its
        last key primary — with both the step vector and the sorted
        order reused while the version holds still.
        """
        self._sync_memo()
        steps = self.probe_steps(request)
        return int(self._cost_order(request, steps)[0])

    def route_slo_slack(self, request: Request, now: float) -> int:
        """The slo-slack router's verdict via the version memos.

        Best-effort requests degrade to :meth:`route_min_cost` exactly as
        the reference does. Deadline requests recompute only the slack —
        elementwise ``deadline - (now + c)``, never algebraically
        rearranged, so feasibility tests see bit-identical floats — and
        reuse the memoized cost order: the first feasible index in the
        global (cost, outstanding, index) order is precisely the
        feasible-subset tuple minimum, so the verdict matches the
        reference branch for branch. The all-infeasible
        fallback (reachable only for deadline traffic that bypassed
        admission) ranks by most slack exactly as the reference.
        """
        deadline = request.deadline_s
        if deadline is None:
            return self.route_min_cost(request)
        self._sync_memo()
        completions, _ = self.probe_completions(request)
        steps = self._steps_for(request)
        slack = np.add(completions, now, out=self._sc_slack)
        np.subtract(deadline, slack, out=slack)
        feasible = np.greater_equal(slack, 0.0, out=self._sc_mask1)
        if feasible.any():
            order = self._cost_order(request, steps)
            return int(order[int(np.argmax(feasible[order]))])
        counts = self.outstanding_counts()
        return int(np.lexsort((counts, steps, np.negative(slack)))[0])

    def price_run(self, requests: Sequence[Request]) -> int:
        """Warm the dense price tables for a run of arrivals in one pass.

        For every distinct input length in the run, project the fleet's
        post-admission loads and collect the table points no probe has
        priced yet; all missing points are then priced through a *single*
        pinned-target :func:`price_steps_at` call per price group (table
        entries are pure functions of their key, so prefetching ahead of
        the member-by-member admission decisions is always sound — an
        admit between members only changes *which* keys later members
        look up, and those recompute through the incremental lane
        refresh). Returns the number of newly priced operating points.

        No event loop calls it (probes price missing points through the
        incremental lane refresh, to the same floats); it stays while
        ``perfbench/tracer.py`` wraps it by name.
        """
        self._flush()
        groups = self._groups
        pending: List[Dict[Tuple[int, int, int, int], None]] = [
            {} for _ in groups
        ]
        seen: set = set()
        for request in requests:
            input_len = request.input_len
            if input_len in seen:
                continue
            seen.add(input_len)
            rlp, ctx_index = self._projected_loads(input_len)
            # ``_projected_loads`` leaves the open-slot counts in its
            # scratch; when no lane projects the candidate itself
            # (saturated fleet), every input length shares one
            # projection — one pass covers the whole run.
            input_sensitive = bool(
                np.greater(
                    self._sc_slots, self.waiting_count, out=self._sc_mask1
                ).any()
            )
            tlp = self.current_tlp
            codes = self._plan_codes(rlp, tlp)
            for position, group in enumerate(groups):
                idx = group.indices
                if idx is None:
                    g_codes, g_rlp, g_tlp, g_ctx = codes, rlp, tlp, ctx_index
                else:
                    g_codes = codes[idx]
                    g_rlp = rlp[idx]
                    g_tlp = tlp[idx]
                    g_ctx = ctx_index[idx]
                group.ensure(
                    int(g_rlp.max()), int(g_tlp.max()), int(g_ctx.max())
                )
                values = group.table[g_codes, g_rlp, g_tlp, g_ctx]
                missing = np.isnan(values)
                if missing.any():
                    want = pending[position]
                    for lane in np.nonzero(missing)[0].tolist():
                        want[
                            (
                                int(g_codes[lane]),
                                int(g_rlp[lane]),
                                int(g_tlp[lane]),
                                int(g_ctx[lane]),
                            )
                        ] = None
            if not input_sensitive:
                break
        priced_points = 0
        for group, want in zip(groups, pending):
            if not want:
                continue
            keys = list(want)
            representative = group.representative
            grid = build_step_grid(
                representative.model,
                [key[1] for key in keys],
                [key[2] for key in keys],
                [key[3] * ADMISSION_CONTEXT_BUCKET for key in keys],
                moe=representative.moe,
            )
            priced = price_steps_at(
                representative.system,
                grid,
                tuple(CODE_TARGETS[key[0]] for key in keys),
            )
            table = group.table
            for lane, key in enumerate(keys):
                table[key[0], key[1], key[2], key[3]] = float(
                    priced.seconds[lane]
                )
            group.entries += len(keys)
            priced_points += len(keys)
        return priced_points

    # -- reporting ---------------------------------------------------------

    def price_stats(self) -> Dict[str, float]:
        """Probe-table counters, shaped like the price cache's stats."""
        total = self.hits + self.misses
        entries = sum(group.entries for group in self._groups)
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "systems": len(self._groups),
            "entries": entries,
            "max_entries": entries,
        }

    def memo_stats(self) -> Dict[str, float]:
        """Verdict-memo effectiveness counters for the cluster report.

        ``probe_hits`` / ``probe_misses`` count *queries* — admission
        probes and routing verdicts — exactly once each: a miss is a
        query that recomputed the whole-fleet probe vector, a hit is one
        answered from the version-keyed memos (a cached verdict, or a
        verdict assembled from the memoized probe vector and segment
        factors). ``version_bumps`` is the fleet version itself — one
        bump per router-visible state change.
        """
        total = self.probe_hits + self.probe_misses
        return {
            "probe_hits": self.probe_hits,
            "probe_misses": self.probe_misses,
            "hit_rate": self.probe_hits / total if total else 0.0,
            "version_bumps": self.version,
        }
