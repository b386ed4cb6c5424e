"""Multi-replica cluster serving on one simulated event timeline.

The cluster simulator merges every replica's events on a single
:class:`~repro.serving.clock.EventCalendar`:

* ``ARRIVAL`` — the admission controller (when configured) may reject the
  request outright or defer it to a later re-arrival; otherwise the
  router assigns it to a replica, and if that replica is idle an
  ``ADMIT`` is scheduled at the same timestamp.
* ``ADMIT`` — the replica pulls waiting requests into its batch and
  schedules its next ``STEP_DONE``.
* ``STEP_DONE`` — the replica completes one decoding iteration, refills
  freed slots, and reschedules itself while it has work. On a vectorized
  colocated sessionless fleet it may instead end a frozen run that went
  lazy (see :class:`~repro.cluster.fleetstate.FleetState`).
* ``KV_TRANSFER`` — (disaggregated fleets) a prefill replica's KV
  handoff lands and the router picks the decode replica that takes it.

Replicas advance independently — one can be three iterations ahead of
another — which is exactly the behavior a wall-clock cluster would show,
and what makes per-replica utilization and FC-migration counts meaningful
evaluation outputs (cf. C2CServe / HERMES treating the cluster, not the
engine, as the unit of evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.admission import (
    AdmissionDecision,
    PathProber,
    SLOAdmissionController,
)
from repro.cluster.fleetstate import FleetState, LazyRun
from repro.cluster.interconnect import Interconnect
from repro.cluster.replica import Replica
from repro.cluster.router import Router
from repro.errors import ConfigurationError, SimulationError
from repro.serving.clock import (
    ADMIT_CODE,
    ARRIVAL_CODE,
    KV_TRANSFER_CODE,
    STEP_DONE_CODE,
    EventCalendar,
)
from repro.serving.metrics import RunSummary, latency_percentile_of
from repro.serving.request import Request, RequestPhase, RequestState

@dataclass(frozen=True)
class ReplicaReport:
    """Per-replica results of one cluster run.

    Attributes:
        replica_id: Index within the cluster.
        system: The replica's system name.
        model: The workload served (the MoE variant's name when sparse —
            mixed fleets report per-replica models).
        requests_served: Requests routed here and finished.
        tokens_generated: Accepted output tokens.
        iterations: Decoding iterations executed.
        reschedules: FC migrations between PUs and FC-PIM.
        busy_seconds: Prefill + decode + draft time.
        utilization: ``busy_seconds`` over the cluster makespan.
        acceptance_rate: Observed fraction of drafted tokens accepted
            (1.0 when the replica never speculated).
        expert_token_visits: Total token-expert visits routed through the
            replica's MoE FFN (0 for dense replicas).
        mean_active_experts: Mean distinct experts activated per
            iteration (0 for dense replicas).
        summary: The replica's full run summary.
        role: Pool role served (``colocated`` / ``prefill`` / ``decode``).
        requests_transferred: Requests this replica handed to the decode
            pool at first token (prefill-role replicas only; 0 elsewhere).
    """

    replica_id: int
    system: str
    model: str
    requests_served: int
    tokens_generated: int
    iterations: int
    reschedules: int
    busy_seconds: float
    utilization: float
    acceptance_rate: float
    expert_token_visits: int
    mean_active_experts: float
    summary: RunSummary
    role: str = "colocated"
    requests_transferred: int = 0


@dataclass(frozen=True)
class PoolReport:
    """Per-pool rollup of a disaggregated cluster run.

    Attributes:
        role: ``prefill`` or ``decode``.
        replicas: Replica count in the pool.
        requests_served: Requests that *finished* at this pool's replicas
            (single-token requests finish in the prefill pool; everything
            else finishes in decode).
        requests_transferred: KV handoffs the pool emitted (prefill) —
            always 0 for the decode pool.
        tokens_generated: Accepted output tokens produced in the pool.
        busy_seconds: Summed prefill + decode + draft time.
        utilization: ``busy_seconds`` over ``replicas x makespan``.
        queueing_seconds: Summed request wait (arrival-to-admission for
            prefill, transfer-landing-to-admission for decode).
    """

    role: str
    replicas: int
    requests_served: int
    requests_transferred: int
    tokens_generated: int
    busy_seconds: float
    utilization: float
    queueing_seconds: float


@dataclass(frozen=True)
class TenantReport:
    """Per-tenant results of one cluster run.

    Attributes:
        tenant: Traffic-class label (``Request.tenant``).
        submitted: Requests the tenant's trace offered.
        admitted: Requests admitted into a replica (and, because the
            cluster drains fully, served).
        rejected: Requests dropped by admission control.
        deferrals: Deferral events (one request may defer several times).
        served: Requests that finished decoding.
        p50_latency_s / p99_latency_s / mean_latency_s: Arrival-to-
            ``<eos>`` latency over the tenant's served requests (0.0 when
            nothing was served).
        slo_p99_seconds: The tenant's per-request latency budget
            (0.0 = best effort).
        slo_attainment: Fraction of *submitted* requests that finished
            within their deadline — rejected requests count as misses, so
            shedding load cannot inflate the score. Best-effort tenants
            attain on every served request.
    """

    tenant: str
    submitted: int
    admitted: int
    rejected: int
    deferrals: int
    served: int
    p50_latency_s: float
    p99_latency_s: float
    mean_latency_s: float
    slo_p99_seconds: float
    slo_attainment: float


@dataclass(frozen=True)
class ClusterSummary:
    """Aggregated results of one cluster run.

    Attributes:
        router: Routing policy name.
        model: Model name.
        makespan_seconds: Arrival of the first request to the last
            completion, on the simulated clock.
        total_requests: Requests served across all replicas.
        replicas: Per-replica reports, in replica order.
        router_cache: Admission-price-cache counters (hits, misses,
            hit_rate, entries, max_entries) for price-aware routers;
            empty for stateless policies.
        probe_memo: Fleet-version verdict-memo counters from the
            vectorized core (probe_hits, probe_misses, hit_rate,
            version_bumps); empty under the scalar core.
        tenants: Per-tenant reports keyed by tenant name, in trace
            arrival order (single-tenant runs report one ``default``
            entry).
        pools: Per-pool rollups keyed by role (``prefill`` / ``decode``)
            for disaggregated fleets; empty on colocated runs.
        ttft: Time-to-first-token statistics over requests that reached
            a prefill replica (``mean_s`` / ``p50_s`` / ``p99_s`` /
            ``samples``); empty on colocated runs, where first-token
            time is not tracked separately.
        transfer_wait: KV-transfer wait statistics (first token to
            transfer completion) over handed-off requests, same keys;
            empty on colocated runs.
        prefix_cache: Summed prefix-cache counters across the fleet's
            caches (hits, misses, evictions, cached_tokens, hit_rate);
            empty when no replica carries a cache.
        sessions: Session-workload statistics (session/turn counts,
            prefix tokens served from cache, and follow-up-turn latency
            under ``followup_latency``); empty on session-free traces.
        step_macro: Macro-stepping counters summed across the fleet:
            ``macro_steps`` (closed-form advances committed),
            ``iterations_compressed`` (iterations they covered),
            ``completion_runs`` (runs carried past at least one slot
            completion, each committed inline), ``lazy_runs`` (frozen
            runs left uncommitted past foreign events as lazy lanes),
            ``lazy_cuts`` (lazy lanes committed early because routing
            sent their batch a request it could admit, or a deferral
            would tie them), and ``fallback_<reason>`` counts for runs
            that stepped per-iteration instead (``admittable``,
            ``finish_due`` — a slot finishes within ``MACRO_MIN_RUN``
            iterations and no completion run was planned, mostly
            because the in-flight iteration completes at or past the
            next interaction event — ``iteration_cap``, plus the
            static ``context_mode`` / ``tlp_policy`` /
            ``speculation_draws`` latches). Only a vectorized colocated
            sessionless fleet macro-steps, so the counters are empty on
            the scalar core and on session or disaggregated fleets.
    """

    router: str
    model: str
    makespan_seconds: float
    total_requests: int
    replicas: List[ReplicaReport]
    router_cache: Dict[str, float] = field(default_factory=dict)
    probe_memo: Dict[str, float] = field(default_factory=dict)
    tenants: Dict[str, TenantReport] = field(default_factory=dict)
    pools: Dict[str, PoolReport] = field(default_factory=dict)
    ttft: Dict[str, float] = field(default_factory=dict)
    transfer_wait: Dict[str, float] = field(default_factory=dict)
    prefix_cache: Dict[str, float] = field(default_factory=dict)
    sessions: Dict[str, object] = field(default_factory=dict)
    step_macro: Dict[str, float] = field(default_factory=dict)

    @cached_property
    def request_latencies(self) -> List[float]:
        """Pooled arrival-to-``<eos>`` latencies across replicas.

        Computed once and cached on first access — ``mean_latency`` and
        every ``latency_percentile`` call share one pooled list instead
        of re-concatenating the fleet's latency arrays per metric, which
        matters when reports query several percentiles over a
        million-request trace. The replica summaries are final by the
        time a :class:`ClusterSummary` exists, so the cache cannot go
        stale.

        Contract: returns the empty list (never raises) when nothing was
        served — e.g. when admission control rejected the whole trace.
        """
        pooled: List[float] = []
        for report in self.replicas:
            pooled.extend(report.summary.request_latencies)
        return pooled

    @property
    def total_reschedules(self) -> int:
        """FC migrations across all replicas (lower is steadier)."""
        return sum(report.reschedules for report in self.replicas)

    @property
    def tokens_generated(self) -> int:
        return sum(report.tokens_generated for report in self.replicas)

    @property
    def tokens_per_second(self) -> float:
        """Cluster goodput: accepted tokens per makespan second."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.tokens_generated / self.makespan_seconds

    @property
    def mean_latency(self) -> float:
        latencies = self.request_latencies
        if not latencies:
            return 0.0
        return sum(latencies) / len(latencies)

    def latency_percentile(self, percentile: float) -> float:
        """Pooled per-request latency percentile (e.g. 50, 99).

        Contract: an empty sample (no requests served, e.g. a fully
        rejected trace) returns 0.0 instead of raising, so reports over
        admission-controlled runs never crash on the degenerate case; an
        out-of-range percentile still raises ``ConfigurationError``.
        """
        return latency_percentile_of(
            self.request_latencies, percentile, empty_value=0.0
        )


class ClusterSimulator:
    """Drives N replicas through an arrival trace under a routing policy.

    The scalar reference core (``core_mode="scalar"``): every routing and
    admission probe walks the plain replica list through the per-replica
    reference projections, and every replica steps one iteration at a
    time (no macro-stepping). It is the oracle the
    :class:`VectorizedClusterSimulator` is pinned against, bit for bit.
    Both cores, on every fleet topology, drain the same
    :class:`~repro.serving.clock.EventCalendar` through one event loop
    (:meth:`_run_strict`), and admission is always
    :meth:`SLOAdmissionController.decide`. The cores differ there only in
    the fleet view routing and admission probe (:attr:`fleet`) and, on
    colocated sessionless fleets, in how far a step burst may run and
    whether it macro-steps.

    Args:
        replicas: The fleet, in replica-id order.
        router: Request-to-replica assignment policy.
        admission: Optional SLO-aware admission controller consulted on
            every arrival (including re-arrivals of deferred requests);
            ``None`` admits everything — the pre-multi-tenant behavior.
        interconnect: KV-transfer cost model between the prefill and
            decode pools; required exactly when the fleet carries
            role-typed replicas (and rejected on colocated fleets).
    """

    def __init__(
        self,
        replicas: Sequence[Replica],
        router: Router,
        admission: Optional[SLOAdmissionController] = None,
        interconnect: Optional[Interconnect] = None,
    ) -> None:
        if not replicas:
            raise ConfigurationError("cluster needs at least one replica")
        self.replicas = list(replicas)
        self.router = router
        self.admission = admission
        self.interconnect = interconnect
        # Session bookkeeping: the replica that last admitted each
        # session's turn — the one whose prefix cache could hold the
        # session's context. Arrival handling peeks it (read-only) to
        # stamp the routing-time residency hint.
        self._session_holder: Dict[int, int] = {}
        roles = {replica.role for replica in self.replicas}
        self._disaggregated = roles != {"colocated"}
        self._prefill_indices: List[int] = []
        self._decode_indices: List[int] = []
        if self._disaggregated:
            if "colocated" in roles:
                raise ConfigurationError(
                    "colocated replicas cannot mix with prefill/decode "
                    "pools; a fleet is either all-colocated or "
                    "disaggregated"
                )
            if "prefill" not in roles or "decode" not in roles:
                raise ConfigurationError(
                    "a disaggregated fleet needs both a prefill and a "
                    "decode pool"
                )
            if interconnect is None:
                raise ConfigurationError(
                    "a disaggregated fleet needs an interconnect "
                    "(the KV-transfer cost model)"
                )
            for index, replica in enumerate(self.replicas):
                if replica.role == "prefill":
                    self._prefill_indices.append(index)
                else:
                    self._decode_indices.append(index)
        elif interconnect is not None:
            raise ConfigurationError(
                "only disaggregated fleets (prefill/decode pools) take "
                "an interconnect"
            )
        #: The fleet view routing and admission probe: the decoding
        #: replicas (the decode pool when disaggregated). A plain list
        #: here; the vectorized core wraps it in a FleetState.
        self.fleet: Union[List[Replica], FleetState] = (
            [self.replicas[i] for i in self._decode_indices]
            if self._disaggregated
            else self.replicas
        )

    def _hint_prefix(self, request: Request) -> None:
        """Stamp the routing-time prefix-residency hint on an arrival.

        A side-effect-free ``peek`` at the session holder's cache: the
        hint lets admission and routing price the turn's discounted
        prompt pass (``prefill_len``) without perturbing LRU state. The
        authoritative ``lookup`` happens at admission on whichever
        replica actually wins the request — a turn routed away from its
        holder has its hint overwritten by the (missing) lookup there.
        """
        holder = self._session_holder.get(request.session_id)
        if holder is None:
            return
        cache = self.replicas[holder].prefix_cache
        if cache is not None and request.prefix_len > 0:
            request.cached_prefix_len = cache.peek(
                request.session_id, request.prefix_len
            )

    @staticmethod
    def _load_trace(
        requests: Sequence[Request],
    ) -> Tuple[List[Request], Dict[str, Dict[str, int]], EventCalendar]:
        """Sort the trace, tally submissions per tenant, seed a calendar
        (the setup both cores' loops share)."""
        if not requests:
            raise ConfigurationError("requests must be non-empty")
        trace = sorted(requests, key=lambda r: r.arrival_s)
        stats: Dict[str, Dict[str, int]] = {}
        for request in trace:
            tally = stats.setdefault(
                request.tenant,
                {"submitted": 0, "rejected": 0, "deferrals": 0},
            )
            tally["submitted"] += 1
        calendar = EventCalendar(
            [request.arrival_s for request in trace], trace
        )
        return trace, stats, calendar

    def _spawn_followups(
        self,
        replica: Replica,
        trace: List[Request],
        stats: Dict[str, Dict[str, int]],
        calendar: EventCalendar,
    ) -> None:
        """Schedule each finished turn's follow-up as a fresh arrival.

        The follow-up's lengths and think time were pre-drawn at build
        time; only its arrival time (parent finish + think time), request
        id (its position in the growing trace — identical across cores
        because events drain in the same order), and absolute deadline
        are stamped here. A rejected turn never finishes, so its
        session's remaining turns are simply never scheduled.
        """
        for parent in replica.followups:
            turn = parent.followup
            arrival = parent.finish_s + turn.think_time_s
            turn.request_id = len(trace)
            turn.arrival_s = arrival
            turn.arrival_stamped = True
            if turn.deadline_budget_s > 0:
                turn.deadline_s = arrival + turn.deadline_budget_s
            trace.append(turn)
            stats[turn.tenant]["submitted"] += 1
            calendar.push(arrival, ARRIVAL_CODE, turn)
        replica.followups.clear()

    def _ship_transfers(
        self, replica: Replica, calendar: EventCalendar, now: float
    ) -> None:
        """Schedule a ``KV_TRANSFER`` for every outbound handoff.

        Each request's KV cache is in flight for the interconnect's cost
        of its *current* context (prompt + the first token).
        """
        interconnect = self.interconnect
        for request in replica.outbound:
            calendar.push(
                now + interconnect.transfer_seconds(request.context_len),
                KV_TRANSFER_CODE,
                request,
            )
        replica.outbound.clear()

    def run(self, requests: Sequence[Request]) -> ClusterSummary:
        """Serve an arrival-stamped trace; returns the cluster summary."""
        return self._run_strict(requests)

    def _run_strict(self, requests: Sequence[Request]) -> ClusterSummary:
        """The event loop, for both cores and every fleet topology.

        One event per pop, and a replica's inline step burst ends before
        the next event that could observe the fleet, so nothing a probe
        would read is skipped. That horizon is every pending event, and
        the burst steps one iteration at a time, except on a vectorized
        colocated sessionless fleet, where a foreign ``STEP_DONE``
        observes nothing. There alone a burst stops only at the next
        interaction event and macro-steps: a frozen batch's closed-form
        run (:meth:`Replica.plan_run`) commits inline when it ends before
        that event, as does a run carried past slot completions (which
        covers only completions before the event); a frozen run that
        passes it becomes a lazy lane of the
        :class:`FleetState` — one calendar event at the run's end, its
        completions shown to each arrival's probes as of the arrival
        (:meth:`FleetState.advance`), and the lane committed early only
        when routing sends it a request its batch has room for or a
        deferral would tie it (:meth:`FleetState.route_to` /
        :meth:`FleetState.cut_ties`). The cores otherwise differ only in
        :attr:`fleet`: a FleetState mirrors its replicas' counters, so
        the loop marks it after each enqueue and step burst on a replica
        it covers; the scalar core's replica list is read live.
        """
        trace, stats, calendar = self._load_trace(requests)
        replicas = self.replicas
        router = self.router
        admission = self.admission
        interconnect = self.interconnect
        disaggregated = self._disaggregated
        fleet = self.fleet
        decode_indices = self._decode_indices
        prefill_indices = self._prefill_indices
        prefill_pool = [replicas[index] for index in prefill_indices]
        mirrored = isinstance(fleet, FleetState)
        # Replica index -> FleetState lane, for the replicas the fleet
        # view covers (the decode pool when disaggregated).
        covered = decode_indices if disaggregated else range(len(replicas))
        fleet_slot = (
            {index: local for local, index in enumerate(covered)}
            if mirrored
            else {}
        )
        if admission is None:
            probe_view = None
        elif disaggregated:
            probe_view = PathProber(
                prefill_pool, fleet, interconnect, admission.price_cache
            )
        else:
            probe_view = fleet
        # Relaxed: on a vectorized colocated sessionless fleet a foreign
        # STEP_DONE touches only its own replica (it spawns no follow-up
        # arrival and ships no KV handoff). There a burst stops at the
        # next interaction event, and a frozen replica's closed-form run
        # that passes it becomes a lazy lane of the FleetState, with one
        # calendar event at the run's end.
        # Everywhere else, the scalar oracle included, a burst steps
        # every iteration up to the next pending event of any kind.
        relaxed = (
            mirrored
            and not disaggregated
            and all(request.session_id is None for request in trace)
        )
        horizon_of = (
            calendar.peek_interaction_time if relaxed else calendar.peek_time
        )

        # Inline bursts bypass the calendar, and a relaxed burst can run
        # past events popped later, so the makespan is the latest popped
        # event time or inlined completion seen so far.
        makespan = 0.0
        while not calendar.empty:
            now, kind, payload = calendar.pop()
            if kind == STEP_DONE_CODE and payload.__class__ is LazyRun:
                # A lazy run's event: the run commits and its last
                # iteration completes below, unless a cut committed the
                # run first (the event is stale).
                if not fleet.end_run(payload):
                    continue
                payload = payload.lane
            if now > makespan:
                makespan = now
            if kind == ARRIVAL_CODE:
                request = payload
                if relaxed:
                    fleet.advance(now)
                if request.session_id is not None:
                    self._hint_prefix(request)
                if admission is not None:
                    decision, backoff = admission.decide(
                        request, probe_view, now
                    )
                    if decision is AdmissionDecision.REJECT:
                        request.state = RequestState.REJECTED
                        stats[request.tenant]["rejected"] += 1
                        continue
                    if decision is AdmissionDecision.DEFER:
                        stats[request.tenant]["deferrals"] += 1
                        if relaxed:
                            for lane, done_at in fleet.cut_ties(
                                now, now + backoff
                            ):
                                calendar.push(done_at, STEP_DONE_CODE, lane)
                        calendar.push_arrival_after(backoff, request)
                        continue
                if disaggregated:
                    local = router.select_path(
                        request, prefill_pool, fleet, interconnect, now
                    )
                    if not 0 <= local < len(prefill_pool):
                        raise SimulationError(
                            f"router {router.name!r} returned prefill "
                            f"replica {local} of {len(prefill_pool)}"
                        )
                    index = prefill_indices[local]
                else:
                    index = router.select(request, fleet, now)
                    if not 0 <= index < len(replicas):
                        raise SimulationError(
                            f"router {router.name!r} returned replica "
                            f"{index} of {len(replicas)}"
                        )
                if request.session_id is not None:
                    self._session_holder[request.session_id] = index
                if relaxed:
                    done_at = fleet.route_to(index, now)
                    if done_at is not None:
                        calendar.push(done_at, STEP_DONE_CODE, index)
                replica = replicas[index]
                replica.enqueue(request)
                local = fleet_slot.get(index)
                if local is not None:
                    fleet.mark_dirty(local)
                if replica.idle:
                    calendar.push(now, ADMIT_CODE, index)
            elif kind == KV_TRANSFER_CODE:
                request = payload
                request.transfer_done_s = now
                request.phase = RequestPhase.DECODE
                local = router.select(request, fleet, now)
                if not 0 <= local < len(decode_indices):
                    raise SimulationError(
                        f"router {router.name!r} returned decode "
                        f"replica {local} of {len(decode_indices)}"
                    )
                index = decode_indices[local]
                replica = replicas[index]
                replica.enqueue(request)
                if mirrored:
                    fleet.mark_dirty(local)
                if replica.idle:
                    calendar.push(now, ADMIT_CODE, index)
            else:  # ADMIT_CODE / STEP_DONE_CODE
                replica = replicas[payload]
                if kind == ADMIT_CODE:
                    done_at = replica.poke(now)
                else:
                    done_at = replica.on_step_done(now)
                    if replica.followups:
                        self._spawn_followups(replica, trace, stats, calendar)
                    if replica.outbound:
                        self._ship_transfers(replica, calendar, now)
                # Inline step burst: while this replica's next completion
                # strictly precedes the horizon, nothing can observe the
                # fleet in between — run the steps back-to-back without a
                # calendar round-trip per step. An event *at* the horizon
                # holds an older sequence number than a fresh push, so it
                # wins the tie. Events pushed from inside the burst keep
                # the relative order the event-per-step loop would have
                # given them. Completions inside the burst happen at their
                # own times, not the stalled calendar clock — follow-ups
                # and KV handoffs are stamped with the inline completion
                # time, then the horizon is re-peeked. On a relaxed fleet
                # a run is priced whole instead: a frozen run commits
                # inline in closed form when it ends before the horizon,
                # and otherwise goes lazy, with one event at its end; a
                # run carried past slot completions covers only
                # completions before the horizon and always commits
                # inline.
                horizon = horizon_of()
                while done_at is not None:
                    plan = (
                        replica.plan_run(done_at, horizon) if relaxed else None
                    )
                    if plan is None:
                        if horizon is not None and done_at >= horizon:
                            break
                        step_at = done_at
                        if step_at > makespan:
                            makespan = step_at
                        done_at = replica.on_step_done(step_at)
                        if replica.followups:
                            self._spawn_followups(
                                replica, trace, stats, calendar
                            )
                            horizon = horizon_of()
                        if replica.outbound:
                            self._ship_transfers(replica, calendar, step_at)
                            horizon = horizon_of()
                    elif (
                        plan.completions is not None
                        or horizon is None
                        or plan.times[plan.cap] < horizon
                    ):
                        done_at, watermark = replica.compress_run(
                            plan, plan.cap
                        )
                        if watermark > makespan:
                            makespan = watermark
                    else:
                        run = fleet.start_lazy(payload, plan)
                        calendar.push(run.end, STEP_DONE_CODE, run)
                        done_at = None
                local = fleet_slot.get(payload)
                if local is not None:
                    fleet.mark_dirty(local)
                if done_at is not None:
                    calendar.push(done_at, STEP_DONE_CODE, payload)

        router_cache = None
        if mirrored and not disaggregated:
            # A colocated FleetState prices decode steps from its own
            # dense tables, not the router's cache: report those.
            router_cache = (
                dict(fleet.price_stats())
                if router.price_cache is not None
                else {}
            )
        return self._summarize(
            trace,
            stats,
            makespan,
            router_cache,
            dict(fleet.memo_stats()) if mirrored else None,
        )

    def _summarize(
        self,
        trace: Sequence[Request],
        stats: Dict[str, Dict[str, int]],
        makespan: float,
        router_cache: Optional[Dict[str, float]] = None,
        probe_memo: Optional[Dict[str, float]] = None,
    ) -> ClusterSummary:
        """Fold the drained fleet into a :class:`ClusterSummary`.

        ``router_cache`` overrides the admission-price counters (a
        colocated vectorized fleet reports its dense-table statistics);
        ``None`` reads the router's price cache. ``probe_memo`` carries
        the vectorized core's fleet-version verdict-memo counters (empty
        otherwise).
        """
        reports: List[ReplicaReport] = []
        for replica in self.replicas:
            summary = replica.finalize(makespan)
            reports.append(
                ReplicaReport(
                    replica_id=replica.replica_id,
                    system=summary.system,
                    model=replica.workload_name,
                    requests_served=replica.requests_served,
                    tokens_generated=summary.tokens_generated,
                    iterations=summary.iterations,
                    reschedules=summary.reschedules,
                    busy_seconds=summary.total_seconds,
                    utilization=summary.utilization,
                    acceptance_rate=replica.acceptance_rate,
                    expert_token_visits=replica.expert_token_visits,
                    mean_active_experts=replica.mean_active_experts,
                    summary=summary,
                    role=replica.role,
                    requests_transferred=replica.requests_transferred,
                )
            )
        total = sum(report.requests_served for report in reports)
        if router_cache is None:
            price_cache = self.router.price_cache
            router_cache = (
                dict(price_cache.stats()) if price_cache is not None else {}
            )
        pools: Dict[str, PoolReport] = {}
        ttft: Dict[str, float] = {}
        transfer_wait: Dict[str, float] = {}
        if self._disaggregated:
            pools = _pool_reports(reports, makespan)
            ttft = _sample_stats(
                [
                    r.first_token_s - r.arrival_s
                    for r in trace
                    if r.first_token_s >= 0.0
                ]
            )
            transfer_wait = _sample_stats(
                [
                    r.transfer_done_s - r.first_token_s
                    for r in trace
                    if r.transfer_done_s >= 0.0
                ]
            )
        step_macro: Dict[str, float] = {}
        for replica in self.replicas:
            for key, value in replica.step_macro.items():
                step_macro[key] = step_macro.get(key, 0.0) + value
        return ClusterSummary(
            router=self.router.name,
            model=self.replicas[0].workload_name,
            makespan_seconds=makespan,
            total_requests=total,
            replicas=reports,
            router_cache=router_cache,
            probe_memo=probe_memo if probe_memo is not None else {},
            tenants=_tenant_reports(trace, stats),
            pools=pools,
            ttft=ttft,
            transfer_wait=transfer_wait,
            prefix_cache=_prefix_cache_stats(self.replicas),
            sessions=_session_stats(trace),
            step_macro=step_macro,
        )


class VectorizedClusterSimulator(ClusterSimulator):
    """The array-backed cluster core (``core_mode="vectorized"``).

    Same cluster semantics as :class:`ClusterSimulator` — the equivalence
    suite pins the two cores' summaries bit-for-bit — built on two
    structural changes:

    * The fleet view (:attr:`fleet`) is a
      :class:`~repro.cluster.fleetstate.FleetState`: per-replica load
      counters mirrored into fleet-wide numpy arrays (refreshed lazily
      from a dirty set), so routing probes and admission projections run
      as vector operations across all replicas at once against dense
      price tables. In a disaggregated fleet it covers the decode pool,
      where the per-arrival probes fan out (stage-2 routing, the
      PathProber's decode term); one FleetState over a mixed-role fleet
      would mix pool semantics in every probe.
    * On a colocated sessionless fleet a replica's step burst may run
      past foreign ``STEP_DONE`` events, up to the next interaction
      event, and macro-steps: a frozen batch's closed-form run commits
      inline, or, when it passes that event, becomes a lazy lane: the
      fleet view computes its counters where an arrival's probe reads
      them, and cuts only a lane that routing sends a request its batch
      can admit. Session and disaggregated fleets keep the strict
      horizon and step every iteration, as the scalar core does, since
      a foreign completion can push a follow-up arrival or a KV handoff.

    Replicas must be :class:`~repro.cluster.fleetstate.VectorReplica`
    instances (primitive slot-array step bookkeeping); the scenario
    builder constructs them when the spec selects the vectorized core.
    """

    def __init__(
        self,
        replicas: Sequence[Replica],
        router: Router,
        admission: Optional[SLOAdmissionController] = None,
        interconnect: Optional[Interconnect] = None,
    ) -> None:
        super().__init__(replicas, router, admission, interconnect)
        self.fleet = FleetState(self.fleet)

    def run(self, requests: Sequence[Request]) -> ClusterSummary:
        """Serve an arrival-stamped trace; returns the cluster summary.

        The same loop as the scalar core's (:meth:`_run_strict`). The
        override stays so that code wrapping each simulator class's
        ``run`` once (perfbench's run clock and tracer) still tells the
        two cores apart.
        """
        return self._run_strict(requests)


def _pool_reports(
    reports: Sequence[ReplicaReport], makespan: float
) -> Dict[str, PoolReport]:
    """Roll per-replica reports up into per-role pool reports."""
    pools: Dict[str, PoolReport] = {}
    for role in ("prefill", "decode"):
        members = [report for report in reports if report.role == role]
        if not members:
            continue
        busy = sum(report.busy_seconds for report in members)
        capacity = len(members) * makespan
        pools[role] = PoolReport(
            role=role,
            replicas=len(members),
            requests_served=sum(r.requests_served for r in members),
            requests_transferred=sum(
                r.requests_transferred for r in members
            ),
            tokens_generated=sum(r.tokens_generated for r in members),
            busy_seconds=busy,
            utilization=min(1.0, busy / capacity) if capacity > 0 else 0.0,
            queueing_seconds=sum(
                r.summary.queueing_seconds for r in members
            ),
        )
    return pools


def _sample_stats(samples: Sequence[float]) -> Dict[str, float]:
    """Mean / p50 / p99 / count over a latency sample list.

    The shape both handoff metrics (time-to-first-token, KV-transfer
    wait) report; an empty sample reports zeros rather than omitting
    keys, so result consumers can rely on the fields existing whenever
    the run was disaggregated.
    """
    count = len(samples)
    return {
        "mean_s": sum(samples) / count if count else 0.0,
        "p50_s": latency_percentile_of(samples, 50, empty_value=0.0),
        "p99_s": latency_percentile_of(samples, 99, empty_value=0.0),
        "samples": float(count),
    }


def _prefix_cache_stats(replicas: Sequence[Replica]) -> Dict[str, float]:
    """Fleet-wide prefix-cache counters (empty when no replica caches).

    Counters are summed across replicas and the hit rate recomputed
    from the sums — averaging per-replica rates would weight a
    one-lookup replica the same as a thousand-lookup one.
    """
    counters = [
        replica.prefix_cache.stats()
        for replica in replicas
        if replica.prefix_cache is not None
    ]
    if not counters:
        return {}
    merged = {
        key: float(sum(c[key] for c in counters))
        for key in ("hits", "misses", "evictions", "cached_tokens")
    }
    lookups = merged["hits"] + merged["misses"]
    merged["hit_rate"] = merged["hits"] / lookups if lookups else 0.0
    return merged


def _session_stats(trace: Sequence[Request]) -> Dict[str, object]:
    """Session-workload rollup (empty when the trace has no sessions).

    ``turns_submitted`` counts session turns that actually entered the
    simulator — follow-ups whose predecessor was rejected are never
    scheduled and never appear in the trace. ``followup_latency`` covers
    non-opening turns only: opening turns are indistinguishable from
    independent requests, while follow-up latency is where prefix reuse
    and affinity routing show up.
    """
    turns = [r for r in trace if r.session_id is not None]
    if not turns:
        return {}
    finished = [r for r in turns if r.is_finished]
    return {
        "sessions": float(len({r.session_id for r in turns})),
        "turns_submitted": float(len(turns)),
        "turns_served": float(len(finished)),
        "cached_prefix_tokens": float(
            sum(r.cached_prefix_len for r in finished)
        ),
        "followup_latency": _sample_stats(
            [
                max(0.0, r.finish_s - r.arrival_s)
                for r in finished
                if r.turn_index > 0
            ]
        ),
    }


def _tenant_reports(
    trace: Sequence[Request], stats: Dict[str, Dict[str, int]]
) -> Dict[str, TenantReport]:
    """Fold per-request outcomes into per-tenant reports.

    ``trace`` is the full arrival-ordered request list (including rejected
    requests); ``stats`` the simulator's per-tenant admission counters.
    Requests are grouped by tenant in a single pass over the trace (not
    one rescan per tenant — O(tenants x trace) hurts at fleet scale).
    Attainment is computed over *submitted* requests so rejections count
    as SLO misses.
    """
    members_by_tenant: Dict[str, List[Request]] = {
        tenant: [] for tenant in stats
    }
    for request in trace:
        members_by_tenant[request.tenant].append(request)
    reports: Dict[str, TenantReport] = {}
    for tenant, tally in stats.items():
        members = members_by_tenant[tenant]
        finished = [r for r in members if r.is_finished]
        latencies = [max(0.0, r.finish_s - r.arrival_s) for r in finished]
        met = sum(1 for r in finished if r.met_deadline)
        budgets = [
            r.deadline_s - r.arrival_s
            for r in members
            if r.deadline_s is not None
        ]
        submitted = tally["submitted"]
        reports[tenant] = TenantReport(
            tenant=tenant,
            submitted=submitted,
            admitted=submitted - tally["rejected"],
            rejected=tally["rejected"],
            deferrals=tally["deferrals"],
            served=len(finished),
            p50_latency_s=latency_percentile_of(latencies, 50, empty_value=0.0),
            p99_latency_s=latency_percentile_of(latencies, 99, empty_value=0.0),
            mean_latency_s=(
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            slo_p99_seconds=max(budgets) if budgets else 0.0,
            slo_attainment=met / submitted if submitted else 0.0,
        )
    return reports
