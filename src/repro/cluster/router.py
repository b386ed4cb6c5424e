"""Pluggable request-routing policies for multi-replica serving.

The router is the cluster's admission-control brain: every arriving
request is assigned to exactly one replica, and the choice shapes both
tail latency (load balance) and scheduler behavior (how often each
replica's FC placement migrates between PUs and FC-PIM).

Six policies:

* **round-robin** — classic stateless spreading; the baseline every
  serving stack ships.
* **least-outstanding** — route to the replica with the fewest queued +
  active requests; the standard load-aware heuristic.
* **intensity** — parallelism-aware routing built on the PAPI scheduler's
  load signal (:class:`~repro.core.scheduler.LoadSignal`): prefer
  replicas whose projected ``RLP * TLP`` stays on the same side of the
  calibrated ``alpha`` crossover after admission, so batches sit firmly
  on one FC placement instead of hovering at the boundary and thrashing
  between PUs and FC-PIM as runtime RLP decays. Replicas without a load
  signal are ranked by projected admission cost (below).
* **min-cost** — price-aware routing for heterogeneous fleets: every
  replica's post-admission decoding step is priced through the
  vectorized :meth:`~repro.systems.base.ServingSystem.price_steps` path
  and the request goes to the replica whose next iteration stays
  cheapest. Because each system prices itself, a single cluster can mix
  PAPI replicas with GPU-only or PIM-only ones and the router stays
  meaningful — the paper's fixed-platform assumption is not baked in.
* **slo-slack** — min-cost extended with deadline slack for multi-tenant
  SLO traffic: requests carrying a deadline are routed to the cheapest
  replica that still meets it (most-slack when none can), while
  best-effort requests fall through to plain min-cost.
* **session-affinity** — slo-slack extended with prefix-cache locality
  for session workloads: a session's follow-up turns prefer the replica
  whose cache holds their prefix, as long as its projected cost stays
  within a tolerance of the fleet minimum (and any deadline still
  holds); non-session traffic routes exactly as slo-slack.

Each policy is written once against the *fleet view* the simulator
hands it. A plain list of scalar-core replicas answers through the
``projected_*_seconds`` reference probes, one replica at a time; the
vectorized core's :class:`~repro.cluster.fleetstate.FleetState` answers
from its two version-memoized vectors (projected step seconds and
projected completion seconds), as lists through ``fleet_*_seconds``
and as min-cost / slo-slack verdicts sorted from them by
``route_min_cost`` / ``route_slo_slack``. Both views return
bit-identical prices, so both cores route identically.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.cluster.replica import Replica
from repro.errors import ConfigurationError
from repro.models.workload import build_step_grid
from repro.serving.request import Request
from repro.serving.stepcache import SystemScopedCache

#: Context quantization for admission pricing: coarse enough that
#: consecutive arrivals projecting near-identical batches share one
#: cached price, fine enough that it never flips a routing decision the
#: cost model could defend (same bucket the design-space sweeps use).
ADMISSION_CONTEXT_BUCKET = 32

class PriceCache(SystemScopedCache):
    """Bounded LRU of projected admission prices, scoped per system.

    :class:`~repro.serving.stepcache.SystemScopedCache` specialized to
    the router hot path: long traces with decaying batches and varied
    context buckets touch an unbounded number of distinct operating
    points, so a plain dict memo grows for the whole run — this cache
    caps residency at ``max_entries`` per scope, purges a scope's
    entries when its last system is garbage-collected (so a recycled id
    can never serve another system's prices, e.g. when one router
    instance outlives a cluster run), and keeps the hit/miss counters
    the cluster report surfaces. Keys are ``(workload name, planned FC
    target, rlp, tlp, bucketed context)``; prompt-pass prices carry
    :data:`PREFILL_PRICE_TARGET` in the target slot. Configuration-equal
    systems share one scope: a price is a pure function of the system
    configuration and the key, which pins the planned FC placement.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        super().__init__(max_entries, share_equal_systems=True)


def projected_step_seconds(
    replica: Replica, request: Request, cache: Optional[PriceCache] = None
) -> float:
    """Projected next-iteration seconds if ``request`` joins ``replica``.

    Builds the hypothetical post-admission batch — active requests, then
    FIFO-queued ones, then the candidate, truncated to the replica's
    batch slots so only requests that could actually compose the next
    decode batch shape the projection — and prices one decoding step at
    the batch's (bucketed) mean context through the system's vectorized
    pricing path. This is the admission-cost signal heterogeneous fleets
    route on: each replica's own cost model answers, so a GPU-only
    system reports its launch-overhead-heavy low-batch cost, a PIM
    system its bandwidth-bound high-batch cost.

    ``cache`` memoizes prices per (system, workload, FC placement, RLP,
    TLP, bucketed context); routers pass their per-instance
    :class:`PriceCache` so the hot per-arrival path prices each distinct
    operating point once, with bounded residency across long traces. The
    planned placement is part of the key (mirroring the step-cost
    cache), so a PAPI scheduler's standing decision can never serve a
    stale price. MoE replicas price (and key) the routed expert FFN, so
    a mixed MoE + dense fleet routes on each replica's true cost.
    """
    rlp = min(replica.outstanding() + 1, replica.max_batch_size)
    contexts = replica.outstanding_context_lens()
    contexts.append(request.input_len)
    contexts = contexts[:rlp]
    mean_context = max(1, round(sum(contexts) / len(contexts)))
    bucket = ADMISSION_CONTEXT_BUCKET
    mean_context = max(bucket, round(mean_context / bucket) * bucket)
    tlp = replica.current_tlp
    system = replica.system
    if cache is not None:
        key = (
            replica.workload_name,
            system.plan_fc_target(rlp, tlp),
            rlp,
            tlp,
            mean_context,
        )
        cached = cache.get(system, key)
        if cached is not None:
            return cached
    grid = build_step_grid(
        replica.model, [rlp], [tlp], [mean_context], moe=replica.moe
    )
    seconds = float(system.price_steps(grid).seconds[0])
    if cache is not None:
        cache.put(system, key, seconds)
    return seconds


def projected_step_seconds_fleet(
    replicas: Sequence[Replica],
    request: Request,
    cache: Optional[PriceCache] = None,
) -> List[float]:
    """Projected next-iteration seconds for every replica of a fleet view.

    A :class:`~repro.cluster.fleetstate.FleetState` (the vectorized
    core's fleet view) answers through
    :meth:`~repro.cluster.fleetstate.FleetState.fleet_step_seconds`, the
    list form of its version-memoized step vector (one counted
    ``probe_memo`` query); a list of scalar-core replicas through one
    :func:`projected_step_seconds` reference probe per replica. Lanes
    are bit-identical either way.
    """
    fleet = getattr(replicas, "fleet_step_seconds", None)
    if fleet is not None:
        return fleet(request)
    return [
        projected_step_seconds(replica, request, cache)
        for replica in replicas
    ]


def projected_completion_seconds(
    replica: Replica, request: Request, cache: Optional[PriceCache] = None
) -> float:
    """Projected arrival-to-``<eos>`` seconds if ``request`` joins ``replica``.

    A coarse, monotone-in-load completion estimate built from the same
    vectorized admission price routers already compute:

    * one iteration costs :func:`projected_step_seconds` plus the
      speculation config's per-iteration draft overhead;
    * the request itself needs ``ceil(output_len / E[tokens/iteration])``
      iterations;
    * the replica's backlog delays it by roughly the time the outstanding
      output tokens take to drain at full-batch throughput —
      ``remaining_tokens / (E * max_batch_size)`` iterations — which is
      what makes a queue of long-generation requests project a much later
      completion than an equal count of short ones.

    Prefill is deliberately not charged (second-order against decode for
    the workloads modeled here): this is an *admission signal* for SLO
    risk, not a latency predictor — what matters is that it grows with
    queued work and shrinks as the cluster drains, so deferred requests
    can be admitted once load clears.
    """
    step_s = projected_step_seconds(replica, request, cache)
    per_iteration = step_s + replica.speculation.draft_overhead_s()
    expected = max(1.0, replica.speculation.expected_tokens_per_iteration())
    own = math.ceil(request.output_len / expected)
    backlog = replica.outstanding_remaining_tokens() / (
        expected * replica.max_batch_size
    )
    return (own + backlog) * per_iteration


#: Cache-key sentinel for prompt-pass prices. Decode-step keys carry the
#: planned FC placement in this slot; the sentinel shares their cache
#: without ever colliding.
PREFILL_PRICE_TARGET = "prefill-pass"


def projected_prefill_seconds(
    replica: Replica, request: Request, cache: Optional[PriceCache] = None
) -> float:
    """Projected prompt-pass seconds if ``request`` joins ``replica``.

    The prefill-pool twin of :func:`projected_step_seconds`: the
    hypothetical post-admission batch shape comes from the replica's
    O(1) :meth:`~repro.cluster.replica.Replica.projected_admission_load`
    counters, the mean prompt is bucketed like every admission price,
    and the batch is priced through the system's own (pure)
    ``execute_prefill`` cost model — so a heterogeneous prefill pool
    ranks on each platform's true prompt-pass cost. Prices memoize in
    the shared :class:`PriceCache` under the
    :data:`PREFILL_PRICE_TARGET` sentinel.

    A session turn carrying a prefix-cache hint (``cached_prefix_len``)
    projects only its fresh suffix (``prefill_len``) into the batch —
    the discount the execution path grants at admission — so routing
    sees cheaper prompt passes for turns whose prefix is resident.
    Independent requests have ``prefill_len == input_len`` and price
    exactly as before.
    """
    rlp, mean_context = replica.projected_admission_load(request.prefill_len)
    bucket = ADMISSION_CONTEXT_BUCKET
    mean_context = max(bucket, round(mean_context / bucket) * bucket)
    system = replica.system
    if cache is not None:
        key = (
            replica.workload_name,
            PREFILL_PRICE_TARGET,
            rlp,
            1,
            mean_context,
        )
        cached = cache.get(system, key)
        if cached is not None:
            return cached
    seconds = float(
        system.execute_prefill(replica.model, rlp, mean_context).seconds
    )
    if cache is not None:
        cache.put(system, key, seconds)
    return seconds


def projected_prefill_completion_seconds(
    replica: Replica, request: Request, cache: Optional[PriceCache] = None
) -> float:
    """Projected arrival-to-first-token seconds at a prefill replica.

    The same coarse, monotone-in-load shape as
    :func:`projected_completion_seconds`: the request's own prompt pass
    (:func:`projected_prefill_seconds`) plus the backlog's drain time —
    the ``outstanding`` requests ahead of it need roughly
    ``outstanding / max_batch_size`` further passes of comparable cost.
    """
    prefill_s = projected_prefill_seconds(replica, request, cache)
    backlog = replica.outstanding() / replica.max_batch_size
    return (1.0 + backlog) * prefill_s


def best_completion_seconds(
    replicas: Sequence[Replica],
    request: Request,
    cache: Optional[PriceCache] = None,
) -> float:
    """Earliest projected completion across a fleet view.

    The admission controller's verdict input, and the decode-pool term
    of full-path projections. Views with a ``probe_min_completion``
    verdict answer through it — a
    :class:`~repro.cluster.fleetstate.FleetState` from its fleet-version
    memo, a :class:`~repro.cluster.admission.PathProber` across the
    whole prefill/decode handoff; lists of scalar-core replicas take the
    minimum over the (bit-identical)
    :func:`projected_completion_seconds` probes.
    """
    probe = getattr(replicas, "probe_min_completion", None)
    if probe is not None:
        return probe(request)
    return min(
        projected_completion_seconds(replica, request, cache)
        for replica in replicas
    )


class Router(abc.ABC):
    """Assigns each arriving request to a replica index."""

    #: Registry/reporting name; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def select(
        self, request: Request, replicas: Sequence[Replica], now: float
    ) -> int:
        """Index of the replica that should serve ``request``."""

    def select_path(
        self,
        request: Request,
        prefill_pool: Sequence[Replica],
        decode_pool: Sequence[Replica],
        interconnect: object,
        now: float,
    ) -> int:
        """Stage-1 of two-stage routing: pick the prefill replica.

        Disaggregated fleets route twice — the arrival picks a prefill
        replica here (index *within the prefill pool*), and the decode
        replica is picked by a plain :meth:`select` over the decode pool
        when the KV transfer lands. Price-aware policies override this
        to rank the *full path* (prefill cost + KV transfer + decode
        cost); load-spreading policies apply their usual rule to the
        prefill pool, which is where an arrival actually queues.
        """
        return self.select(request, prefill_pool, now)

    @property
    def price_cache(self) -> Optional[PriceCache]:
        """The router's admission-price memo, when it keeps one.

        Price-aware policies override this so the cluster report can
        surface hit/miss statistics; stateless policies return ``None``.
        """
        return None


class RoundRobinRouter(Router):
    """Cycle through replicas in arrival order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def select(
        self, request: Request, replicas: Sequence[Replica], now: float
    ) -> int:
        index = self._next % len(replicas)
        self._next += 1
        return index


class LeastOutstandingRouter(Router):
    """Route to the replica with the fewest queued + active requests."""

    name = "least-outstanding"

    def select(
        self, request: Request, replicas: Sequence[Replica], now: float
    ) -> int:
        counts = getattr(replicas, "outstanding_counts", None)
        if counts is not None:
            # argmin returns the first minimum — the same (count, index)
            # tie-break as the scalar scan.
            return int(np.argmin(counts()))
        return min(
            range(len(replicas)), key=lambda i: (replicas[i].outstanding(), i)
        )


class IntensityAwareRouter(Router):
    """Route to keep each replica's RLP*TLP on its current FC placement.

    For every replica the router projects the post-admission intensity
    ``(active + waiting + 1) * TLP`` (capped at the batch size) against
    the replica's scheduler ``alpha``:

    * Among busy replicas whose projected intensity stays on their current
      placement side, pick the least loaded: admitting there costs no
      migration, now or (to first order) when RLP decays.
    * Otherwise open an idle replica: admission runs initial scheduling,
      which never counts as a migration, and a fresh batch starts on its
      preferred side.
    * If every choice would flip a placement, pick the replica with the
      most *headroom* — the projected intensity farthest from ``alpha`` —
      because a batch deep on one side takes the longest RLP decay to
      migrate.

    The net effect is that batches are packed up to (but not across) the
    crossover, instead of round-robin's pattern of filling every replica
    past ``alpha`` and letting each one thrash back at drain time.
    Replicas without a load signal (statically placed baselines) are
    ranked by vectorized projected admission cost instead — the same
    signal :class:`MinCostRouter` uses — so a mixed fleet of PAPI and
    static replicas still routes sensibly.
    """

    name = "intensity"

    def __init__(self, max_cache_entries: int = 4096) -> None:
        self._price_cache = PriceCache(max_cache_entries)

    @property
    def price_cache(self) -> PriceCache:
        return self._price_cache

    def select(
        self, request: Request, replicas: Sequence[Replica], now: float
    ) -> int:
        stay: List[Tuple[int, int]] = []  # (outstanding, index) — has a slot
        idle: List[int] = []
        saturated: List[Tuple[int, int]] = []  # on-side but batch is full
        flip: List[Tuple[float, int, int]] = []  # (-headroom, outstanding, i)
        fallback: List[Tuple[int, int]] = []
        for index, replica in enumerate(replicas):
            signal = replica.system.load_signal()
            outstanding = replica.outstanding()
            if signal is None:
                fallback.append((outstanding, index))
                continue
            if outstanding == 0:
                # Admission re-runs initial scheduling: placement is free.
                idle.append(index)
                continue
            projected = min(outstanding + 1, replica.max_batch_size)
            extra = projected - signal.rlp
            if signal.would_migrate(extra):
                flip.append((-signal.headroom(extra), outstanding, index))
            elif outstanding + 1 > replica.max_batch_size:
                saturated.append((outstanding, index))
            else:
                stay.append((outstanding, index))
        if stay:
            return min(stay)[1]
        if idle:
            return idle[0]
        if saturated:
            return min(saturated)[1]
        if flip:
            return min(flip)[2]
        if fallback:
            # Reached only when no replica carries a load signal, so the
            # fallback lanes are the whole fleet: price it through the
            # fleet view itself (a FleetState's own tables — never its
            # replicas one by one, whose request objects the vectorized
            # core leaves stale mid-decode).
            costs = projected_step_seconds_fleet(
                replicas, request, self._price_cache
            )
            return min(
                (costs[i], outstanding, i) for outstanding, i in fallback
            )[2]
        raise ConfigurationError("cluster has no replicas")


class MinCostRouter(Router):
    """Route to the replica whose next decoding step stays cheapest.

    Every replica prices its hypothetical post-admission iteration via
    :func:`projected_step_seconds` (one vectorized ``price_steps`` call
    per replica), and the request joins the minimum. Ties break toward
    fewer outstanding requests, then lower index.

    This is the policy that unlocks *mixed fleets*: the systems behind
    the replicas can be completely different platforms (PAPI next to
    A100+AttAcc next to PIM-only) because each replica's own cost model
    produces the admission signal — no scheduler load signal or shared
    alpha required.
    """

    name = "min-cost"

    def __init__(self, max_cache_entries: int = 4096) -> None:
        self._price_cache = PriceCache(max_cache_entries)

    @property
    def price_cache(self) -> PriceCache:
        return self._price_cache

    def select(
        self, request: Request, replicas: Sequence[Replica], now: float
    ) -> int:
        if not replicas:
            raise ConfigurationError("cluster has no replicas")
        route = getattr(replicas, "route_min_cost", None)
        if route is not None:
            # Vectorized fleets return the memoized verdict directly: the
            # same (cost, outstanding, index) order over the same probe
            # vectors, reused O(1) while the fleet version holds still.
            return route(request)
        costs = projected_step_seconds_fleet(
            replicas, request, self._price_cache
        )
        return min(
            (cost, replica.outstanding(), i)
            for i, (cost, replica) in enumerate(zip(costs, replicas))
        )[2]

    def _path_costs(
        self,
        request: Request,
        prefill_pool: Sequence[Replica],
        decode_pool: Sequence[Replica],
        interconnect: object,
    ) -> List[float]:
        """Full-path price per prefill replica: prompt pass + KV
        transfer + the cheapest decode step the pool offers.

        The transfer and decode terms are uniform across prefill
        candidates (the decode replica is chosen later, when the
        transfer lands), so they shift every lane identically — the
        ranking is honest about what a path costs without pretending to
        know stage-2's outcome ahead of time.
        """
        best_decode = min(
            projected_step_seconds_fleet(
                decode_pool, request, self._price_cache
            )
        )
        tail = interconnect.transfer_seconds(request.input_len + 1)
        tail += best_decode
        return [
            projected_prefill_seconds(replica, request, self._price_cache)
            + tail
            for replica in prefill_pool
        ]

    def select_path(
        self,
        request: Request,
        prefill_pool: Sequence[Replica],
        decode_pool: Sequence[Replica],
        interconnect: object,
        now: float,
    ) -> int:
        costs = self._path_costs(
            request, prefill_pool, decode_pool, interconnect
        )
        ranked = [
            (cost, replica.outstanding(), i)
            for i, (cost, replica) in enumerate(zip(costs, prefill_pool))
        ]
        return min(ranked)[2]


class SLOSlackRouter(MinCostRouter):
    """Min-cost routing that first protects each request's deadline.

    Extends :class:`MinCostRouter` with *deadline slack*: for every
    replica the router projects the request's completion time
    (:func:`projected_completion_seconds`) and computes the slack left
    against the request's absolute ``deadline_s``.

    * Among replicas whose projection still meets the deadline
      (slack >= 0), pick the cheapest next step — exactly min-cost,
      restricted to the feasible set, so SLO traffic never trades its
      budget for a marginally cheaper iteration elsewhere.
    * If no replica can meet the deadline, pick the one with the most
      slack (least-late), breaking ties toward cheaper steps, fewer
      outstanding requests, then lower index.
    * Best-effort requests (``deadline_s is None``) see every replica as
      infinitely slack and degrade to plain min-cost — a mixed
      tight-SLO + best-effort trace routes each class appropriately.
    """

    name = "slo-slack"

    def select(
        self, request: Request, replicas: Sequence[Replica], now: float
    ) -> int:
        if not replicas:
            raise ConfigurationError("cluster has no replicas")
        route = getattr(replicas, "route_slo_slack", None)
        if route is not None:
            # Vectorized fleets return the memoized verdict directly
            # (slack recomputed elementwise against this arrival's
            # deadline and clock; everything else reused O(1) while the
            # fleet version holds still).
            return route(request, now)
        cache = self._price_cache
        deadline = request.deadline_s
        feasible: List[Tuple[float, int, int]] = []  # (cost, outstanding, i)
        ranked: List[Tuple[float, float, int, int]] = []  # (-slack, cost, ...)
        for i, replica in enumerate(replicas):
            cost = projected_step_seconds(replica, request, cache)
            slack = math.inf  # best effort: every replica is feasible
            if deadline is not None:
                completion = projected_completion_seconds(
                    replica, request, cache
                )
                slack = deadline - (now + completion)
            outstanding = replica.outstanding()
            ranked.append((-slack, cost, outstanding, i))
            if slack >= 0.0:
                feasible.append((cost, outstanding, i))
        if feasible:
            return min(feasible)[2]
        return min(ranked)[3]

    def select_path(
        self,
        request: Request,
        prefill_pool: Sequence[Replica],
        decode_pool: Sequence[Replica],
        interconnect: object,
        now: float,
    ) -> int:
        """Deadline-aware stage-1: project the *whole* handoff.

        Each prefill candidate's completion projection is its
        arrival-to-first-token estimate plus the KV transfer plus the
        best completion the decode pool offers — the same cross-handoff
        projection :class:`~repro.cluster.admission.PathProber` feeds
        the admission controller. Feasible candidates (projection meets
        the deadline) rank by full-path cost; when none fit, the
        least-late candidate wins.
        """
        costs = self._path_costs(
            request, prefill_pool, decode_pool, interconnect
        )
        if request.deadline_s is None:
            ranked_cost = [
                (cost, replica.outstanding(), i)
                for i, (cost, replica) in enumerate(zip(costs, prefill_pool))
            ]
            return min(ranked_cost)[2]
        tail = interconnect.transfer_seconds(
            request.input_len + 1
        ) + best_completion_seconds(
            decode_pool, request, self._price_cache
        )
        deadline = request.deadline_s
        feasible: List[Tuple[float, int, int]] = []  # (cost, outstanding, i)
        ranked: List[Tuple[float, float, int, int]] = []  # (-slack, cost, ...)
        for i, replica in enumerate(prefill_pool):
            completion = (
                projected_prefill_completion_seconds(
                    replica, request, self._price_cache
                )
                + tail
            )
            slack = deadline - (now + completion)
            outstanding = replica.outstanding()
            ranked.append((-slack, costs[i], outstanding, i))
            if slack >= 0.0:
                feasible.append((costs[i], outstanding, i))
        if feasible:
            return min(feasible)[2]
        return min(ranked)[3]


#: Default cost-degradation the affinity router tolerates to keep a
#: session on its home replica: the home wins whenever its projected
#: admission cost is within ``(1 + tolerance)`` of the fleet minimum.
#: At 0 the policy degrades to exact slo-slack/min-cost; large values
#: pin sessions regardless of load.
AFFINITY_TOLERANCE = 0.25


class SessionAffinityRouter(SLOSlackRouter):
    """Slo-slack routing that keeps a session on its prefix-cache home.

    Session turns reuse KV only where their prefix is resident — the
    replica that served the previous turn. This policy remembers each
    session's last verdict (its *home*) and overrides the base
    slo-slack/min-cost verdict with the home whenever the trade is
    sound:

    * the home's projected admission cost is within ``(1 + tolerance)``
      of the winner's (locality never buys unbounded load imbalance);
    * a deadline-carrying turn's projected completion at the home still
      meets its deadline (affinity composes with, never overrides, the
      SLO protection).

    Non-session requests — and stage-2 decode-pool routing, where no
    prefix cache exists — take the parent verdict untouched, so
    independent traffic routes bit-identically to ``slo-slack``. Every
    probe this overlay adds goes through the same fleet-view dispatch as
    the base policy (memoized dense tables on a
    :class:`~repro.cluster.fleetstate.FleetState`, reference probes on a
    replica list), so both simulation cores agree bit-for-bit.
    """

    name = "session-affinity"

    def __init__(
        self,
        max_cache_entries: int = 4096,
        tolerance: float = AFFINITY_TOLERANCE,
    ) -> None:
        super().__init__(max_cache_entries)
        if tolerance < 0:
            raise ConfigurationError("tolerance must be non-negative")
        self.tolerance = tolerance
        #: session id -> last verdict index, per routing stage (colocated
        #: ``select`` and disaggregated ``select_path`` rank different
        #: pools, so their home indices must never mix).
        self._session_homes: Dict[int, int] = {}
        self._path_homes: Dict[int, int] = {}

    def _meets_deadline(
        self,
        request: Request,
        replicas: Sequence[Replica],
        home: int,
        now: float,
    ) -> bool:
        """Whether the home's projected completion meets the deadline.

        The slack is computed exactly as the base policy computes it —
        ``deadline - (now + completion)`` over the same projection — so
        feasibility here can never disagree with what slo-slack itself
        would have concluded about the home lane.
        """
        if request.deadline_s is None:
            return True
        fleet = getattr(replicas, "fleet_completion_seconds", None)
        if fleet is not None:
            completion = fleet(request)[home]
        else:
            completion = projected_completion_seconds(
                replicas[home], request, self._price_cache
            )
        return request.deadline_s - (now + completion) >= 0.0

    def select(
        self, request: Request, replicas: Sequence[Replica], now: float
    ) -> int:
        best = super().select(request, replicas, now)
        session = request.session_id
        if session is None or replicas[best].role == "decode":
            # Stage-2 decode routing in a disaggregated fleet: no prefix
            # cache lives there, so affinity has nothing to buy.
            return best
        choice = best
        home = self._session_homes.get(session)
        if home is not None and home != best and home < len(replicas):
            costs = projected_step_seconds_fleet(
                replicas, request, self._price_cache
            )
            if costs[home] <= costs[best] * (
                1.0 + self.tolerance
            ) and self._meets_deadline(request, replicas, home, now):
                choice = home
        self._session_homes[session] = choice
        return choice

    def select_path(
        self,
        request: Request,
        prefill_pool: Sequence[Replica],
        decode_pool: Sequence[Replica],
        interconnect: object,
        now: float,
    ) -> int:
        best = super().select_path(
            request, prefill_pool, decode_pool, interconnect, now
        )
        session = request.session_id
        if session is None:
            return best
        choice = best
        home = self._path_homes.get(session)
        if home is not None and home != best and home < len(prefill_pool):
            costs = self._path_costs(
                request, prefill_pool, decode_pool, interconnect
            )
            feasible = True
            if request.deadline_s is not None:
                completion = projected_prefill_completion_seconds(
                    prefill_pool[home], request, self._price_cache
                ) + interconnect.transfer_seconds(
                    request.input_len + 1
                ) + best_completion_seconds(
                    decode_pool, request, self._price_cache
                )
                feasible = request.deadline_s - (now + completion) >= 0.0
            if feasible and costs[home] <= costs[best] * (
                1.0 + self.tolerance
            ):
                choice = home
        self._path_homes[session] = choice
        return choice


_ROUTERS: Dict[str, Type[Router]] = {
    RoundRobinRouter.name: RoundRobinRouter,
    LeastOutstandingRouter.name: LeastOutstandingRouter,
    IntensityAwareRouter.name: IntensityAwareRouter,
    MinCostRouter.name: MinCostRouter,
    SLOSlackRouter.name: SLOSlackRouter,
    SessionAffinityRouter.name: SessionAffinityRouter,
}


def available_routers() -> Tuple[str, ...]:
    """Names of all registered routing policies, sorted."""
    return tuple(sorted(_ROUTERS))


def build_router(name: str) -> Router:
    """Instantiate a routing policy by registry name."""
    try:
        cls = _ROUTERS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_ROUTERS))
        raise ConfigurationError(
            f"unknown router {name!r}; known routers: {known}"
        ) from None
    return cls()
