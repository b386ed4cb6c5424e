"""The serving engine: drives a system through prefill + decoding.

The engine is the discrete simulator of the paper's evaluation. It
serves through one :class:`~repro.cluster.replica.Replica`, the decoding
state machine every cluster run uses, which charges prefill on the
system's compute-bound unit, then iterates decoding steps. Every
iteration it

1. asks the TLP policy for the speculation length (fixed in the paper's
   main experiments; dynamic policies model its references [28]/[38]) and
   notifies the system when it changes,
2. prices the step at the current (RLP, TLP) over the active requests'
   contexts, on the FC unit the system's scheduler plans
   (:class:`StepPricer`: on a serial system a memoized context-free half
   plus one attention kernel, bit-identical to the system's
   ``execute_step`` of the full :class:`~repro.models.workload.DecodeStep`),
3. samples per-request accepted tokens (speculative decoding),
4. gathers the output-token vector — ``EOS_TOKEN`` for requests that just
   finished — and feeds it to the system's runtime monitor, exactly the
   token-level monitoring loop of Section 5.2.2.

:meth:`ServingEngine.run` steps a static batch one iteration at a time;
:meth:`ServingEngine.run_trace` serves an arrival-stamped trace through
the single-replica case of the cluster event loop.

Two pricing refinements sit behind engine knobs:

* ``context_mode`` — ``"per-request"`` (default) prices attention as the
  exact sum of per-request KV-cache costs; ``"mean"`` reproduces the
  original rounded-mean approximation bit-for-bit (the paper-figure
  drivers pin this mode so their outputs stay stable).
* ``context_bucket`` / ``step_cache`` — quantize context lengths to a
  bucket and memoize priced steps in a
  :class:`~repro.serving.stepcache.StepCostCache`, which removes most of
  the cost-model work from design-space sweeps (identical steps are
  re-priced thousands of times).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from repro.core.placement import PlacementTarget
from repro.errors import ConfigurationError, SimulationError
from repro.models.config import ModelConfig
from repro.models.kernels import (
    KernelKind,
    attention_cost,
    attention_cost_total,
)
from repro.models.moe import MoEModelConfig
from repro.models.workload import (
    KernelInvocation,
    _validate_moe,
    build_decode_step,
    build_fc_invocations,
    workload_name,
)
from repro.serving.metrics import DETAIL_MODES, RunSummary
from repro.serving.request import Request
from repro.serving.speculative import SpeculationConfig
from repro.serving.stepcache import StepCostCache
from repro.serving.tlp_policy import TLPPolicy, TLPTrace
from repro.systems.base import IterationResult, ServingSystem, StepHalf

#: Safety valve against runaway simulations.
MAX_ITERATIONS = 1_000_000

#: Supported context-accounting modes.
CONTEXT_MODES = ("per-request", "mean")


@dataclass
class StepPricer:
    """Prices decoding iterations for a batch of active requests.

    Encapsulates the context-accounting mode, optional context bucketing,
    and the optional step-cost cache. Every replica owns one, so static
    batches, traces and cluster runs share one pricing path.

    On a serial system (:meth:`~repro.systems.base.ServingSystem.is_serial`)
    a step's price is a context-free half plus one attention kernel
    (:meth:`~repro.systems.base.ServingSystem.compose_step`). The pricer
    memoizes the halves per ``(planned FC target, rlp, tlp)``, so a step
    the cache misses costs one attention kernel. Attention is linear in
    each request's context, so a serial per-request price depends on the
    bucketed context total alone, and that total is the cache key's
    context slot; pipelined steps keep the sorted context tuple, because
    chunking reads each request's context. Every price equals
    ``system.execute_step(build_decode_step(...))`` bit for bit. The half
    memo has the step-cost cache's purity contract: a half is a pure
    function of the system's configuration and its key, so a system
    whose configuration changes needs a fresh pricer (each new replica
    builds one).

    Attributes:
        system: The platform pricing the steps.
        model: The model being decoded.
        context_mode: ``"per-request"`` for exact per-request attention
            accounting, ``"mean"`` for the rounded-mean approximation.
        context_bucket: Quantize context lengths to multiples of this
            bucket before pricing (1 = exact). Coarser buckets trade a
            bounded pricing error for step-cache hit rate.
        step_cache: Optional shared LRU of priced steps.
        moe: Optional sparse-expert configuration (must wrap ``model``).
            When set, every priced step's FFN is the routed expert bank.
    """

    system: ServingSystem
    model: ModelConfig
    context_mode: str = "per-request"
    context_bucket: int = 1
    step_cache: Optional[StepCostCache] = None
    moe: Optional[MoEModelConfig] = None
    _halves: Dict[tuple, StepHalf] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.context_mode not in CONTEXT_MODES:
            raise ConfigurationError(
                f"context_mode must be one of {CONTEXT_MODES}, "
                f"got {self.context_mode!r}"
            )
        if self.context_bucket < 1:
            raise ConfigurationError("context_bucket must be >= 1")
        _validate_moe(self.model, self.moe)

    @property
    def workload_name(self) -> str:
        """Model name as priced (see
        :func:`~repro.models.workload.workload_name`)."""
        return workload_name(self.model, self.moe)

    def _bucketize(self, context_len: int) -> int:
        bucket = self.context_bucket
        if bucket <= 1:
            return context_len
        # Clamp to one full bucket: rounding a short context down to zero
        # would underprice its attention by up to bucket/2 x, while one
        # bucket overprices it by at most 2x (and only transiently — the
        # context grows past the bucket within a few iterations).
        return max(bucket, round(context_len / bucket) * bucket)

    def context_total(self, context_lens: Sequence[int]) -> int:
        """Sum of the bucketed context lengths: a serial step's
        per-request context key."""
        if self.context_bucket <= 1:
            return sum(context_lens)
        bucketize = self._bucketize
        return sum([bucketize(context) for context in context_lens])

    def price(self, active: Sequence[Request], tlp: int) -> IterationResult:
        """Price one decoding iteration over the active requests."""
        # input_len + generated inline: context_len is a property and
        # this runs once per decoding iteration over the batch.
        return self.price_contexts(
            [r.input_len + r.generated for r in active], tlp
        )

    def price_contexts(
        self, context_lens_raw: Sequence[int], tlp: int
    ) -> IterationResult:
        """Price one iteration from raw per-request context lengths.

        What :meth:`price` prices, for callers that track the batch's
        contexts as plain integers (the vectorized cluster replicas'
        slot state) instead of :class:`Request` objects.
        """
        rlp = len(context_lens_raw)
        if rlp == 0:
            raise SimulationError("cannot price a step with no active requests")
        if self.context_mode == "mean":
            return self.price_mean_total(rlp, tlp, sum(context_lens_raw))
        if self.system.is_serial(rlp):
            return self._price_resolved(
                rlp, tlp, self.context_total(context_lens_raw)
            )
        bucketize = self._bucketize
        return self._price_resolved(
            rlp, tlp, tuple(sorted([bucketize(c) for c in context_lens_raw]))
        )

    def price_mean_total(
        self, rlp: int, tlp: int, context_total: int
    ) -> IterationResult:
        """Price one mean-mode iteration from a precomputed context sum.

        The O(1) twin of :meth:`price` for ``context_mode="mean"``:
        callers that already track the batch's total context (the cluster
        replicas' incremental load counters) skip the per-request sum.
        Bit-identical to :meth:`price` over the same batch — the mean is
        the same exact integer arithmetic on the same total.
        """
        if self.context_mode != "mean":
            raise SimulationError(
                "price_mean_total requires context_mode='mean'"
            )
        if rlp <= 0:
            raise SimulationError("cannot price a step with no active requests")
        mean_context = self._bucketize(max(1, round(context_total / rlp)))
        return self._price_resolved(rlp, tlp, mean_context)

    def run_pricer(
        self, rlp: int, tlp: int
    ) -> Callable[[int], IterationResult]:
        """A mean-mode pricing closure with the invariant key hoisted.

        Over a frozen batch (no admissions, no finishes, constant TLP
        policy) every step of a macro-run prices at the same ``(rlp,
        tlp)`` and the same planned FC target, so the workload name, the
        placement plan, and the cache's per-system scope resolution are
        loop invariants. The returned ``price_mean(raw_mean)`` is
        bit-identical to ``price_mean_total(rlp, tlp, total)`` for
        ``raw_mean == max(1, round(total / rlp))`` — same bucketing, same
        cache key, same counters per lookup.
        """
        if self.context_mode != "mean":
            raise SimulationError("run_pricer requires context_mode='mean'")
        if rlp <= 0:
            raise SimulationError("cannot price a step with no active requests")
        bucketize = self._bucketize
        price_miss = self._price_miss
        cache = self.step_cache
        if cache is None:

            def price_uncached(raw_mean: int) -> IterationResult:
                return price_miss(None, rlp, tlp, bucketize(raw_mean))

            return price_uncached
        name = self.workload_name
        fc_target = self.system.plan_fc_target(rlp, tlp)
        entries = cache.scope_entries(self.system)
        get_in = cache.get_in
        put_in = cache.put_in

        def price_mean(raw_mean: int) -> IterationResult:
            mean_context = bucketize(raw_mean)
            key = (name, "mean", fc_target, rlp, tlp, mean_context)
            cached = get_in(entries, key)
            if cached is not None:
                return cached
            # A miss re-plans the target, exactly as execute_step would.
            result = price_miss(None, rlp, tlp, mean_context)
            put_in(entries, key, result)
            return result

        return price_mean

    def _price_resolved(
        self, rlp: int, tlp: int, context: object
    ) -> IterationResult:
        """Price a step whose contexts are resolved to the key's slot.

        ``context`` is the bucketed mean in mean mode; in per-request
        mode it is the bucketed total on a serial step and the sorted
        bucketed tuple on a pipelined one.
        """
        cache = self.step_cache
        if cache is None:
            return self._price_miss(None, rlp, tlp, context)
        # The workload name is part of the key: a cache (and a system) may
        # be shared by engines serving different models, and an MoE
        # variant prices differently from its dense backbone. So is the
        # context mode: a per-request total and a mean are both ints.
        fc_target = self.system.plan_fc_target(rlp, tlp)
        key = (
            self.workload_name, self.context_mode, fc_target, rlp, tlp,
            context,
        )
        cached = cache.get(self.system, key)
        if cached is not None:
            return cached
        result = self._price_miss(fc_target, rlp, tlp, context)
        cache.put(self.system, key, result)
        return result

    def _price_miss(
        self,
        fc_target: Optional[PlacementTarget],
        rlp: int,
        tlp: int,
        context: object,
    ) -> IterationResult:
        """Price one step through the cost model (``fc_target`` is
        planned here when ``None``; see :meth:`_price_resolved` for
        ``context``)."""
        system = self.system
        model = self.model
        if not system.is_serial(rlp):
            if self.context_mode == "mean":
                step = build_decode_step(
                    model, rlp, tlp, context, moe=self.moe
                )
            else:
                step = build_decode_step(
                    model, rlp, tlp, max(1, round(sum(context) / rlp)),
                    context_lens=context, moe=self.moe,
                )
            return system.execute_step(step)
        if fc_target is None:
            fc_target = system.plan_fc_target(rlp, tlp)
        half = self._halves.get((fc_target, rlp, tlp))
        if half is None:
            half = system.step_half(
                fc_target,
                build_fc_invocations(model, rlp, tlp, self.moe),
                model,
                rlp,
                tlp,
            )
            self._halves[(fc_target, rlp, tlp)] = half
        if self.context_mode == "mean":
            attention = attention_cost(model, rlp, tlp, context)
        else:
            attention = attention_cost_total(model, rlp, tlp, context)
        return system.compose_step(
            half,
            KernelInvocation(
                KernelKind.ATTENTION, attention, model.num_layers
            ),
        )


@dataclass
class ServingEngine:
    """Simulates serving a workload on a system.

    Attributes:
        system: The computing platform under evaluation.
        model: The LLM being served.
        speculation: Speculative-decoding configuration (acceptance model
            and default TLP).
        tlp_policy: Optional dynamic speculation-length policy. ``None``
            uses the fixed configured length.
        seed: Seed for the acceptance sampler.
        check_capacity: Validate weight/KV capacity at each admission.
        tlp_trace: TLP chosen each iteration (populated during a run).
        context_mode: Context accounting: ``"per-request"`` (exact) or
            ``"mean"`` (the original rounded-mean approximation, kept for
            bit-stable paper-figure reproduction).
        context_bucket: Context-length quantization bucket (1 = exact).
        step_cache: Optional :class:`StepCostCache` shared across runs.
        moe: Optional sparse-expert configuration (must wrap ``model`` as
            its base). When set, decoding steps price the routed MoE FFN
            and capacity checks account for all experts' weights.
        detail: Metric retention (see :attr:`RunSummary.detail`):
            ``"full"`` keeps per-iteration records, ``"aggregate"``
            streams them into running totals for long traces.
    """

    system: ServingSystem
    model: ModelConfig
    speculation: SpeculationConfig = SpeculationConfig()
    tlp_policy: Optional[TLPPolicy] = None
    seed: int = 0
    check_capacity: bool = True
    tlp_trace: TLPTrace = field(default_factory=TLPTrace)
    context_mode: str = "per-request"
    context_bucket: int = 1
    step_cache: Optional[StepCostCache] = None
    moe: Optional[MoEModelConfig] = None
    detail: str = "full"

    def __post_init__(self) -> None:
        # Fail on bad knobs at construction, not mid-run.
        StepPricer(
            system=self.system,
            model=self.model,
            context_mode=self.context_mode,
            context_bucket=self.context_bucket,
            step_cache=self.step_cache,
            moe=self.moe,
        )
        if self.detail not in DETAIL_MODES:
            raise ConfigurationError(
                f"detail must be one of {DETAIL_MODES}, got {self.detail!r}"
            )

    @property
    def workload_name(self) -> str:
        """Model name as served (see
        :func:`~repro.models.workload.workload_name`)."""
        return workload_name(self.model, self.moe)

    def run(self, requests: Sequence[Request]) -> RunSummary:
        """Serve a static batch of requests to completion.

        One slot per request, so runtime RLP only decays (Figure 3). The
        batch launches once its last member has arrived: latencies count
        from each request's own ``arrival_s``, the wait is
        ``queueing_seconds``, and ``makespan_seconds`` is the busy time.
        """
        if not requests:
            raise ConfigurationError("cannot serve an empty batch")
        replica = self._replica(len(requests))
        for request in requests:
            replica.enqueue(request)
        done_at = replica.poke(max(r.arrival_s for r in requests))
        while done_at is not None:
            done_at = replica.on_step_done(done_at)
        self.tlp_trace = replica.tlp_trace
        return replica.finalize(replica.summary.total_seconds)

    def run_trace(
        self, requests: Sequence[Request], max_batch_size: int
    ) -> RunSummary:
        """Serve an arrival-stamped trace with event-driven admission.

        Requests enter at their ``arrival_s`` timestamps and wait in a
        FIFO queue until a batch slot opens. Freed slots refill at
        iteration granularity — mixed continuous batching (Section
        2.2.1), which keeps RLP near the slot count. Per-request latency
        therefore covers queueing + prefill + decoding. This is the
        single-replica case of the scalar cluster core (``repro.cluster``),
        which steps every iteration as :meth:`run` does.

        Args:
            requests: Requests with ``arrival_s`` stamped (e.g. via
                :func:`~repro.serving.arrivals.poisson_arrivals`).
            max_batch_size: Continuous-batching slot count.

        Returns:
            The run summary, with ``makespan_seconds`` covering the whole
            trace and ``queueing_seconds`` aggregating admission waits.
        """
        replica = self._replica(max_batch_size)
        replica.serve_trace(requests)
        self.tlp_trace = replica.tlp_trace
        return replica.summary

    def _replica(self, max_batch_size: int):
        """A fresh single replica carrying this engine's configuration."""
        # Imported here: repro.cluster.replica imports this module.
        from repro.cluster.replica import Replica

        return Replica(
            replica_id=0,
            system=self.system,
            model=self.model,
            max_batch_size=max_batch_size,
            speculation=self.speculation,
            tlp_policy=self.tlp_policy,
            seed=self.seed,
            check_capacity=self.check_capacity,
            context_mode=self.context_mode,
            context_bucket=self.context_bucket,
            step_cache=self.step_cache,
            moe=self.moe,
            detail=self.detail,
        )

    @staticmethod
    def _accepted_fraction(accepted_total: int, rlp: int, tlp: int) -> float:
        """Fraction of drafted tokens accepted (bonus tokens excluded)."""
        if tlp <= 1:
            return 1.0
        drafted = rlp * (tlp - 1)
        accepted_drafts = max(0, accepted_total - rlp)
        return accepted_drafts / drafted
