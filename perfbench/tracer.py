"""Span tracer for the benchmark's traced run.

The tracer times calls into each layer's public functions from outside
the program: :func:`install` replaces those functions with wrappers on
their classes, and on every module that imported a wrapped function by
name, before the scenario is built (hot loops bind methods to locals at
run start and at replica construction, so late patches would be
missed). Nothing under ``src/`` changes, and the simulated results stay
bit-identical; the traced run's output digest proves it.

Each wrapped call is a span: name, start, end and parent span. Spans
opened while one calendar event is being handled share that event's id,
and spans under an arrival carry the request id. A span's self time is
its duration minus the time its child spans cover. Counts and self
times are totalled over every call; raw spans are kept for a bounded
sample of events (every ``SAMPLE_EVERY``-th, at most ``SPAN_CAP``) and
written out as Chrome trace-event JSON when the run ends.

Besides timing, the wrappers count outcomes the program also counts,
so the traced run can be cross-checked against the program's own
counters (see ``cross_checks``). Two outcomes happen without any call:
the vectorized core's inlined admission serves batch-priced verdict
rows, and rejects requests, in place. The tracer infers both from each
arrival's span structure: an arrival that was neither routed nor
deferred was rejected, and a gated arrival that reached no admission
probe was answered from a verdict row.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Keep the raw spans of every this-many-th calendar event.
SAMPLE_EVERY = 97
#: Upper bound on raw spans held in memory.
SPAN_CAP = 50_000

#: The layers in report order. Each is a module (or module group) of
#: ``src/repro``; ``systems`` covers the cost model beneath it
#: (``devices``, ``models``).
LAYERS = (
    "scenario",
    "cluster",
    "clock",
    "fleetstate",
    "router",
    "admission",
    "replica",
    "speculative",
    "scheduler",
    "stepcache",
    "systems",
    "metrics",
    "prefixcache",
    "interconnect",
)

#: The verdict memo's three query methods. A call to one of them that
#: does not delegate to another is exactly one counted query
#: (``probe_memo`` hits + misses).
_MEMO_QUERIES = frozenset(
    (
        "fleetstate:probe_steps",
        "fleetstate:probe_completions",
        "fleetstate:probe_min_completion",
    )
)
#: Calls that put an arrival through admission pricing.
_ADMISSION_PROBES = frozenset(
    (
        "fleetstate:probe_min_completion",
        "fleetstate:probe_min_batch",
        "admission:decide",
    )
)


class Tracer:
    """Span store, per-call statistics and outcome counters of one run.

    Args:
        gated_tenants: Tenants under a non-``admit`` admission policy;
            their deadline-carrying arrivals each take one admission
            verdict.
    """

    def __init__(self, gated_tenants: Sequence[str]) -> None:
        self.gated = frozenset(gated_tenants)
        # Open spans, innermost last (frames, see ``wrap``).
        self.stack: List[list] = []
        # key -> [calls, self_ns, inclusive_ns, direct wrapped child calls]
        self.calls: Dict[str, List[int]] = {}
        self.counts: Dict[str, int] = {}
        self.event = 0
        self.request: Optional[int] = None
        self.sampled = True
        self.spans: List[list] = []
        # Arrival being handled: [gated, probed, routed, deferred]
        self.member: Optional[List[bool]] = None
        self.gc_collections = 0
        self.gc_pause_ns = 0
        self._gc_start = 0

    def bump(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- calendar events and arrivals -----------------------------------

    def begin_event(self, arrival: Any) -> None:
        """A calendar pop: start the next event (``arrival`` = its request)."""
        self.close_member()
        self.event += 1
        self.sampled = self.event % SAMPLE_EVERY == 0
        if arrival is None:
            self.request = None
            return
        self.request = arrival.request_id
        self.member = [
            arrival.deadline_s is not None and arrival.tenant in self.gated,
            False,
            False,
            False,
        ]

    def close_member(self) -> None:
        member = self.member
        if member is None:
            return
        gated, probed, routed, deferred = member
        if not routed and not deferred:
            self.bump("rejections")
        if gated and not probed:
            self.bump("verdict_rows")
        self.member = None

    # -- wrapping -------------------------------------------------------

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        on_exit: Optional[Callable] = None,
    ) -> Callable:
        """A span-recording wrapper around ``fn``.

        ``on_exit(frame, parent, args, result)`` runs after the span
        closes, outside the timed interval.
        """
        key = f"{layer}:{name}"
        stat = self.calls.setdefault(key, [0, 0, 0, 0])
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = -1
            if tracer.sampled and len(spans) < SPAN_CAP:
                index = len(spans)
                spans.append(
                    [
                        key,
                        0,
                        0,
                        parent[2] if parent is not None else -1,
                        tracer.event,
                        tracer.request,
                    ]
                )
            # [child_ns, key, span index, delegated, direct child calls]
            frame = [0, key, index, False, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                total = end - start
                stat[0] += 1
                stat[1] += total - frame[0]
                stat[2] += total
                stat[3] += frame[4]
                if parent is not None:
                    parent[0] += total
                    parent[4] += 1
                if index >= 0:
                    spans[index][1] = start
                    spans[index][2] = end
            if on_exit is not None:
                on_exit(frame, parent, args, result)
            return result

        return traced

    # -- interpreter garbage collection ---------------------------------

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_collections += 1
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_start

    # -- results ----------------------------------------------------------

    def layer_self_ns(
        self, inside_ns: float = 0.0, outside_ns: float = 0.0
    ) -> Dict[str, float]:
        """Per-layer self nanoseconds, less the tracer's own cost.

        A wrapped call costs ``inside_ns`` within its own span and
        ``outside_ns`` in its caller's (see :func:`calibrate`); both are
        taken back out, so self times approximate the untraced run's.
        """
        totals = {layer: 0.0 for layer in LAYERS}
        for key, (calls, self_ns, _, children) in self.calls.items():
            totals[key.split(":", 1)[0]] += max(
                0.0, self_ns - calls * inside_ns - children * outside_ns
            )
        return totals

    def write_spans(self, path: str, meta: Dict[str, Any]) -> int:
        """Write the sampled spans as Chrome trace-event JSON."""
        origin = min((s[1] for s in self.spans if s[2]), default=0)
        events = [
            {
                "name": key,
                "cat": key.split(":", 1)[0],
                "ph": "X",
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": 0,
                "tid": 0,
                "args": {
                    "span": index,
                    "parent": parent,
                    "event": event,
                    "request": request,
                },
            }
            for index, (key, start, end, parent, event, request) in enumerate(
                self.spans
            )
            if end
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "otherData": meta}, handle)
        return len(events)


# -- installation ------------------------------------------------------


def _patch_function(tracer, layer, module, name, on_exit=None):
    """Wrap ``module.name`` and rebind it in every module importing it."""
    original = getattr(module, name)
    traced = tracer.wrap(layer, name, original, on_exit)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, name, None) is original:
            setattr(loaded, name, traced)
    return traced


def _patch_method(tracer, layer, cls, name, on_exit=None, label=None):
    original = getattr(cls, name)
    traced = tracer.wrap(layer, label or name, original, on_exit)
    setattr(cls, name, traced)
    return traced


def install(tracer: Tracer) -> None:
    """Wrap every layer's public calls. Call before building the scenario."""
    from repro.cluster import cluster, fleetstate, router
    from repro.cluster.admission import PathProber, SLOAdmissionController
    from repro.cluster.interconnect import Interconnect
    from repro.cluster.prefixcache import PrefixCache
    from repro.cluster.replica import Replica
    from repro.models import workload
    from repro.scenario import build
    from repro.scenario.spec import ScenarioSpec
    from repro.serving import clock
    from repro.serving.engine import StepPricer
    from repro.serving.metrics import RunSummary
    from repro.serving.speculative import SpeculativeSampler
    from repro.serving.stepcache import StepCostCache
    from repro.systems import batch
    from repro.systems.base import ServingSystem
    from repro.systems.papi import PAPISystem

    # scenario: spec validation and the build_* functions run_scenario
    # calls.
    _patch_method(tracer, "scenario", ScenarioSpec, "validate")

    def requests_built(frame, parent, args, result):
        tracer.bump("requests_built", len(result))

    for name in ("build_replicas", "build_routing", "build_admission"):
        _patch_function(tracer, "scenario", build, name)
    _patch_function(tracer, "scenario", build, "build_requests", requests_built)

    # cluster: the event loops (self time = loop bodies, inlined
    # admission mirror included).
    def run_done(frame, parent, args, result):
        tracer.close_member()

    _patch_method(tracer, "cluster", cluster.ClusterSimulator, "run", run_done)
    _patch_method(
        tracer,
        "cluster",
        cluster.VectorizedClusterSimulator,
        "run",
        run_done,
        label="vectorized_run",
    )

    # clock: the calendar.
    # A pop closes the event in progress (its span belongs to that
    # event) and starts the next one.
    def popped(frame, parent, args, result):
        _, kind, payload = result
        tracer.begin_event(payload if kind == clock.ARRIVAL_CODE else None)
        tracer.bump("pops")

    def popped_arrival(frame, parent, args, result):
        if result is not None:
            tracer.begin_event(result[1])
            tracer.bump("pops")

    def pushed(frame, parent, args, result):
        tracer.bump("pushes")

    def deferred(frame, parent, args, result):
        tracer.bump("pushes")
        tracer.bump("deferrals")
        if tracer.member is not None:
            tracer.member[3] = True

    calendar = clock.EventCalendar
    _patch_method(tracer, "clock", calendar, "pop", popped)
    _patch_method(tracer, "clock", calendar, "pop_arrival", popped_arrival)
    _patch_method(tracer, "clock", calendar, "push", pushed)
    _patch_method(tracer, "clock", calendar, "push_arrival_after", deferred)
    for name in (
        "peek_time",
        "peek_interaction_time",
        "peek_arrival_run",
        "arrival_run_payloads",
        "upcoming_arrivals",
        "next_is_arrival",
    ):
        _patch_method(tracer, "clock", calendar, name)

    # fleetstate: probes, routing verdicts, table warm-up, dirty marks.
    def memo_query(frame, parent, args, result):
        if parent is not None and parent[1] in _MEMO_QUERIES:
            parent[3] = True
        if not frame[3]:
            tracer.bump("probes")
        admission_probe(frame, parent, args, result)

    def admission_probe(frame, parent, args, result):
        if tracer.member is not None and frame[1] in _ADMISSION_PROBES:
            tracer.member[1] = True

    def price_run(frame, parent, args, result):
        tracer.bump("price_runs")
        if result:
            tracer.bump("price_runs_useful")

    state = fleetstate.FleetState
    for name in ("probe_steps", "probe_completions", "probe_min_completion"):
        _patch_method(tracer, "fleetstate", state, name, memo_query)
    _patch_method(
        tracer, "fleetstate", state, "probe_min_batch", admission_probe
    )
    _patch_method(tracer, "fleetstate", state, "price_run", price_run)
    for name in (
        "route_min_cost",
        "route_slo_slack",
        "mark_dirty",
        "fleet_step_seconds",
        "fleet_completion_seconds",
    ):
        _patch_method(tracer, "fleetstate", state, name)

    # router: every registered policy's select / select_path. Only
    # outermost calls count (the affinity policy calls its parent's).
    def routed(frame, parent, args, result):
        if parent is not None and parent[1].startswith("router:"):
            return
        tracer.bump("selects")
        if tracer.member is not None:
            tracer.member[2] = True

    for cls in set(router._ROUTERS.values()):
        for name in ("select", "select_path"):
            if name in vars(cls):
                _patch_method(
                    tracer,
                    "router",
                    cls,
                    name,
                    routed,
                    label=f"{cls.__name__}.{name}",
                )

    # admission: the controller and the disaggregated path prober.
    def decided(frame, parent, args, result):
        tracer.bump("decides")
        admission_probe(frame, parent, args, result)

    _patch_method(tracer, "admission", SLOAdmissionController, "decide", decided)
    _patch_method(tracer, "admission", PathProber, "probe_min_completion")

    # replica: the event handlers and the macro-step.
    def stepped(frame, parent, args, result):
        tracer.bump("step_calls")
        if args[0].role != "prefill":
            tracer.bump("step_iterations")

    def compressed(frame, parent, args, result):
        tracer.bump("compress_calls")
        if result is not None:
            tracer.bump("macro_steps")

    _patch_method(tracer, "replica", Replica, "enqueue")
    _patch_method(tracer, "replica", Replica, "poke")
    _patch_method(tracer, "replica", Replica, "on_step_done", stepped)
    _patch_method(tracer, "replica", Replica, "compress_run", compressed)
    _patch_method(
        tracer,
        "replica",
        fleetstate.VectorReplica,
        "on_step_done",
        stepped,
        label="VectorReplica.on_step_done",
    )

    # speculative: acceptance draws.
    def drawn(frame, parent, args, result):
        tracer.bump("draws")

    _patch_method(
        tracer, "speculative", SpeculativeSampler, "accepted_tokens", drawn
    )

    # scheduler: PAPI's online FC placement. The vectorized fleet
    # recognizes PAPI's planner by function identity, so the wrapper is
    # registered under the same planner kind.
    def decision(frame, parent, args, result):
        tracer.bump("scheduler_calls")

    original_plan = PAPISystem.plan_fc_target
    planned = _patch_method(
        tracer, "scheduler", PAPISystem, "plan_fc_target", decision
    )
    fleetstate._PLAN_KINDS[planned] = fleetstate._PLAN_KINDS[original_plan]
    for name in (
        "begin_batch",
        "observe_outputs",
        "observe_finished",
        "observe_steady",
        "update_tlp",
    ):
        _patch_method(tracer, "scheduler", PAPISystem, name, decision)

    # stepcache: step pricing in front of the cost model, and the cache.
    def looked_up(frame, parent, args, result):
        tracer.bump("cache_lookups")
        if result is not None:
            tracer.bump("cache_hits")

    for name in ("price", "price_contexts", "price_mean_total"):
        _patch_method(tracer, "stepcache", StepPricer, name)
    original_run_pricer = StepPricer.run_pricer

    def traced_run_pricer(self, rlp, tlp):
        # The closure a macro-run prices through is a stepcache call too.
        return tracer.wrap(
            "stepcache", "price_mean", original_run_pricer(self, rlp, tlp)
        )

    StepPricer.run_pricer = tracer.wrap(
        "stepcache", "run_pricer", traced_run_pricer
    )
    for name in ("get", "get_in"):
        _patch_method(tracer, "stepcache", StepCostCache, name, looked_up)
    for name in ("put", "put_in", "scope_entries"):
        _patch_method(tracer, "stepcache", StepCostCache, name)

    # systems: the cost model's entry points (devices and models run
    # beneath them). Only outermost calls count as prices.
    def priced(frame, parent, args, result):
        if parent is None or not parent[1].startswith("systems:"):
            tracer.bump("prices")

    for name in ("execute_step", "execute_prefill"):
        _patch_method(tracer, "systems", ServingSystem, name, priced)
    _patch_method(tracer, "systems", ServingSystem, "check_capacity")
    _patch_function(tracer, "systems", batch, "price_steps_at", priced)
    for name in ("build_decode_step", "build_step_grid"):
        _patch_function(tracer, "systems", workload, name)

    # metrics: per-iteration and per-run folds; only the outermost fold
    # call counts its iterations (the run folds loop or recurse).
    def outermost(parent) -> bool:
        return parent is None or not parent[1].startswith("metrics:")

    def folded(frame, parent, args, result):
        if outermost(parent):
            tracer.bump("folds")

    def folded_run(frame, parent, args, result):
        if outermost(parent):
            tracer.bump("folds", args[2])

    def folded_segments(frame, parent, args, result):
        if not outermost(parent):
            return
        total = sum(count for _, count in args[1])
        tracer.bump("folds", total)
        if parent is not None and parent[1] == "replica:compress_run":
            tracer.bump("iterations_compressed", total)

    _patch_method(tracer, "metrics", RunSummary, "fold_iteration", folded)
    _patch_method(tracer, "metrics", RunSummary, "fold_run", folded_run)
    _patch_method(
        tracer, "metrics", RunSummary, "fold_run_segments", folded_segments
    )

    # prefixcache: routing-time peeks, serving-path lookups, inserts.
    def prefix_read(frame, parent, args, result):
        tracer.bump("prefix_reads")
        if result > 0:
            tracer.bump("prefix_hits")

    def prefix_write(frame, parent, args, result):
        tracer.bump("prefix_writes")

    _patch_method(tracer, "prefixcache", PrefixCache, "peek")
    _patch_method(tracer, "prefixcache", PrefixCache, "lookup", prefix_read)
    _patch_method(tracer, "prefixcache", PrefixCache, "insert", prefix_write)

    # interconnect: transfer pricing; calls straight from an event loop
    # ship a KV cache, the rest price a probe's path.
    def transfer(frame, parent, args, result):
        if parent is not None and parent[1].startswith("cluster:"):
            tracer.bump("transfers")

    _patch_method(
        tracer, "interconnect", Interconnect, "transfer_seconds", transfer
    )

    gc.callbacks.append(tracer._on_gc)


def calibrate(samples: int = 100_000, rounds: int = 5):
    """The tracer's cost per wrapped call: ``(inside_ns, outside_ns)``.

    ``inside_ns`` lands in the wrapped call's own span and
    ``outside_ns`` in its caller's. Measured as the best of ``rounds``
    on a wrapped no-op with a counting exit hook, like the layer
    wrappers, against the same loop calling the bare no-op.
    """

    def noop():
        return None

    best_in = best_out = None
    for _ in range(rounds):
        tracer = Tracer(())
        inner = tracer.wrap(
            "cluster", "inner", noop, lambda *_: tracer.bump("calls")
        )

        def wrapped_loop():
            for _ in range(samples):
                inner()

        def bare_loop():
            for _ in range(samples):
                noop()

        tracer.wrap("cluster", "wrapped", wrapped_loop)()
        tracer.wrap("cluster", "bare", bare_loop)()
        calls = tracer.calls
        inside = calls["cluster:inner"][1] / samples
        outside = (
            calls["cluster:wrapped"][1] - calls["cluster:bare"][1]
        ) / samples
        best_in = inside if best_in is None else min(best_in, inside)
        best_out = outside if best_out is None else min(best_out, outside)
    return best_in, best_out
