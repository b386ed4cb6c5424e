"""One measured process: a timed run, a traced run or the slice check.

Usage (from the repository root)::

    python3 perfbench/worker.py timed <workload> <trace-seed>
    python3 perfbench/worker.py traced <workload> <trace-seed> <spans.json>
    python3 perfbench/worker.py slice <workload> <trace-seed>

Each invocation runs one scenario (two for ``slice``) in a fresh
interpreter pinned to one CPU, so its peak resident memory belongs to
that run alone and no cache is warm from an earlier run. It prints one
JSON object on standard output.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from checks import (  # noqa: E402
    invariant_violations,
    output_digest,
    simulated_outcomes,
)
from repro.cluster.cluster import (  # noqa: E402
    ClusterSimulator,
    VectorizedClusterSimulator,
)
from repro.scenario.run import run_scenario  # noqa: E402
from workloads import slice_spec, workload_spec  # noqa: E402


class RunClock:
    """Times the simulator's ``run`` from entry to return.

    ``run_scenario`` builds everything and then calls ``run`` once, so
    the time before entry is set-up and the time inside is simulation,
    kept as wall time and as this process's CPU time. Also keeps the
    opening-turn trace for the invariant checks.
    """

    def __init__(self) -> None:
        self.entered = 0.0
        self.returned = 0.0
        self.cpu_s = 0.0
        self.trace = None

    def install(self) -> None:
        for cls in (ClusterSimulator, VectorizedClusterSimulator):
            cls.run = self._wrap(cls.run)

    def _wrap(self, run):
        clock = self

        def timed_run(simulator, requests):
            clock.trace = requests
            clock.entered = time.perf_counter()
            cpu_entered = time.process_time()
            summary = run(simulator, requests)
            clock.returned = time.perf_counter()
            clock.cpu_s = time.process_time() - cpu_entered
            return summary

        return timed_run


def pin_to_one_cpu() -> None:
    """Run on one CPU so the scheduler cannot migrate the measurement."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_once(spec, clock: RunClock):
    """Run ``spec`` through ``run_scenario``; time set-up and simulation."""
    gc.collect()
    started = time.perf_counter()
    result = run_scenario(spec)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = result.summary
    return {
        "setup_s": clock.entered - started,
        "sim_s": clock.returned - clock.entered,
        "sim_cpu_s": clock.cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "offered": sum(t.submitted for t in summary.tenants.values()),
        "digest": output_digest(summary),
        "violations": invariant_violations(summary, clock.trace),
        "outcomes": simulated_outcomes(summary),
    }, summary


def traced(workload: str, seed: int, spans_path: str, clock: RunClock) -> dict:
    """One run with every layer's public calls wrapped in spans."""
    from tracer import Tracer, calibrate, install

    spec = workload_spec(workload, seed)
    gated = [t.name for t in spec.tenants if t.slo.admission != "admit"]
    inside_ns, outside_ns = calibrate()
    tracer = Tracer(gated)
    install(tracer)
    record, summary = run_once(spec, clock)
    self_ns = tracer.layer_self_ns(inside_ns, outside_ns)
    record["layers"] = layer_metrics(tracer, summary, self_ns)
    record["layers"]["trace.call_ns"] = inside_ns + outside_ns
    record["cross_checks"] = cross_checks(tracer, summary)
    record["self_s"] = {layer: ns / 1e9 for layer, ns in self_ns.items()}
    record["spans_written"] = tracer.write_spans(
        spans_path, {"workload": workload, "seed": seed}
    )
    return record


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, summary, layer_self_ns) -> dict:
    """The per-layer metrics of one traced run (see ``BENCHMARK.json``).

    ``layer_self_ns`` is each layer's self time with the tracer's own
    per-call cost taken out (``Tracer.layer_self_ns``).
    """
    count = tracer.counts.get

    def self_s(layer: str) -> float:
        return layer_self_ns[layer] / 1e9

    def self_ns(layer: str) -> float:
        return layer_self_ns[layer]

    probes = count("probes", 0) + count("verdict_rows", 0)
    iterations = count("step_iterations", 0) + count("iterations_compressed", 0)
    folds = count("folds", 0)
    pops = count("pops", 0)
    admitted = sum(t.admitted for t in summary.tenants.values())
    build_ns = sum(
        stat[2]
        for key, stat in tracer.calls.items()
        if key.startswith("scenario:")
    )
    run_ns = sum(
        stat[2]
        for key, stat in tracer.calls.items()
        if key.startswith("cluster:")
    )
    prefix = summary.prefix_cache
    return {
        "scenario.build_s": build_ns / 1e9,
        "scenario.requests_built": count("requests_built", 0),
        "clock.pops": pops,
        "clock.pushes": count("pushes", 0),
        "clock.self_s": self_s("clock"),
        "clock.ns_per_event": _ratio(self_ns("clock"), pops),
        "fleetstate.probes": probes,
        "fleetstate.self_s": self_s("fleetstate"),
        "fleetstate.ns_per_probe": _ratio(self_ns("fleetstate"), probes),
        "fleetstate.memo_hit_rate": summary.probe_memo.get("hit_rate", 0.0),
        "fleetstate.price_run_useful": _ratio(
            count("price_runs_useful", 0), count("price_runs", 0)
        ),
        "router.selects": count("selects", 0),
        "router.self_s": self_s("router"),
        "admission.decides": count("decides", 0),
        "admission.deferrals": count("deferrals", 0),
        "admission.rejections": count("rejections", 0),
        "admission.defers_per_admit": _ratio(count("deferrals", 0), admitted),
        "admission.self_s": self_s("admission"),
        "replica.iterations": iterations,
        "replica.step_calls": count("step_calls", 0),
        "replica.compress_calls": count("compress_calls", 0),
        "replica.macro_accept_rate": _ratio(
            count("macro_steps", 0), count("compress_calls", 0)
        ),
        "replica.macro_share": _ratio(
            count("iterations_compressed", 0), iterations
        ),
        "replica.self_s": self_s("replica"),
        "replica.ns_per_iteration": _ratio(self_ns("replica"), iterations),
        "speculative.draws": count("draws", 0),
        "speculative.self_s": self_s("speculative"),
        "scheduler.decisions": count("scheduler_calls", 0),
        "scheduler.reschedules": summary.total_reschedules,
        "scheduler.self_s": self_s("scheduler"),
        "stepcache.lookups": count("cache_lookups", 0),
        "stepcache.hit_rate": _ratio(
            count("cache_hits", 0), count("cache_lookups", 0)
        ),
        "stepcache.self_s": self_s("stepcache"),
        "systems.prices": count("prices", 0),
        "systems.self_s": self_s("systems"),
        "metrics.folds": folds,
        "metrics.self_s": self_s("metrics"),
        "metrics.ns_per_fold": _ratio(self_ns("metrics"), folds),
        "prefixcache.reads": count("prefix_reads", 0),
        "prefixcache.writes": count("prefix_writes", 0),
        "prefixcache.evictions": int(prefix.get("evictions", 0)),
        "prefixcache.hit_rate": _ratio(
            count("prefix_hits", 0), count("prefix_reads", 0)
        ),
        "prefixcache.self_s": self_s("prefixcache"),
        "interconnect.transfers": count("transfers", 0),
        "interconnect.self_s": self_s("interconnect"),
        "cluster.run_s": run_ns / 1e9,
        "cluster.loop_self_s": self_s("cluster"),
        "gc.collections": tracer.gc_collections,
        "gc.pause_s": tracer.gc_pause_ns / 1e9,
    }


def cross_checks(tracer, summary) -> list:
    """Traced counts against the program's own counters: (name, traced,
    program) triples that must agree."""
    count = tracer.counts.get
    iterations = sum(report.iterations for report in summary.replicas)
    macro = summary.step_macro
    memo = summary.probe_memo
    prefix = summary.prefix_cache
    tenants = summary.tenants.values()
    return [
        (
            "replica.iterations",
            count("step_iterations", 0) + count("iterations_compressed", 0),
            iterations,
        ),
        ("metrics.folds", count("folds", 0), iterations),
        (
            "replica.macro_steps",
            count("macro_steps", 0),
            int(macro.get("macro_steps", 0)),
        ),
        (
            "replica.iterations_compressed",
            count("iterations_compressed", 0),
            int(macro.get("iterations_compressed", 0)),
        ),
        (
            "fleetstate.probes",
            count("probes", 0) + count("verdict_rows", 0),
            int(memo.get("probe_hits", 0) + memo.get("probe_misses", 0)),
        ),
        (
            "prefixcache.reads",
            count("prefix_reads", 0),
            int(prefix.get("hits", 0) + prefix.get("misses", 0)),
        ),
        (
            "prefixcache.hits",
            count("prefix_hits", 0),
            int(prefix.get("hits", 0)),
        ),
        (
            "admission.deferrals",
            count("deferrals", 0),
            sum(t.deferrals for t in tenants),
        ),
        (
            "admission.rejections",
            count("rejections", 0),
            sum(t.rejected for t in tenants),
        ),
        (
            "interconnect.transfers",
            count("transfers", 0),
            sum(report.requests_transferred for report in summary.replicas),
        ),
    ]


def cross_core_slice(workload: str, seed: int, clock: RunClock) -> dict:
    """The reduced slice on the vectorized core and the scalar reference."""
    digests = {}
    violations = []
    for core in ("vectorized", "scalar"):
        record, _ = run_once(slice_spec(workload, seed, core), clock)
        digests[core] = record["digest"]
        violations += [f"{core} slice: {v}" for v in record["violations"]]
    return {
        "digests": digests,
        "match": digests["vectorized"] == digests["scalar"],
        "violations": violations,
    }


def main(argv) -> int:
    mode, workload, seed = argv[1], argv[2], int(argv[3])
    pin_to_one_cpu()
    clock = RunClock()
    clock.install()
    if mode == "timed":
        record, _ = run_once(workload_spec(workload, seed), clock)
    elif mode == "traced":
        record = traced(workload, seed, argv[4], clock)
    elif mode == "slice":
        record = cross_core_slice(workload, seed, clock)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
