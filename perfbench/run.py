"""The repository's benchmark: host speed of the vectorized cluster core.

Usage (from the repository root)::

    python3 perfbench/run.py --workload storm --seed 17 --seconds 35 --trace 0
    python3 perfbench/run.py --workload storm --record-digests

Runs one workload (see ``workloads.py`` and ``BENCHMARK.json``) through
``run_scenario`` on the vectorized core, one measured process at a
time, each pinned to one CPU:

* ``--trace 0`` runs fresh processes for ``--seconds`` seconds (at
  least ``MIN_REPEATS``, at most ``MAX_REPEATS``), each on another
  trace drawn from the seed, and reports the medians of ``req_per_s``
  (offered requests per host second inside the simulator's ``run``)
  and ``setup_s`` (host seconds inside ``run_scenario`` before
  ``run``), each over every repeat.
* ``--trace 1`` runs the seed's first trace once untraced and once with
  every layer's public calls wrapped in spans (``tracer.py``), and
  reports the per-layer metrics, ``trace.overhead_s`` included.
* ``--record-digests`` re-records the workload's output digests at the
  default seed in ``digests.json``; do so only when a change to the
  simulator is meant to change its simulated outputs.

Every run checks the simulated outputs: conservation invariants on
every trace, the digests recorded in ``digests.json`` at the default
seed, and a reduced slice bit-identical between the vectorized core
and the scalar reference. A traced run also checks its call counts
against the program's counters and its digest against the untraced
run's. Any failed check counts every offered request as failed and
exits with status 1.

The last line of standard output is one JSON object: ``correct``,
``attempted`` (requests offered across the measured runs), ``failed``
and ``metrics``. Lines before it are a human-readable report; the
simulated outcomes there are in simulated time and unvalidated against
hardware.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
SPANS_DIR = os.path.join(HERE, "out")

#: Fewest timed repeats per run, however long each takes.
MIN_REPEATS = 3
#: Most timed repeats per run; ``digests.json`` holds this many digests
#: per workload, one per trace of the default seed.
MAX_REPEATS = 16
#: A measured process that runs longer than this has hung.
WORKER_TIMEOUT_S = 150.0


class BenchmarkError(Exception):
    """The benchmark itself could not run (not an output-check failure)."""


def declared_units(traced: bool) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if traced else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in declared}


def run_worker(
    mode: str, workload: str, seed: int, repeat: int, *extra: str
) -> dict:
    """Run one measured process on trace ``repeat`` of ``seed``.

    Returns the process's JSON record, tagged with ``repeat``.
    """
    from workloads import trace_seed

    scenario_seed = str(trace_seed(seed, repeat))
    completed = subprocess.run(
        [sys.executable, WORKER, mode, workload, scenario_seed, *extra],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        check=False,
    )
    if completed.returncode != 0:
        raise BenchmarkError(
            f"{mode} worker for {workload} exited {completed.returncode}:\n"
            f"{completed.stderr.strip()}"
        )
    record = json.loads(completed.stdout.strip().splitlines()[-1])
    record["repeat"] = repeat
    return record


def output_problems(workload: str, seed: int, records: list) -> list:
    """Every output-check failure across a run's measured processes."""
    from workloads import DEFAULT_SEED

    problems = []
    for record in records:
        problems += [
            f"trace {record['repeat']}: {v}" for v in record["violations"]
        ]
    if seed == DEFAULT_SEED:
        with open(DIGESTS, encoding="utf-8") as handle:
            recorded = json.load(handle).get(workload, [])
        for record in records:
            repeat = record["repeat"]
            want = recorded[repeat] if repeat < len(recorded) else None
            if record["digest"] != want:
                problems.append(
                    f"trace {repeat}: digest {record['digest']} != {want} "
                    "recorded at the default seed"
                )
    crossed = run_worker("slice", workload, seed, 0)
    problems += crossed["violations"]
    if not crossed["match"]:
        problems.append(
            f"reduced slice differs between cores: {crossed['digests']}"
        )
    return problems


def timed_run(workload: str, seed: int, seconds: float):
    """Repeat on fresh traces and processes; median end-to-end metrics."""
    records = []
    started = time.perf_counter()
    while len(records) < MAX_REPEATS:
        began = time.perf_counter()
        records.append(run_worker("timed", workload, seed, len(records)))
        now = time.perf_counter()
        # Stop before a repeat as long as the last would overrun.
        projected = (now - started) + (now - began)
        if len(records) >= MIN_REPEATS and projected > seconds:
            break
    # A sub-second set-up timed once does not repeat within a tenth,
    # so ``setup_s`` is the median over every repeat's set-up.
    setups = [r["setup_s"] for r in records]
    values = {
        "req_per_s": statistics.median(
            r["offered"] / r["sim_s"] for r in records
        ),
        "setup_s": statistics.median(setups),
    }
    report = [
        f"  timed repeats {len(records)}: req_per_s "
        + " ".join(f"{r['offered'] / r['sim_s']:.1f}" for r in records),
        "  peak_rss_mb (per-layer metric, varies by trace) "
        + " ".join(f"{r['peak_rss_mb']:.1f}" for r in records),
        "  cpu/wall inside run "
        + " ".join(f"{r['sim_cpu_s'] / r['sim_s']:.3f}" for r in records),
        f"  set-ups {len(setups)}: setup_s "
        + " ".join(f"{value:.4f}" for value in setups),
    ]
    return records, values, report, []


def traced_run(workload: str, seed: int):
    """One untraced and one traced process; per-layer metrics."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(SPANS_DIR, f"spans-{workload}-{seed}.json")
    plain = run_worker("timed", workload, seed, 0)
    traced = run_worker("traced", workload, seed, 0, spans_path)
    values = dict(traced["layers"])
    values["trace.overhead_s"] = traced["sim_s"] - plain["sim_s"]
    values["process.peak_rss_mb"] = plain["peak_rss_mb"]
    problems = [
        f"traced count {name} = {got}, program counter = {want}"
        for name, got, want in traced["cross_checks"]
        if got != want
    ]
    if traced["digest"] != plain["digest"]:
        problems.append("traced run's outputs differ from the untraced run's")
    total_self = sum(traced["self_s"].values())
    report = [
        f"  untraced sim {plain['sim_s']:.3f} s, traced sim "
        f"{traced['sim_s']:.3f} s, {traced['spans_written']} sampled spans "
        f"in {os.path.relpath(spans_path, ROOT)}",
        "  traced self time by layer (tracer cost taken out):",
    ] + [
        f"    {layer:<13} {self_s:9.4f} s  {self_s / total_self:6.1%}"
        for layer, self_s in sorted(
            traced["self_s"].items(), key=lambda item: -item[1]
        )
    ] + [
        f"  cross-check {name}: traced {got} program {want}"
        for name, got, want in traced["cross_checks"]
    ]
    return [plain, traced], values, report, problems


def record_digests(workload: str) -> None:
    """Re-record ``workload``'s digests at the default seed."""
    from workloads import DEFAULT_SEED

    with open(DIGESTS, encoding="utf-8") as handle:
        recorded = json.load(handle)
    recorded[workload] = [
        run_worker("timed", workload, DEFAULT_SEED, repeat)["digest"]
        for repeat in range(MAX_REPEATS)
    ]
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=2)
        handle.write("\n")


def outcome_lines(record: dict) -> list:
    lines = [
        "  simulated outcomes of trace 0 (simulated time, unvalidated "
        "against hardware):"
    ]
    for tenant, o in record["outcomes"].items():
        lines.append(
            f"    {tenant:<11} submitted {o['submitted']} served {o['served']} "
            f"rejected {o['rejected']} deferrals {o['deferrals']} "
            f"p50 {o['p50_s']:.4f} s p99 {o['p99_s']:.4f} s "
            f"(n={o['served']}) slo_attainment {o['slo_attainment']:.4f}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(
            f"benchmark needs the simulator sources at {ROOT}/src/repro",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    try:
        if args.record_digests:
            record_digests(args.workload)
            return 0
        if args.trace:
            records, values, report, problems = traced_run(args.workload, seed)
        else:
            records, values, report, problems = timed_run(
                args.workload, seed, args.seconds
            )
        problems += output_problems(args.workload, seed, records)
        units = declared_units(bool(args.trace))
        missing = set(units) - set(values)
        if missing:
            raise BenchmarkError(f"declared metrics not measured: {missing}")
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }
    attempted = sum(record["offered"] for record in records)
    correct = not problems
    failed = 0 if correct else attempted
    print(
        f"workload {args.workload} seed {seed} "
        f"({'traced' if args.trace else 'timed'}, vectorized core)"
    )
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(
        f"  requests_offered {attempted} over {len(records)} processes "
        f"requests_failed {failed}"
    )
    for line in report + outcome_lines(records[0]):
        print(line)
    print(f"  output check: {'ok' if correct else 'FAILED'}")
    for problem in problems:
        print(f"    {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
