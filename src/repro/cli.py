"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``serve`` — run one serving simulation and print the summary.
* ``compare`` — run all systems on one workload, normalized to a baseline.
* ``cluster`` — shard a Poisson arrival trace across N replicas under a
  routing policy; report per-replica utilization/reschedules and p99.
  The flags are sugar: they assemble a single-tenant
  :class:`~repro.scenario.ScenarioSpec` and run it through
  :func:`~repro.scenario.run_scenario`.
* ``run`` — execute declarative scenario JSON files (fleet, workload,
  multi-tenant traffic + SLOs, routing) and report per-replica,
  aggregate, and per-tenant results; several files form a batch that
  ``--workers`` fans across processes; ``--json`` exports the result(s).
* ``sweep`` — run a design-space sweep: ``grid`` prices an RLP x TLP x
  context cartesian grid through the vectorized batch path; ``moe``
  crosses expert-routing axes (num_experts / top-k / expert FFN dim)
  with the operating grid, vectorized per MoE variant; ``tlp`` sweeps
  the speculation length through full serving runs; ``fc-stacks`` /
  ``attn-link`` / ``gpu-count`` / ``alpha`` re-run the serving-level
  configuration sweeps (optionally process-parallel via ``--workers``).
  All modes export CSV/JSON.
* ``figures`` — regenerate a paper figure's rows (fig2..fig12, headline).
* ``calibrate`` — report the offline-calibrated alpha for a model.
* ``list`` — enumerate registered models, systems, routers, sweep modes,
  and scenario spec fields.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro import __version__
from repro.analysis.report import format_table
from repro.cluster import available_routers
from repro.errors import CapacityError, ConfigurationError
from repro.models.config import available_models, get_model
from repro.scenario import (
    ARRIVAL_PROCESSES,
    CORE_CHOICES,
    REPLICA_ROLES,
    FleetSpec,
    MoESpec,
    ReplicaSpec,
    RoutingSpec,
    ScenarioResult,
    ScenarioSpec,
    SLOSpec,
    TenantSpec,
    TrafficSpec,
    WorkloadSpec,
    apply_core_mode,
    load_scenario,
    run_scenario,
    run_scenarios,
    scenario_spec_fields,
)
from repro.serving.dataset import available_categories, sample_requests
from repro.serving.engine import CONTEXT_MODES, ServingEngine
from repro.serving.metrics import energy_efficiency, speedup
from repro.serving.speculative import SpeculationConfig
from repro.serving.tlp_policy import TLP_POLICY_NAMES
from repro.systems.papi import PAPISystem
from repro.systems.registry import available_systems, build_system

#: Registered design-space sweep modes (parser choices and ``repro list``).
SWEEP_MODES = (
    "grid", "moe", "tlp", "fc-stacks", "attn-link", "gpu-count", "alpha"
)


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="llama-65b", help="model name")
    parser.add_argument("--batch", type=int, default=16, help="batch size (RLP)")
    parser.add_argument("--spec", type=int, default=2,
                        help="speculation length (TLP)")
    parser.add_argument("--category", default="creative-writing",
                        choices=("creative-writing", "general-qa"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--context-mode", default="per-request",
                        choices=CONTEXT_MODES,
                        help="attention context accounting (mean reproduces "
                             "the paper-figure approximation)")


def _run(system_name: str, args: argparse.Namespace):
    if args.batch <= 0:
        # Named here: the sampler would name its own ``count`` argument.
        raise ConfigurationError("--batch must be positive")
    engine = ServingEngine(
        system=build_system(system_name),
        model=get_model(args.model),
        speculation=SpeculationConfig(speculation_length=args.spec),
        seed=args.seed,
        context_mode=args.context_mode,
    )
    requests = sample_requests(args.category, args.batch, seed=args.seed)
    return engine.run(requests)


def cmd_serve(args: argparse.Namespace) -> int:
    summary = _run(args.system, args)
    print(
        format_table(
            ["metric", "value"],
            [
                ["system", summary.system],
                ["model", summary.model],
                ["end-to-end seconds", summary.total_seconds],
                ["decode seconds", summary.decode_seconds],
                ["energy (kJ)", summary.total_energy / 1e3],
                ["tokens generated", summary.tokens_generated],
                ["tokens / second", summary.tokens_per_second],
                ["iterations", summary.iterations],
                ["reschedules", summary.reschedules],
                ["fc placement", str(summary.fc_target_iterations)],
            ],
            title=f"{summary.system}: {args.category} batch={args.batch} "
                  f"spec={args.spec}",
        )
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    summaries = {name: _run(name, args) for name in available_systems()}
    baseline = summaries[args.baseline]
    rows = [
        [name, s.total_seconds, speedup(baseline, s),
         energy_efficiency(baseline, s), s.tokens_per_second]
        for name, s in summaries.items()
    ]
    print(
        format_table(
            ["system", "seconds", "speedup", "energy eff.", "tokens/s"],
            rows,
            title=f"All systems on {args.model} / {args.category} "
                  f"(batch={args.batch}, spec={args.spec}, "
                  f"baseline={args.baseline})",
        )
    )
    return 0


def scenario_from_cluster_args(args: argparse.Namespace) -> ScenarioSpec:
    """Assemble the single-tenant scenario the ``cluster`` flags describe.

    The first ``--moe-replicas`` replicas serve the MoE variant (their
    group comes first so replica ids match the historical flag path), the
    rest the dense default workload.
    """
    if args.moe_replicas < 0:
        raise SystemExit("--moe-replicas must be non-negative")
    if args.moe_replicas > args.replicas:
        raise SystemExit("--moe-replicas cannot exceed --replicas")
    workload = WorkloadSpec(
        model=args.model,
        speculation_length=args.spec,
        acceptance_rate=args.acceptance,
        tlp_policy=args.tlp_policy,
        context_mode=args.context_mode,
    )
    groups = []
    if args.moe_replicas > 0:
        moe = MoESpec(
            num_experts=args.experts,
            experts_per_token=args.topk,
            expert_ffn_dim=args.expert_ffn,
        )
        groups.append(
            ReplicaSpec(
                system=args.system,
                count=args.moe_replicas,
                max_batch_size=args.max_batch,
                workload=dataclasses.replace(workload, moe=moe),
            )
        )
    if args.replicas - args.moe_replicas > 0:
        groups.append(
            ReplicaSpec(
                system=args.system,
                count=args.replicas - args.moe_replicas,
                max_batch_size=args.max_batch,
            )
        )
    return ScenarioSpec(
        name="cluster",
        seed=args.seed,
        workload=workload,
        fleet=FleetSpec(replicas=tuple(groups), step_cache=args.step_cache),
        tenants=(
            TenantSpec(
                traffic=TrafficSpec(
                    category=args.category,
                    requests=args.requests,
                    rate_per_s=args.rate,
                ),
            ),
        ),
        routing=RoutingSpec(policy=args.router),
    )


def _print_replica_table(summary, title: str) -> None:
    print(
        format_table(
            ["replica", "model", "role", "served", "tokens", "iterations",
             "utilization", "reschedules", "acceptance", "E[experts]"],
            [
                [r.replica_id, r.model, r.role, r.requests_served,
                 r.tokens_generated, r.iterations, r.utilization,
                 r.reschedules, r.acceptance_rate, r.mean_active_experts]
                for r in summary.replicas
            ],
            title=title,
        )
    )


def _print_pool_tables(summary) -> None:
    """Per-pool and handoff-latency tables for disaggregated runs."""
    if not summary.pools:
        return
    print(
        format_table(
            ["pool", "replicas", "served", "transferred", "tokens",
             "utilization", "queueing (s)"],
            [
                [p.role, p.replicas, p.requests_served,
                 p.requests_transferred, p.tokens_generated,
                 p.utilization, p.queueing_seconds]
                for p in summary.pools.values()
            ],
            title="Per-pool report",
        )
    )
    rows = []
    for label, stats in (
        ("time to first token", summary.ttft),
        ("KV-transfer wait", summary.transfer_wait),
    ):
        if stats:
            rows.append(
                [label, stats["mean_s"], stats["p50_s"], stats["p99_s"],
                 int(stats["samples"])]
            )
    if rows:
        print(
            format_table(
                ["metric", "mean (s)", "p50 (s)", "p99 (s)", "samples"],
                rows,
                title="Handoff latency",
            )
        )


def _print_session_tables(summary) -> None:
    """Prefix-cache and session rollups; skipped for sessionless runs."""
    if summary.prefix_cache:
        cache = summary.prefix_cache
        print(
            format_table(
                ["metric", "value"],
                [
                    ["lookup hits", int(cache["hits"])],
                    ["lookup misses", int(cache["misses"])],
                    ["hit rate", cache["hit_rate"]],
                    ["evictions", int(cache["evictions"])],
                    ["prefill tokens saved", int(cache["cached_tokens"])],
                ],
                title="Prefix cache",
            )
        )
    sessions = summary.sessions
    if sessions:
        latency = sessions["followup_latency"]
        print(
            format_table(
                ["metric", "value"],
                [
                    ["sessions", int(sessions["sessions"])],
                    ["turns submitted", int(sessions["turns_submitted"])],
                    ["turns served", int(sessions["turns_served"])],
                    [
                        "cached prefix tokens",
                        int(sessions["cached_prefix_tokens"]),
                    ],
                    ["follow-up mean (s)", latency["mean_s"]],
                    ["follow-up p50 (s)", latency["p50_s"]],
                    ["follow-up p99 (s)", latency["p99_s"]],
                ],
                title="Session workload",
            )
        )


def _print_aggregate_table(summary) -> None:
    aggregate_rows = [
        ["makespan seconds", summary.makespan_seconds],
        ["tokens / second", summary.tokens_per_second],
        ["p50 latency (s)", summary.latency_percentile(50)],
        ["p99 latency (s)", summary.latency_percentile(99)],
        ["mean latency (s)", summary.mean_latency],
        ["total reschedules", summary.total_reschedules],
    ]
    for key, value in summary.router_cache.items():
        aggregate_rows.append([f"router cache {key}", value])
    for key, value in summary.probe_memo.items():
        aggregate_rows.append([f"probe memo {key}", value])
    for key, value in summary.step_macro.items():
        aggregate_rows.append([f"step macro {key}", int(value)])
    print(format_table(["metric", "value"], aggregate_rows,
                       title="Cluster aggregate"))


def _print_tenant_table(result: ScenarioResult) -> None:
    print(
        format_table(
            ["tenant", "submitted", "admitted", "rejected", "deferrals",
             "served", "p50 (s)", "p99 (s)", "SLO p99 (s)", "attainment"],
            [
                [t.tenant, t.submitted, t.admitted, t.rejected, t.deferrals,
                 t.served, t.p50_latency_s, t.p99_latency_s,
                 t.slo_p99_seconds, t.slo_attainment]
                for t in result.tenants.values()
            ],
            title="Per-tenant SLO report",
        )
    )


def cmd_cluster(args: argparse.Namespace) -> int:
    spec = scenario_from_cluster_args(args)
    if args.core:
        spec = apply_core_mode(spec, args.core)
    result = run_scenario(spec)
    summary = result.summary
    _print_replica_table(
        summary,
        title=f"{args.replicas}x {args.system} / router={summary.router} "
              f"({args.requests} requests @ {args.rate}/s, "
              f"tlp-policy={args.tlp_policy})",
    )
    _print_aggregate_table(summary)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    specs = []
    for path in args.scenarios:
        try:
            specs.append(load_scenario(path))
        except OSError as exc:
            raise SystemExit(f"cannot read scenario file: {exc}") from None
        except ConfigurationError as exc:
            raise SystemExit(f"{path}: {exc}") from None
    if getattr(args, "core", ""):
        specs = [apply_core_mode(spec, args.core) for spec in specs]
    shards = getattr(args, "shards", 1)
    if shards > 1:
        results = [run_scenario(spec, shards=shards) for spec in specs]
    else:
        results = run_scenarios(specs, workers=args.workers)
    for result in results:
        spec = result.spec
        summary = result.summary
        _print_replica_table(
            summary,
            title=f"scenario {spec.name!r}: "
                  f"{len(summary.replicas)} replicas / router={summary.router} "
                  f"({len(spec.tenants)} tenants)",
        )
        _print_pool_tables(summary)
        _print_session_tables(summary)
        _print_aggregate_table(summary)
        _print_tenant_table(result)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            if len(results) == 1:
                handle.write(results[0].to_json())
            else:
                import json as _json

                handle.write(
                    _json.dumps(
                        [result.to_dict() for result in results], indent=2
                    )
                    + "\n"
                )
        noun = "result" if len(results) == 1 else "results"
        print(f"wrote {len(results)} scenario {noun} to {args.json}")
    return 0


def _parse_axis(text: str) -> List[int]:
    """Parse an integer axis spec: ``1,2,4`` and/or ``lo:hi[:step]``.

    Range tokens are inclusive of ``hi`` when the step lands on it:
    ``1:8:2`` is 1, 3, 5, 7 and ``2:8:2`` is 2, 4, 6, 8.
    """
    values: List[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            parts = token.split(":")
            if len(parts) not in (2, 3):
                raise SystemExit(f"bad axis range {token!r}; use lo:hi[:step]")
            try:
                lo, hi = int(parts[0]), int(parts[1])
                step = int(parts[2]) if len(parts) == 3 else 1
            except ValueError:
                raise SystemExit(
                    f"bad axis range {token!r}; bounds must be integers"
                ) from None
            if step <= 0 or hi < lo:
                raise SystemExit(f"bad axis range {token!r}")
            values.extend(range(lo, hi + 1, step))
        else:
            try:
                values.append(int(token))
            except ValueError:
                raise SystemExit(
                    f"bad axis value {token!r}; must be an integer"
                ) from None
    if not values:
        raise SystemExit(f"axis spec {text!r} produced no values")
    if min(values) <= 0:
        raise SystemExit(
            f"axis spec {text!r} has non-positive values; "
            "RLP/TLP/context/config axes must be positive"
        )
    return values


def _export_sweep(result, args: argparse.Namespace) -> None:
    if args.csv:
        result.write_csv(args.csv)
        print(f"wrote {len(result)} rows to {args.csv}")
    if args.json:
        result.write_json(args.json)
        print(f"wrote {len(result)} rows to {args.json}")


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.design_space import (
        LINKS_BY_NAME,
        sweep_attn_link,
        sweep_fc_stacks,
        sweep_gpu_count,
    )
    from repro.analysis.sweep import (
        SweepResult,
        price_step_sweep,
        sweep_alpha,
        sweep_moe,
        sweep_tlp,
    )

    mode = args.mode
    if mode == "grid":
        system = build_system(args.system)
        model = get_model(args.model)
        result = price_step_sweep(
            system,
            model,
            _parse_axis(args.rlp),
            _parse_axis(args.tlp),
            _parse_axis(args.context),
        )
        shown = result.rows if args.all_rows else result.rows[:20]
        print(
            format_table(
                list(result.columns),
                [[row.get(col) for col in result.columns] for row in shown],
                title=f"{args.system} step grid: {len(result)} points "
                      f"({'all' if args.all_rows else 'first 20'} shown)",
            )
        )
    elif mode == "moe":
        result = sweep_moe(
            num_experts_values=_parse_axis(args.experts),
            experts_per_token_values=_parse_axis(args.topk),
            expert_ffn_dim_values=(
                _parse_axis(args.expert_ffn) if args.expert_ffn else ()
            ),
            model_name=args.model,
            system=build_system(args.system),
            rlp_values=_parse_axis(args.rlp),
            tlp_values=_parse_axis(args.tlp),
            context_values=_parse_axis(args.context),
        )
        shown = result.rows if args.all_rows else result.rows[:20]
        print(
            format_table(
                list(result.columns),
                [[row.get(col) for col in result.columns] for row in shown],
                title=f"{args.system} MoE sweep: {len(result)} points "
                      f"({'all' if args.all_rows else 'first 20'} shown)",
            )
        )
    elif mode == "tlp":
        lengths = _parse_axis(args.values) if args.values else [1, 2, 4, 8]
        summaries = sweep_tlp(
            speculation_lengths=lengths,
            model_name=args.model,
            batch=args.batch,
            acceptance_rate=args.acceptance,
            seed=args.seed,
            workers=args.workers,
        )
        rows = [
            {
                "speculation_length": s,
                "expected_tokens_per_iter": SpeculationConfig(
                    speculation_length=s, acceptance_rate=args.acceptance
                ).expected_tokens_per_iteration(),
                "decode_seconds": summary.decode_seconds,
                "draft_seconds": summary.draft_seconds,
                "tokens_per_second": summary.tokens_per_second,
                "reschedules": summary.reschedules,
            }
            for s, summary in summaries.items()
        ]
        result = SweepResult.from_rows(rows)
        print(
            format_table(
                list(result.columns),
                result.to_table_rows(),
                title=f"TLP sweep ({args.model}, batch={args.batch}, "
                      f"acceptance={args.acceptance})",
            )
        )
    elif mode == "alpha":
        alphas = tuple(
            float(token) for token in args.values.split(",") if token.strip()
        ) if args.values else (2.0, 8.0, 20.0, 64.0, 256.0, 4096.0)
        summaries, calibrated = sweep_alpha(
            alphas=alphas,
            model_name=args.model,
            batch=args.batch,
            spec=args.spec,
            seed=args.seed,
            workers=args.workers,
        )
        rows = [
            {
                "alpha": alpha,
                "decode_seconds": s.decode_seconds,
                "reschedules": s.reschedules,
                "pu_iterations": s.fc_target_iterations.get("pu", 0),
                "fc_pim_iterations": s.fc_target_iterations.get("fc-pim", 0),
            }
            for alpha, s in summaries.items()
        ]
        result = SweepResult.from_rows(rows)
        print(
            format_table(
                list(result.columns),
                result.to_table_rows(),
                title=f"Alpha sweep (calibrated alpha = {calibrated:.1f})",
            )
        )
    else:
        if mode == "fc-stacks":
            values = _parse_axis(args.values) if args.values else (10, 20, 30, 45, 60)
            points = sweep_fc_stacks(values, model_name=args.model,
                                     workers=args.workers)
        elif mode == "attn-link":
            names = (
                [t.strip() for t in args.values.split(",") if t.strip()]
                if args.values else list(LINKS_BY_NAME)
            )
            unknown = [name for name in names if name not in LINKS_BY_NAME]
            if unknown:
                raise SystemExit(
                    f"unknown links {unknown}; known: {sorted(LINKS_BY_NAME)}"
                )
            points = sweep_attn_link([LINKS_BY_NAME[n] for n in names],
                                     model_name=args.model,
                                     workers=args.workers)
        elif mode == "gpu-count":
            values = _parse_axis(args.values) if args.values else (2, 4, 6, 12)
            points = sweep_gpu_count(values, model_name=args.model,
                                     workers=args.workers)
        else:  # pragma: no cover - argparse choices guard this
            raise SystemExit(f"unknown sweep mode {mode!r}")
        result = SweepResult.from_rows([
            {
                "label": p.label,
                "decode_seconds": p.decode_seconds,
                "energy_joules": p.energy_joules,
                "tokens_per_second": p.tokens_per_second,
                "fits_model": p.fits_model,
            }
            for p in points
        ])
        print(
            format_table(
                list(result.columns),
                result.to_table_rows(),
                title=f"{mode} sweep ({args.model})",
            )
        )
    _export_sweep(result, args)
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    system = PAPISystem()
    alpha = system.calibrate(get_model(args.model))
    print(f"calibrated alpha for {args.model}: {alpha:.1f} "
          f"(FC runs on PUs when RLP x TLP > alpha)")
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    print("models:     " + ", ".join(available_models()))
    print("systems:    " + ", ".join(available_systems()))
    print("routers:    " + ", ".join(available_routers()))
    print("sweeps:     " + ", ".join(SWEEP_MODES))
    print("categories: " + ", ".join(available_categories()))
    print("tlp-policies: " + ", ".join(TLP_POLICY_NAMES))
    print("core modes: " + ", ".join(CORE_CHOICES)
          + "  (repro run/cluster --core; bit-identical summaries)")
    print("arrival processes: " + ", ".join(ARRIVAL_PROCESSES)
          + "  (tenants[].traffic.arrival.kind)")
    print("replica roles: " + ", ".join(REPLICA_ROLES)
          + "  (fleet.replicas[].role; prefill/decode pools need "
          + "fleet.interconnect)")
    print("scenario spec fields (repro run <scenario.json>):")
    for spec_name, field_names in scenario_spec_fields().items():
        print(f"  {spec_name}: {', '.join(field_names)}")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis import evaluation, motivation

    figure = args.figure.lower()
    if figure in ("fig2", "fig02"):
        points = motivation.fig2_roofline_study()
        rows = [[p.kernel, p.batch_size, p.speculation_length,
                 p.point.arithmetic_intensity,
                 "memory" if p.point.memory_bound else "compute"]
                for p in points]
        print(format_table(
            ["kernel", "batch", "spec", "AI", "bound"], rows, title="Figure 2"))
    elif figure in ("fig4", "fig04"):
        cells = motivation.fig4_fc_latency()
        rows = [[c.device, c.batch_size, c.speculation_length,
                 c.normalized_to_a100] for c in cells]
        print(format_table(
            ["device", "batch", "spec", "norm latency"], rows, title="Figure 4"))
    elif figure in ("fig7", "fig07"):
        result = motivation.fig7_energy_power()
        rows = [[c.config, c.reuse_level, c.watts, c.within_budget]
                for c in result["power"]]
        print(format_table(
            ["config", "reuse", "watts", "in budget"], rows, title="Figure 7(c)"))
    elif figure in ("fig8", "fig08"):
        cells = evaluation.fig8_end_to_end()
        rows = [[c.model, c.speculation_length, c.batch_size, c.system,
                 c.speedup, c.energy_efficiency] for c in cells]
        print(format_table(
            ["model", "spec", "batch", "system", "speedup", "energy eff."],
            rows, title="Figure 8"))
    elif figure == "headline":
        numbers = evaluation.headline_numbers()
        print(format_table(
            ["metric", "value"], list(numbers.items()), title="Headline"))
    else:
        print(f"unknown figure {args.figure!r}; "
              "try fig2, fig4, fig7, fig8, headline", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PAPI (ASPLOS 2025) reproduction: PIM-enabled "
                    "heterogeneous LLM decoding simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run one serving simulation")
    serve.add_argument("--system", default="papi",
                       choices=available_systems())
    _add_workload_args(serve)
    serve.set_defaults(fn=cmd_serve)

    compare = sub.add_parser("compare", help="compare all systems")
    compare.add_argument("--baseline", default="a100-attacc",
                         choices=available_systems())
    _add_workload_args(compare)
    compare.set_defaults(fn=cmd_compare)

    cluster = sub.add_parser(
        "cluster", help="multi-replica serving under a routing policy"
    )
    cluster.add_argument("--system", default="papi",
                         choices=available_systems())
    cluster.add_argument("--replicas", type=int, default=4,
                         help="number of system replicas")
    cluster.add_argument("--router", default="intensity",
                         choices=available_routers())
    cluster.add_argument("--requests", type=int, default=64,
                         help="trace length (requests)")
    cluster.add_argument("--rate", type=float, default=32.0,
                         help="Poisson arrival rate (requests/s)")
    cluster.add_argument("--max-batch", type=int, default=16,
                         help="per-replica continuous-batching slots")
    cluster.add_argument("--no-step-cache", dest="step_cache",
                         action="store_false",
                         help="disable the shared step-cost cache "
                              "(scalar core only)")
    cluster.add_argument("--model", default="llama-65b", help="model name")
    cluster.add_argument("--spec", type=int, default=2,
                         help="speculation length (TLP)")
    cluster.add_argument("--acceptance", type=float, default=0.8,
                         help="per-token draft acceptance probability "
                              "(1.0 = always accept)")
    cluster.add_argument("--tlp-policy", default="fixed",
                         choices=("fixed", "acceptance", "utilization"),
                         help="dynamic speculation-length policy per replica")
    cluster.add_argument("--moe-replicas", type=int, default=0,
                         help="how many replicas serve the MoE variant "
                              "(0 = all dense)")
    cluster.add_argument("--experts", type=int, default=8,
                         help="MoE experts per layer (moe replicas)")
    cluster.add_argument("--topk", type=int, default=2,
                         help="MoE experts per token (moe replicas)")
    cluster.add_argument("--expert-ffn", type=int, default=0,
                         help="expert FFN inner dim (0 = ffn_dim / experts, "
                              "capacity-neutral)")
    cluster.add_argument("--category", default="creative-writing",
                         choices=("creative-writing", "general-qa"))
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--context-mode", default="per-request",
                         choices=CONTEXT_MODES)
    cluster.add_argument("--core", default="", choices=CORE_CHOICES,
                         help="pin the simulation core preset (scalar "
                              "reference / vectorized array, the "
                              "default); both report bit-identical "
                              "summaries")
    cluster.set_defaults(fn=cmd_cluster)

    run = sub.add_parser(
        "run",
        help="run declarative scenario JSON files (fleet, tenants, "
             "SLOs, routing) through run_scenarios()",
    )
    run.add_argument("scenarios", nargs="+", metavar="scenario",
                     help="path(s) to scenario JSON files; several files "
                          "form a batch (see --workers)")
    run.add_argument("--workers", type=int, default=0,
                     help="process-parallel workers for a scenario batch "
                          "(0/1 runs inline; outputs are identical)")
    run.add_argument("--shards", type=int, default=1,
                     help="split each scenario's tenants across N worker "
                          "processes (per-tenant traces are bit-identical "
                          "to --shards 1; each shard serves its tenants "
                          "on its own fleet copy)")
    run.add_argument("--core", default="", choices=CORE_CHOICES,
                     help="override each scenario's simulation core "
                          "(scalar reference / vectorized array, the "
                          "default); summaries are bit-identical across "
                          "cores")
    run.add_argument("--json", default="",
                     help="export the full result (aggregate, replicas, "
                          "per-tenant SLO reports) to a JSON file; a "
                          "multi-scenario batch writes a JSON array")
    run.set_defaults(fn=cmd_run)

    sweep = sub.add_parser(
        "sweep", help="design-space sweeps (vectorized grid or config axes)"
    )
    sweep.add_argument("mode",
                       choices=SWEEP_MODES,
                       help="grid prices RLP x TLP x context through the "
                            "vectorized path; moe crosses expert-routing "
                            "axes with that grid; tlp sweeps speculation "
                            "length through serving runs; the rest sweep "
                            "system configs")
    sweep.add_argument("--model", default="llama-65b", help="model name")
    sweep.add_argument("--system", default="papi",
                       choices=available_systems(),
                       help="system priced by the grid mode")
    sweep.add_argument("--rlp", default="1:32",
                       help="grid RLP axis: comma list and/or lo:hi[:step]")
    sweep.add_argument("--tlp", default="1,2,4",
                       help="grid TLP axis: comma list and/or lo:hi[:step]")
    sweep.add_argument("--context", default="256:4096:256",
                       help="grid context axis: comma list and/or lo:hi[:step]")
    sweep.add_argument("--experts", default="8,16,32,64",
                       help="moe sweep num_experts axis")
    sweep.add_argument("--topk", default="1,2,4",
                       help="moe sweep experts_per_token axis")
    sweep.add_argument("--expert-ffn", default="",
                       help="moe sweep expert FFN inner-dim axis "
                            "(default: ffn_dim/8 and ffn_dim/4)")
    sweep.add_argument("--acceptance", type=float, default=0.8,
                       help="tlp sweep draft acceptance probability")
    sweep.add_argument("--values", default="",
                       help="config-axis values for tlp/fc-stacks/attn-link/"
                            "gpu-count/alpha (defaults per mode)")
    sweep.add_argument("--batch", type=int, default=32,
                       help="alpha/tlp sweep batch size")
    sweep.add_argument("--spec", type=int, default=2,
                       help="alpha sweep speculation length")
    sweep.add_argument("--seed", type=int, default=29,
                       help="alpha/tlp sweep RNG seed")
    sweep.add_argument("--workers", type=int, default=0,
                       help="process-parallel workers for config sweeps")
    sweep.add_argument("--csv", default="", help="export rows to a CSV file")
    sweep.add_argument("--json", default="", help="export rows to a JSON file")
    sweep.add_argument("--all-rows", action="store_true",
                       help="print every grid row (default: first 20)")
    sweep.set_defaults(fn=cmd_sweep)

    figures = sub.add_parser("figures", help="regenerate a paper figure")
    figures.add_argument("figure", help="fig2|fig4|fig7|fig8|headline")
    figures.set_defaults(fn=cmd_figures)

    calibrate = sub.add_parser("calibrate", help="calibrate alpha")
    calibrate.add_argument("--model", default="llama-65b")
    calibrate.set_defaults(fn=cmd_calibrate)

    lister = sub.add_parser(
        "list",
        help="list models, systems, routers, sweeps, and scenario fields",
    )
    lister.set_defaults(fn=cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Bad input — an invalid configuration or a workload that does not fit
    the system — exits with the error's message instead of a traceback;
    any other error (a simulation fault among them) keeps its traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError, CapacityError) as exc:
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
