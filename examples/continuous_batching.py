#!/usr/bin/env python
"""Static vs mixed continuous batching, plus a dynamic TLP policy.

Shows the two runtime-parallelism dynamics the paper motivates (Section
3.2): under static batching RLP decays to a long tail; under mixed
continuous batching freed slots are refilled so RLP stays near the cap —
and with a utilization-adaptive TLP policy, speculation deepens as the
queue drains. PAPI reschedules through all of it.

Usage::

    python examples/continuous_batching.py
"""

from repro.analysis.report import format_table
from repro.models.config import get_model
from repro.serving.dataset import sample_requests
from repro.serving.engine import ServingEngine
from repro.serving.speculative import SpeculationConfig
from repro.serving.tlp_policy import UtilizationAdaptiveTLP
from repro.systems.registry import build_system


def describe(name, summary):
    trace = summary.rlp_trace()
    mean_rlp = sum(trace) / len(trace)
    return [
        name,
        summary.iterations,
        mean_rlp,
        summary.tokens_per_second,
        summary.reschedules,
        str(summary.fc_target_iterations),
    ]


def main() -> None:
    model = get_model("llama-65b")
    rows = []

    static_engine = ServingEngine(
        system=build_system("papi"), model=model,
        speculation=SpeculationConfig(speculation_length=2), seed=11,
    )
    static_summary = static_engine.run(
        sample_requests("general-qa", 16, seed=11)
    )
    rows.append(describe("static (batch 16)", static_summary))

    continuous_engine = ServingEngine(
        system=build_system("papi"), model=model,
        speculation=SpeculationConfig(speculation_length=2), seed=11,
    )
    # Every request is queued at t=0; freed slots refill from the queue.
    continuous_summary = continuous_engine.run_trace(
        sample_requests("general-qa", 48, seed=11), max_batch_size=16
    )
    rows.append(describe("continuous (48 reqs, cap 16)", continuous_summary))

    adaptive_engine = ServingEngine(
        system=build_system("papi"), model=model,
        speculation=SpeculationConfig(speculation_length=2), seed=11,
        tlp_policy=UtilizationAdaptiveTLP(target_tokens=32, max_tlp=8),
    )
    adaptive_summary = adaptive_engine.run(
        sample_requests("general-qa", 16, seed=11)
    )
    rows.append(describe("static + adaptive TLP", adaptive_summary))

    print(
        format_table(
            ["configuration", "iterations", "mean RLP", "tokens/s",
             "reschedules", "fc placement"],
            rows,
            title="Batching & TLP dynamics on PAPI (LLaMA-65B, general-qa)",
        )
    )
    tlp_values = adaptive_engine.tlp_trace.values
    print(
        f"\nAdaptive TLP trace: starts at {tlp_values[0]}, ends at "
        f"{tlp_values[-1]} ({adaptive_engine.tlp_trace.changes} changes) — "
        "speculation deepens as the batch drains to hold RLP x TLP near 32, "
        "and PAPI's scheduler tracks the product, not either factor alone."
    )


if __name__ == "__main__":
    main()
