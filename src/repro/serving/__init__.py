"""LLM serving simulation: requests, datasets, arrivals, the serving engine.

This layer reproduces the paper's evaluation methodology: batches of
requests with realistic (Dolly-like) input/output length distributions are
decoded on a :class:`~repro.systems.base.ServingSystem`, with optional
speculative decoding. :class:`ServingEngine` serves a static batch
(``run``) or an arrival-stamped trace under mixed continuous batching
(``run_trace``), both through the cluster layer's
:class:`~repro.cluster.replica.Replica` state machine. Runtime RLP decays
as requests hit ``<eos>`` (Figure 3), which is precisely the dynamic
parallelism PAPI's scheduler exploits.
"""

from repro.serving.request import DEFAULT_TENANT, Request, RequestState
from repro.serving.clock import Event, EventKind, EventQueue
from repro.serving.dataset import (
    DatasetSpec,
    CREATIVE_WRITING,
    GENERAL_QA,
    available_categories,
    sample_requests,
)
from repro.serving.speculative import SpeculationConfig, SpeculativeSampler
from repro.serving.engine import ServingEngine, StepPricer
from repro.serving.metrics import IterationRecord, RunSummary
from repro.serving.arrivals import form_dynamic_batches, poisson_arrivals
from repro.serving.slo import max_batch_under_slo
from repro.serving.stepcache import StepCostCache
from repro.serving.tlp_policy import (
    AcceptanceAdaptiveTLP,
    FixedTLP,
    TLP_POLICY_NAMES,
    UtilizationAdaptiveTLP,
    build_tlp_policy,
)
from repro.serving.export import summary_to_dict, summary_to_json

__all__ = [
    "AcceptanceAdaptiveTLP",
    "CREATIVE_WRITING",
    "DEFAULT_TENANT",
    "DatasetSpec",
    "Event",
    "EventKind",
    "EventQueue",
    "FixedTLP",
    "GENERAL_QA",
    "IterationRecord",
    "Request",
    "RequestState",
    "RunSummary",
    "ServingEngine",
    "SpeculationConfig",
    "SpeculativeSampler",
    "StepCostCache",
    "StepPricer",
    "TLP_POLICY_NAMES",
    "UtilizationAdaptiveTLP",
    "available_categories",
    "build_tlp_policy",
    "form_dynamic_batches",
    "max_batch_under_slo",
    "poisson_arrivals",
    "sample_requests",
    "summary_to_dict",
    "summary_to_json",
]
