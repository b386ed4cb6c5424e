"""Typed, frozen scenario specs with strict validation and JSON round-trip.

One :class:`ScenarioSpec` describes a complete cluster experiment — fleet
composition, workload (dense or MoE, with speculation), per-tenant traffic
and SLOs, and routing — as a tree of frozen dataclasses that serializes to
a single JSON object and back (``from_dict(to_dict(spec)) == spec``).

Design rules:

* **Strict decoding** — ``from_dict`` rejects unknown keys and
  wrongly-typed values with a :class:`~repro.errors.ConfigurationError`
  naming the offending field path (``tenants[1].slo.p99_seconds: ...``),
  so a typo in a scenario file fails loudly instead of silently running
  the default.
* **Validation is separate from construction** — specs are plain frozen
  dataclasses; :meth:`ScenarioSpec.validate` walks the tree and reports
  the first violated constraint with its field path. ``run_scenario``
  validates before building anything.
* **Defaults mirror the CLI** — a minimal ``{}`` scenario is exactly the
  historical ``repro cluster`` default run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import typing
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.serving.request import DEFAULT_TENANT

#: Bump when a released spec field changes meaning. ``from_dict`` decodes
#: any version (an absent field defaults to this one);
#: :meth:`ScenarioSpec.validate` rejects every version but this.
SCENARIO_SCHEMA_VERSION = 1

#: Cluster simulation cores a scenario can select: the scalar reference
#: core and the array-backed vectorized core (bit-identical summaries;
#: see ``FleetSpec.core_mode``).
CORE_MODES = ("scalar", "vectorized")

#: Replica-pool roles a fleet can mix: ``colocated`` replicas own a
#: request end to end (the historical model); ``prefill`` replicas run
#: the prompt pass only and hand the KV cache to a ``decode`` replica
#: over the fleet interconnect. A fleet is either all-colocated or a
#: prefill+decode pool pair — the roles never mix with ``colocated``.
REPLICA_ROLES = ("colocated", "prefill", "decode")


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _fail(path: str, message: str) -> None:
    raise ConfigurationError(f"{path}: {message}")


def _decode(hint: Any, value: Any, path: str) -> Any:
    """Decode one JSON value against a type hint, error with field path."""
    origin = typing.get_origin(hint)
    if origin is Union:  # Optional[X] is Union[X, None]
        inner = [a for a in typing.get_args(hint) if a is not type(None)]
        if value is None:
            return None
        return _decode(inner[0], value, path)
    if origin is tuple:
        item = typing.get_args(hint)[0]
        if not isinstance(value, (list, tuple)):
            _fail(path, f"expected a list, got {type(value).__name__}")
        return tuple(
            _decode(item, v, f"{path}[{i}]") for i, v in enumerate(value)
        )
    if dataclasses.is_dataclass(hint):
        return _spec_from_dict(hint, value, path)
    if hint is bool:
        if not isinstance(value, bool):
            _fail(path, f"expected a boolean, got {value!r}")
        return value
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(path, f"expected an integer, got {value!r}")
        return value
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(path, f"expected a number, got {value!r}")
        return float(value)
    if hint is str:
        if not isinstance(value, str):
            _fail(path, f"expected a string, got {value!r}")
        return value
    raise ConfigurationError(  # pragma: no cover - spec fields cover all hints
        f"{path}: unsupported spec field type {hint!r}"
    )


def _spec_from_dict(cls: type, data: Any, path: str) -> Any:
    if not isinstance(data, Mapping):
        _fail(path or cls.__name__, f"expected an object, got {data!r}")
    hints = typing.get_type_hints(cls)
    known = {f.name: f for f in fields(cls)}
    for key in data:
        if key not in known:
            _fail(
                _join(path, str(key)),
                f"unknown field (known: {', '.join(sorted(known))})",
            )
    kwargs: Dict[str, Any] = {}
    for name, spec_field in known.items():
        if name in data:
            kwargs[name] = _decode(hints[name], data[name], _join(path, name))
        elif (
            spec_field.default is dataclasses.MISSING
            and spec_field.default_factory is dataclasses.MISSING
        ):
            _fail(_join(path, name), "missing required field")
    return cls(**kwargs)


def _check_finite(spec: Any, path: str) -> None:
    """Reject NaN/infinity in every float field under ``spec``: JSON
    and ``float()`` both parse them, and no range check catches NaN."""
    if isinstance(spec, tuple):
        for i, item in enumerate(spec):
            _check_finite(item, f"{path}[{i}]")
    elif dataclasses.is_dataclass(spec):
        for spec_field in fields(spec):
            _check_finite(
                getattr(spec, spec_field.name), _join(path, spec_field.name)
            )
    elif isinstance(spec, float) and not math.isfinite(spec):
        _fail(path, f"must be a finite number, got {spec!r}")


def _spec_to_dict(spec: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for spec_field in fields(spec):
        value = getattr(spec, spec_field.name)
        if value is None:
            continue  # optional sub-spec left unset; from_dict restores None
        if dataclasses.is_dataclass(value):
            out[spec_field.name] = _spec_to_dict(value)
        elif isinstance(value, tuple):
            out[spec_field.name] = [
                _spec_to_dict(v) if dataclasses.is_dataclass(v) else v
                for v in value
            ]
        else:
            out[spec_field.name] = value
    return out


class SpecBase:
    """JSON codec shared by every spec dataclass."""

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON dict; ``from_dict`` inverts it exactly."""
        return _spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], path: str = "") -> "SpecBase":
        """Strictly decode a dict (unknown keys / bad types raise with
        the offending field path)."""
        return _spec_from_dict(cls, data, path)


@dataclass(frozen=True)
class MoESpec(SpecBase):
    """Sparse-expert FFN configuration for an MoE workload.

    Attributes:
        num_experts: Experts per MoE FFN layer.
        experts_per_token: Top-k routing fan-out per token.
        expert_ffn_dim: Inner dimension of one expert's FFN; 0 keeps the
            total expert bytes equal to the dense FFN's
            (``ffn_dim // num_experts``), so the fleet stays within the
            same weight capacity.
    """

    num_experts: int = 8
    experts_per_token: int = 2
    expert_ffn_dim: int = 0

    def validate(self, path: str = "moe") -> None:
        if self.num_experts <= 0:
            _fail(_join(path, "num_experts"), "must be positive")
        if not 0 < self.experts_per_token <= self.num_experts:
            _fail(
                _join(path, "experts_per_token"),
                "must be in (0, num_experts]",
            )
        if self.expert_ffn_dim < 0:
            _fail(
                _join(path, "expert_ffn_dim"),
                "must be non-negative (0 = capacity-neutral default)",
            )


@dataclass(frozen=True)
class WorkloadSpec(SpecBase):
    """What a replica serves: model, sparsity, and speculation.

    Attributes:
        model: Registered model name (see ``repro list``).
        speculation_length: TLP — tokens verified per decoding iteration
            (1 disables speculation).
        acceptance_rate: Per-token draft acceptance probability.
        tlp_policy: Dynamic speculation-length policy
            (``fixed`` / ``acceptance`` / ``utilization``).
        context_mode: Attention context accounting
            (``per-request`` / ``mean``).
        moe: Sparse-expert configuration; ``None`` serves the dense model.
    """

    model: str = "llama-65b"
    speculation_length: int = 2
    acceptance_rate: float = 0.8
    tlp_policy: str = "fixed"
    context_mode: str = "per-request"
    moe: Optional[MoESpec] = None

    def validate(self, path: str = "workload") -> None:
        from repro.models.config import available_models
        from repro.serving.engine import CONTEXT_MODES
        from repro.serving.tlp_policy import TLP_POLICY_NAMES

        if self.model not in available_models():
            _fail(
                _join(path, "model"),
                f"unknown model {self.model!r}; "
                f"known: {', '.join(available_models())}",
            )
        if self.speculation_length <= 0:
            _fail(_join(path, "speculation_length"), "must be positive")
        if not 0.0 <= self.acceptance_rate <= 1.0:
            _fail(_join(path, "acceptance_rate"), "must be in [0, 1]")
        if self.tlp_policy not in TLP_POLICY_NAMES:
            _fail(
                _join(path, "tlp_policy"),
                f"unknown policy {self.tlp_policy!r}; "
                f"known: {', '.join(TLP_POLICY_NAMES)}",
            )
        if self.context_mode not in CONTEXT_MODES:
            _fail(
                _join(path, "context_mode"),
                f"must be one of {', '.join(CONTEXT_MODES)}",
            )
        if self.moe is not None:
            self.moe.validate(_join(path, "moe"))


@dataclass(frozen=True)
class ReplicaSpec(SpecBase):
    """One homogeneous group of replicas within the fleet.

    Attributes:
        system: Registered serving-system name.
        count: Replicas in this group.
        max_batch_size: Continuous-batching slots per replica.
        workload: Group-specific workload; ``None`` inherits the
            scenario's default workload — mixed fleets give each group
            its own (e.g. one MoE group next to dense ones).
        role: Pool role (:data:`REPLICA_ROLES`): ``colocated`` replicas
            own requests end to end; ``prefill`` replicas finish at
            first token and ship the KV cache to the ``decode`` pool.
            ``max_batch_size`` is the per-pool batch limit — prefill
            groups typically run small prompt batches while decode
            groups pack wide token batches.
    """

    system: str = "papi"
    count: int = 1
    max_batch_size: int = 16
    workload: Optional[WorkloadSpec] = None
    role: str = "colocated"

    def validate(self, path: str = "replicas") -> None:
        from repro.systems.registry import available_systems

        if self.system not in available_systems():
            _fail(
                _join(path, "system"),
                f"unknown system {self.system!r}; "
                f"known: {', '.join(available_systems())}",
            )
        if self.count <= 0:
            _fail(_join(path, "count"), "must be positive")
        if self.max_batch_size <= 0:
            _fail(_join(path, "max_batch_size"), "must be positive")
        if self.role not in REPLICA_ROLES:
            _fail(
                _join(path, "role"),
                f"must be one of {', '.join(REPLICA_ROLES)}",
            )
        if self.workload is not None:
            self.workload.validate(_join(path, "workload"))


@dataclass(frozen=True)
class InterconnectSpec(SpecBase):
    """The prefill->decode KV-transfer link of a disaggregated fleet.

    Moving a request between pools ships its KV cache (one entry per
    context token) across the inter-pool link, so the handoff costs

    ``hop_latency_s + context_tokens * kv_bytes_per_token
    / (bandwidth_gb_s * 1e9)``

    seconds. Defaults model a llama-65b-sized cache (80 layers x 8192
    hidden x K+V at fp16 = 2.5 MiB/token) over a 50 GB/s inter-stack
    link with a 50 us hop.

    Attributes:
        kv_bytes_per_token: KV-cache footprint per context token (bytes).
        bandwidth_gb_s: Link bandwidth in GB/s (1 GB = 1e9 bytes).
        hop_latency_s: Fixed per-transfer latency (link setup + routing).
    """

    kv_bytes_per_token: float = 2_621_440.0
    bandwidth_gb_s: float = 50.0
    hop_latency_s: float = 50e-6

    def transfer_seconds(self, context_tokens: int) -> float:
        """Seconds to move ``context_tokens`` of KV cache between pools."""
        return self.hop_latency_s + (
            context_tokens * self.kv_bytes_per_token
        ) / (self.bandwidth_gb_s * 1e9)

    def validate(self, path: str = "interconnect") -> None:
        if self.kv_bytes_per_token <= 0:
            _fail(_join(path, "kv_bytes_per_token"), "must be positive")
        if self.bandwidth_gb_s <= 0:
            _fail(_join(path, "bandwidth_gb_s"), "must be positive")
        if self.hop_latency_s < 0:
            _fail(_join(path, "hop_latency_s"), "must be non-negative")


@dataclass(frozen=True)
class PrefixCacheSpec(SpecBase):
    """Per-replica KV/prefix cache (LRU over sessions, byte capacity).

    Each replica keeps the final KV context of recently served session
    turns; a follow-up turn whose conversation prefix is resident only
    prefills its suffix. Capacity is in bytes — entries are whole
    session contexts (``context_tokens * bytes_per_token``) and the
    least-recently-used session is evicted when an insert overflows.

    Attributes:
        capacity_gb: Cache capacity per replica in GB (1 GB = 1e9 bytes).
        bytes_per_token: KV-cache footprint per context token (bytes);
            defaults mirror :class:`InterconnectSpec` (llama-65b-sized
            fp16 KV, 2.5 MiB/token).
    """

    capacity_gb: float = 64.0
    bytes_per_token: float = 2_621_440.0

    @property
    def capacity_tokens(self) -> int:
        """Whole context tokens the byte capacity holds."""
        return int(self.capacity_gb * 1e9 / self.bytes_per_token)

    def validate(self, path: str = "prefix_cache") -> None:
        if self.capacity_gb <= 0:
            _fail(_join(path, "capacity_gb"), "must be positive")
        if self.bytes_per_token <= 0:
            _fail(_join(path, "bytes_per_token"), "must be positive")
        if self.capacity_tokens < 1:
            _fail(
                _join(path, "capacity_gb"),
                "capacity must hold at least one context token",
            )


@dataclass(frozen=True)
class FleetSpec(SpecBase):
    """The cluster's replica groups and shared serving plumbing.

    Attributes:
        replicas: Replica groups; ids are assigned in group order, so the
            first group holds replicas ``0..count-1`` and so on.
        step_cache: Share one step-cost cache across the fleet. Only
            the scalar core reads it: the vectorized core's price
            groups memoize the same step keys in front of it.
        detail: Per-replica metric retention: ``full`` keeps one record
            per decoding iteration (RLP traces, per-iteration debugging);
            ``aggregate`` streams iterations into running totals so
            million-request traces stay flat in memory. Every aggregate
            and per-tenant number is bit-identical between the modes.
        core_mode: Which simulation core drives the cluster.
            ``vectorized`` (the default) runs the array-backed core:
            flat event calendar, fleet-wide numpy load arrays, dense
            price tables, and incremental load counters. ``scalar`` runs
            the event-queue reference core, which probes every replica
            one at a time and rescans its queues per probe — the oracle
            the equivalence suite pins the vectorized core against.
            Summaries are bit-identical; the vectorized core is an order
            of magnitude faster at fleet scale.
        interconnect: KV-transfer link between the prefill and decode
            pools; required exactly when the fleet is disaggregated
            (some group's ``role`` is ``prefill``/``decode``) and
            rejected on all-colocated fleets, where no handoff exists.
        prefix_cache: Per-replica session prefix cache
            (:class:`PrefixCacheSpec`); ``None`` disables prefix reuse
            — every turn prefills its full prompt.
    """

    replicas: Tuple[ReplicaSpec, ...] = (ReplicaSpec(),)
    step_cache: bool = True
    detail: str = "full"
    core_mode: str = "vectorized"
    interconnect: Optional[InterconnectSpec] = None
    prefix_cache: Optional[PrefixCacheSpec] = None

    @property
    def total_replicas(self) -> int:
        return sum(group.count for group in self.replicas)

    @property
    def disaggregated(self) -> bool:
        """True when the fleet routes over prefill/decode pools."""
        return any(group.role != "colocated" for group in self.replicas)

    def validate(self, path: str = "fleet") -> None:
        from repro.serving.metrics import DETAIL_MODES

        if not self.replicas:
            _fail(_join(path, "replicas"), "must be non-empty")
        for i, group in enumerate(self.replicas):
            group.validate(f"{_join(path, 'replicas')}[{i}]")
        if self.detail not in DETAIL_MODES:
            _fail(
                _join(path, "detail"),
                f"must be one of {', '.join(DETAIL_MODES)}",
            )
        if self.core_mode not in CORE_MODES:
            _fail(
                _join(path, "core_mode"),
                f"must be one of {', '.join(CORE_MODES)}",
            )
        roles = {group.role for group in self.replicas}
        if roles != {"colocated"}:
            if "colocated" in roles:
                _fail(
                    _join(path, "replicas"),
                    "colocated groups cannot mix with prefill/decode "
                    "pools; a fleet is either all-colocated or "
                    "disaggregated",
                )
            if "prefill" not in roles:
                _fail(
                    _join(path, "replicas"),
                    "a disaggregated fleet needs at least one "
                    "role='prefill' group",
                )
            if "decode" not in roles:
                _fail(
                    _join(path, "replicas"),
                    "a disaggregated fleet needs at least one "
                    "role='decode' group",
                )
            if self.interconnect is None:
                _fail(
                    _join(path, "interconnect"),
                    "a disaggregated fleet must specify the KV-transfer "
                    "interconnect",
                )
        elif self.interconnect is not None:
            _fail(
                _join(path, "interconnect"),
                "only disaggregated fleets (prefill/decode pools) have "
                "a KV-transfer interconnect",
            )
        if self.interconnect is not None:
            self.interconnect.validate(_join(path, "interconnect"))
        if self.prefix_cache is not None:
            self.prefix_cache.validate(_join(path, "prefix_cache"))


#: Arrival processes a tenant's traffic can follow.
ARRIVAL_PROCESSES = ("poisson", "bursty", "diurnal")


@dataclass(frozen=True)
class ArrivalProcessSpec(SpecBase):
    """How a tenant's opening requests arrive over time.

    Attributes:
        kind: One of :data:`ARRIVAL_PROCESSES`. ``poisson`` is the
            historical memoryless stream; ``bursty`` groups arrivals
            into Poisson-epoch bursts (mean ``burst_size`` members,
            same long-run rate); ``diurnal`` modulates the rate on a
            sinusoidal peak/trough cycle.
        burst_size: Mean requests per burst (``bursty`` only).
        period_s: Peak-to-peak cycle length in simulated seconds
            (``diurnal`` only).
        peak_to_trough: Ratio of the peak arrival rate to the trough
            rate (``diurnal`` only; 1 degenerates to Poisson).
    """

    kind: str = "poisson"
    burst_size: float = 8.0
    period_s: float = 60.0
    peak_to_trough: float = 4.0

    def validate(self, path: str = "arrival") -> None:
        if self.kind not in ARRIVAL_PROCESSES:
            _fail(
                _join(path, "kind"),
                f"must be one of {', '.join(ARRIVAL_PROCESSES)}",
            )
        if self.burst_size < 1:
            _fail(_join(path, "burst_size"), "must be at least 1")
        if self.period_s <= 0:
            _fail(_join(path, "period_s"), "must be positive")
        if self.peak_to_trough < 1:
            _fail(_join(path, "peak_to_trough"), "must be at least 1")


@dataclass(frozen=True)
class SessionSpec(SpecBase):
    """Multi-turn conversation structure for a tenant's traffic.

    Each opening request starts a session of ``turns`` turns. A
    follow-up turn's prompt is the previous turn's full final context
    (the reusable prefix) plus a fresh log-normal suffix; its arrival is
    scheduled dynamically — an exponential think time after the
    previous turn completes — so session load is conditioned on served
    latency, not pre-stamped. All randomness (suffix/output lengths,
    think times) is pre-drawn per tenant at build time, keeping traces
    bit-identical for any shard count.

    Attributes:
        turns: Turns per session (1 = independent requests).
        think_time_s: Mean think time between a turn's completion and
            the next turn's arrival (exponential).
        suffix_median: Median follow-up suffix length in tokens
            (log-normal; the new user message appended to the prefix).
        suffix_sigma: Log-normal sigma of follow-up suffix lengths.
    """

    turns: int = 4
    think_time_s: float = 2.0
    suffix_median: float = 48.0
    suffix_sigma: float = 0.5

    def validate(self, path: str = "session") -> None:
        if self.turns < 1:
            _fail(_join(path, "turns"), "must be at least 1")
        if self.think_time_s <= 0:
            _fail(_join(path, "think_time_s"), "must be positive")
        if self.suffix_median <= 0:
            _fail(_join(path, "suffix_median"), "must be positive")
        if self.suffix_sigma < 0:
            _fail(_join(path, "suffix_sigma"), "must be non-negative")


@dataclass(frozen=True)
class TrafficSpec(SpecBase):
    """One tenant's offered load.

    Attributes:
        category: Request-length category (``creative-writing`` /
            ``general-qa``).
        requests: Trace length — the number of *opening* requests; with
            a ``session`` spec each opens a session of
            ``session.turns`` turns, so the tenant submits up to
            ``requests * session.turns`` requests in total (fewer when
            a turn is rejected, which ends its session).
        rate_per_s: Mean arrival rate of opening requests (requests/s).
        arrival: Arrival process of the opening requests; ``None`` is
            the historical plain Poisson stream.
        session: Multi-turn session structure; ``None`` keeps every
            request independent.
    """

    category: str = "creative-writing"
    requests: int = 64
    rate_per_s: float = 32.0
    arrival: Optional[ArrivalProcessSpec] = None
    session: Optional[SessionSpec] = None

    def validate(self, path: str = "traffic") -> None:
        from repro.serving.dataset import available_categories

        if self.category not in available_categories():
            _fail(
                _join(path, "category"),
                f"unknown category {self.category!r}; "
                f"known: {', '.join(available_categories())}",
            )
        if self.requests <= 0:
            _fail(_join(path, "requests"), "must be positive")
        if self.rate_per_s <= 0:
            _fail(_join(path, "rate_per_s"), "must be positive")
        if self.arrival is not None:
            self.arrival.validate(_join(path, "arrival"))
        if self.session is not None:
            self.session.validate(_join(path, "session"))


@dataclass(frozen=True)
class SLOSpec(SpecBase):
    """One tenant's latency objective and admission policy.

    Attributes:
        p99_seconds: Per-request arrival-to-``<eos>`` budget; 0.0 means
            best effort (no deadline, no admission control).
        admission: What to do with an arrival whose projected completion
            blows the budget: ``admit`` (let it through), ``reject``
            (drop it), or ``defer`` (retry after a backoff, bounded).
        defer_seconds: Backoff before a deferred request re-arrives.
        max_defers: Deferrals per request before it is rejected.
    """

    p99_seconds: float = 0.0
    admission: str = "admit"
    defer_seconds: float = 0.5
    max_defers: int = 4

    def validate(self, path: str = "slo") -> None:
        from repro.cluster.admission import ADMISSION_ACTIONS

        if self.p99_seconds < 0:
            _fail(
                _join(path, "p99_seconds"),
                "must be non-negative (0 = best effort)",
            )
        if self.admission not in ADMISSION_ACTIONS:
            _fail(
                _join(path, "admission"),
                f"unknown action {self.admission!r}; "
                f"known: {', '.join(ADMISSION_ACTIONS)}",
            )
        if self.admission != "admit" and self.p99_seconds == 0:
            _fail(
                _join(path, "admission"),
                f"{self.admission!r} needs a positive p99_seconds budget",
            )
        if self.defer_seconds <= 0:
            _fail(_join(path, "defer_seconds"), "must be positive")
        if isinstance(self.max_defers, bool) or not isinstance(
            self.max_defers, numbers.Integral
        ):
            _fail(
                _join(path, "max_defers"),
                f"expected an integer, got {self.max_defers!r}",
            )
        if self.max_defers < 0:
            _fail(_join(path, "max_defers"), "must be non-negative")


@dataclass(frozen=True)
class TenantSpec(SpecBase):
    """One traffic class: a named bundle of workload traffic and SLO.

    Attributes:
        name: Tenant label; tags every request the tenant submits and
            keys its :class:`~repro.cluster.cluster.TenantReport`.
        traffic: The tenant's offered load.
        slo: The tenant's latency budget and admission policy.
        seed_offset: Pins the tenant's RNG stream to ``spec.seed +
            seed_offset`` regardless of the tenant's position in the
            spec. ``None`` (the default) uses the tenant's list index —
            the historical convention. Sharded execution
            (``run_scenario(spec, shards=N)``) sets this on its
            sub-specs so every tenant draws the exact trace it would
            draw in the single-process run, whatever shard it lands on.
    """

    name: str = DEFAULT_TENANT
    traffic: TrafficSpec = TrafficSpec()
    slo: SLOSpec = SLOSpec()
    seed_offset: Optional[int] = None

    def validate(self, path: str = "tenant") -> None:
        if not self.name:
            _fail(_join(path, "name"), "must be non-empty")
        if self.seed_offset is not None and self.seed_offset < 0:
            _fail(_join(path, "seed_offset"), "must be non-negative")
        self.traffic.validate(_join(path, "traffic"))
        self.slo.validate(_join(path, "slo"))


@dataclass(frozen=True)
class RoutingSpec(SpecBase):
    """Request-to-replica assignment policy.

    Attributes:
        policy: Registered router name (see ``repro list``); use
            ``slo-slack`` for deadline-aware multi-tenant routing.
    """

    policy: str = "intensity"

    def validate(self, path: str = "routing") -> None:
        from repro.cluster.router import available_routers

        if self.policy not in available_routers():
            _fail(
                _join(path, "policy"),
                f"unknown router {self.policy!r}; "
                f"known: {', '.join(available_routers())}",
            )


@dataclass(frozen=True)
class ScenarioSpec(SpecBase):
    """A complete, serializable cluster experiment.

    Attributes:
        name: Scenario label (report titles, result JSON).
        version: Spec schema version (:data:`SCENARIO_SCHEMA_VERSION`).
        seed: Base RNG seed; tenant ``i`` samples lengths and arrivals
            from ``seed + i``, so tenants draw independent streams and a
            single-tenant scenario reproduces the historical
            ``repro cluster`` trace exactly.
        workload: Default workload for replica groups without their own.
        fleet: Replica groups.
        tenants: Traffic classes; at least one.
        routing: Routing policy.
    """

    name: str = "scenario"
    version: int = SCENARIO_SCHEMA_VERSION
    seed: int = 0
    workload: WorkloadSpec = WorkloadSpec()
    fleet: FleetSpec = FleetSpec()
    tenants: Tuple[TenantSpec, ...] = (TenantSpec(),)
    routing: RoutingSpec = RoutingSpec()

    def validate(self) -> None:
        """Check every constraint; raises ``ConfigurationError`` naming
        the first offending field path."""
        _check_finite(self, "")
        if not self.name:
            _fail("name", "must be non-empty")
        if self.version != SCENARIO_SCHEMA_VERSION:
            _fail(
                "version",
                f"unsupported schema version {self.version!r} "
                f"(this build reads {SCENARIO_SCHEMA_VERSION})",
            )
        if self.seed < 0:
            _fail("seed", "must be non-negative")
        self.workload.validate("workload")
        self.fleet.validate("fleet")
        if not self.tenants:
            _fail("tenants", "must be non-empty")
        seen = set()
        for i, tenant in enumerate(self.tenants):
            tenant.validate(f"tenants[{i}]")
            if tenant.name in seen:
                _fail(
                    f"tenants[{i}].name",
                    f"duplicate tenant name {tenant.name!r}",
                )
            seen.add(tenant.name)
        self.routing.validate("routing")

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"scenario JSON: {exc}") from None
        return cls.from_dict(data)


#: Every spec dataclass, root first — the self-documenting surface
#: ``repro list`` prints.
SPEC_TYPES: Tuple[type, ...] = (
    ScenarioSpec,
    WorkloadSpec,
    MoESpec,
    FleetSpec,
    ReplicaSpec,
    InterconnectSpec,
    PrefixCacheSpec,
    TenantSpec,
    TrafficSpec,
    ArrivalProcessSpec,
    SessionSpec,
    SLOSpec,
    RoutingSpec,
)


def scenario_spec_fields() -> Dict[str, Tuple[str, ...]]:
    """Field names of every registered spec type, root first."""
    return {
        cls.__name__: tuple(f.name for f in fields(cls)) for cls in SPEC_TYPES
    }


def load_scenario(path: str) -> ScenarioSpec:
    """Read, decode, and validate a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        spec = ScenarioSpec.from_json(handle.read())
    spec.validate()
    return spec
