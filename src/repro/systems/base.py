"""Abstract serving system and the per-iteration result type.

A serving system prices decoding iterations. The execution model within an
iteration is sequential across the four kernels (they are data-dependent
inside each layer), so iteration time is the sum of per-layer kernel times
scaled by the layer count, plus the communication time of shipping
Q/K/V vectors to the attention unit and attention outputs back, plus a
small host overhead (token gathering, sampling, scheduler bookkeeping —
the "Other" slice of the paper's Figure 12).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, TYPE_CHECKING

from repro.core.placement import PlacementTarget

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.scheduler import LoadSignal
    from repro.models.moe import MoEModelConfig
    from repro.models.workload import StepGrid
    from repro.systems.batch import IterationResultArray
from repro.devices.base import ComputeDevice, KernelResult
from repro.devices.interconnect import Link
from repro.errors import CapacityError, ConfigurationError
from repro.models.config import ModelConfig
from repro.models.workload import (
    DecodeStep,
    KernelInvocation,
    build_decode_step,
    prefill_cost,
)
from repro.units import us


def attention_io_bytes(model: ModelConfig, tokens):
    """Link bytes for one iteration's attention I/O over all layers.

    Per layer: Q vectors plus fresh K/V entries travel to the attention
    unit; attention context vectors travel back. Polymorphic over an int
    token count (scalar pricing) and an int64 lane array (batch pricing)
    — one body, so the two paths cannot drift apart.
    """
    elem = model.dtype_bytes
    h = model.hidden_dim
    to_attn = tokens * 3 * h * elem  # Q + new K + new V
    from_attn = tokens * h * elem
    per_layer_bytes = to_attn + from_attn
    return per_layer_bytes * model.num_layers


@dataclass(frozen=True)
class IterationResult:
    """Time/energy accounting for one decoding iteration.

    Attributes:
        seconds: Wall-clock iteration time.
        energy_joules: Total energy.
        time_breakdown: Seconds by component: ``fc``, ``attention``,
            ``communication``, ``other``.
        energy_breakdown: Joules by the same components.
        fc_target: Where the FC kernels ran.
        rlp: Active requests this iteration.
        tlp: Speculation length this iteration.
    """

    seconds: float
    energy_joules: float
    time_breakdown: Dict[str, float]
    energy_breakdown: Dict[str, float]
    fc_target: PlacementTarget
    rlp: int
    tlp: int

    def __post_init__(self) -> None:
        if self.seconds < 0 or self.energy_joules < 0:
            raise ConfigurationError("iteration time/energy must be non-negative")


@dataclass(frozen=True)
class StepHalf:
    """The context-free half of a serial decoding iteration's price.

    Everything :meth:`ServingSystem.execute_step` charges a serial step
    except its attention kernel: the QKV, projection and FFN kernels on
    the planned FC unit, the attention link's transfer, and the idle
    power the iteration's wall time is billed at. None of it reads the KV
    context, so one half serves every step at the same ``(fc_target,
    rlp, tlp)`` on one system and workload;
    :meth:`ServingSystem.compose_step` adds the attention kernel.

    Attributes:
        fc_target: Where the FC kernels run.
        rlp: Active requests of the step.
        tlp: Speculation length of the step.
        fc_seconds: FC kernel time over all layers.
        fc_energy: FC kernel energy over all layers.
        comm_seconds: Attention-link transfer time.
        comm_energy: Attention-link transfer energy.
        background_watts: :meth:`ServingSystem.background_power_watts`.
    """

    fc_target: PlacementTarget
    rlp: int
    tlp: int
    fc_seconds: float
    fc_energy: float
    comm_seconds: float
    comm_energy: float
    background_watts: float


class ServingSystem(abc.ABC):
    """A complete computing platform that executes LLM decoding.

    Subclasses define where FC kernels run (possibly dynamically) and which
    units/links compose the system. The serving engine drives a system via
    :meth:`begin_batch`, :meth:`execute_step`, and :meth:`observe_outputs`.
    """

    #: Registry/reporting name; subclasses override.
    name: str = "abstract"

    #: Host-side per-iteration cost: output gathering, sampling, and (for
    #: PAPI) the scheduler's RLP*TLP estimate — all cheap (Section 5.2).
    host_overhead_s: float = us(200.0)

    #: Sub-batch pipelining depth (SpecPIM-style overlap): the batch is
    #: split into this many chunks so one chunk's attention (on Attn-PIM,
    #: behind the link) overlaps the next chunk's FC (on PUs/FC-PIM).
    #: 1 = the paper's serial execution. Chunking re-streams FC weights per
    #: chunk, so it only pays off when FC is compute-bound and the
    #: attention+communication share is substantial.
    pipeline_chunks: int = 1

    def background_power_watts(self) -> float:
        """Idle power of every device held by the system while serving.

        Charged over wall-clock time for each iteration and the prefill,
        so slower systems pay for keeping the whole platform powered —
        the effect behind the paper's observation that PAPI edges out even
        the all-PIM design on energy despite using GPU cores part-time.
        """
        from repro.devices.energy import GPU_IDLE_WATTS, PIM_STACK_IDLE_WATTS

        watts = 0.0
        gpus = getattr(self, "gpus", None)
        if gpus is not None:
            watts += GPU_IDLE_WATTS * gpus.count
        for attr in ("fc_pim", "attn_pim"):
            pool = getattr(self, attr, None)
            if pool is not None:
                watts += PIM_STACK_IDLE_WATTS * pool.num_stacks
        return watts

    @abc.abstractmethod
    def fc_unit_for(self, target: PlacementTarget) -> ComputeDevice:
        """The device implementing ``target`` for FC kernels."""

    @abc.abstractmethod
    def attention_unit(self) -> ComputeDevice:
        """The device executing attention kernels."""

    @abc.abstractmethod
    def attention_link(self) -> Link:
        """Link carrying Q/K/V and attention outputs to/from the unit."""

    @abc.abstractmethod
    def plan_fc_target(self, rlp: int, tlp: int) -> PlacementTarget:
        """Decide where the next iteration's FC kernels run."""

    def begin_batch(self, batch_size: int, speculation_length: int) -> None:
        """Hook called when a new batch starts (PAPI runs initial scheduling)."""

    def observe_outputs(self, output_tokens: Sequence[int]) -> None:
        """Hook called with the gathered output-token vector (PAPI monitors)."""

    def observe_finished(self, finished: int, batch_size: int) -> None:
        """Count-based twin of :meth:`observe_outputs`.

        The vectorized cluster core reports each iteration as *how many
        of the batch's requests emitted ``<eos>``* instead of
        materializing a per-request output vector. The runtime monitors
        this repo models are count-based (PAPI counts ``<eos>`` tokens to
        decrement RLP), so the two hooks are informationally equivalent.
        The default reconstructs an equivalent vector for subclasses that
        only override :meth:`observe_outputs` — and skips even that when
        the subclass left the vector hook as the no-op default.
        """
        if type(self).observe_outputs is ServingSystem.observe_outputs:
            return
        from repro.core.scheduler import EOS_TOKEN

        self.observe_outputs(
            [EOS_TOKEN] * finished + [0] * (batch_size - finished)
        )

    def observe_steady(self, count: int, batch_size: int) -> None:
        """Observe ``count`` finish-free iterations in one call.

        The macro-stepping serving cores collapse a run of iterations in
        which no request finishes; this hook is the matching collapse of
        ``count`` back-to-back ``observe_finished(0, batch_size)`` calls.
        The default is exact for any subclass: systems that left both
        per-iteration hooks as no-ops skip entirely, and everything else
        replays the per-iteration calls so stateful monitors see the
        identical sequence. Systems whose monitor is provably
        steady-state-idempotent (PAPI) override this with a closed form.
        """
        if (
            type(self).observe_outputs is ServingSystem.observe_outputs
            and type(self).observe_finished is ServingSystem.observe_finished
        ):
            return
        for _ in range(count):
            self.observe_finished(0, batch_size)

    def update_tlp(self, tlp: int) -> None:
        """Hook called when system software changes the speculation length.

        PAPI forwards this to the scheduler's TLP register (Section 5.2.2's
        'the host CPU notifies the PAPI system to update the register').
        """

    def load_signal(self) -> Optional["LoadSignal"]:
        """Scheduler load snapshot for cluster routing, if the system has
        a dynamic scheduler (``None`` for statically placed systems)."""
        return None

    # -- capacity ------------------------------------------------------------

    def weight_capacity_bytes(self) -> float:
        """Bytes available to hold FC weights."""
        unit = self.fc_unit_for(self.plan_fc_target(1, 1))
        capacity = getattr(unit, "memory_bytes", None) or getattr(
            unit, "capacity_bytes", None
        )
        if capacity is None:
            raise ConfigurationError(f"{unit!r} exposes no capacity")
        return float(capacity)

    def kv_capacity_bytes(self) -> float:
        """Bytes available to hold KV caches."""
        unit = self.attention_unit()
        capacity = getattr(unit, "capacity_bytes", None) or getattr(
            unit, "memory_bytes", None
        )
        if capacity is None:
            raise ConfigurationError(f"{unit!r} exposes no capacity")
        return float(capacity)

    def check_capacity(
        self,
        model: ModelConfig,
        batch_size: int,
        max_seq_len: int,
        moe: Optional["MoEModelConfig"] = None,
    ) -> None:
        """Raise :class:`CapacityError` if the workload cannot fit.

        Weights must fit the FC unit's memory; the batch's worst-case KV
        cache must fit the attention unit's memory (Section 3.2's memory
        capacity limit on initial RLP). An MoE workload must fit *all*
        experts — sparsity cuts compute, not resident weight bytes, which
        is exactly the bank-capacity pressure expert placement sweeps
        probe.
        """
        name = model.name if moe is None else moe.name
        weight_need = model.weight_bytes if moe is None else moe.weight_bytes
        weight_have = self.weight_capacity_bytes()
        if weight_need > weight_have:
            raise CapacityError(
                f"{self.name}: {name} weights need {weight_need / 1e9:.0f} GB, "
                f"only {weight_have / 1e9:.0f} GB available"
            )
        kv_need = batch_size * model.kv_bytes(max_seq_len)
        kv_have = self.kv_capacity_bytes()
        if kv_need > kv_have:
            raise CapacityError(
                f"{self.name}: KV cache needs {kv_need / 1e9:.0f} GB for "
                f"batch {batch_size} x {max_seq_len} tokens, only "
                f"{kv_have / 1e9:.0f} GB available"
            )

    def max_batch_size(self, model: ModelConfig, max_seq_len: int) -> int:
        """Largest batch whose worst-case KV cache fits (Section 3.2b)."""
        per_request = model.kv_bytes(max_seq_len)
        return int(self.kv_capacity_bytes() // per_request)

    # -- execution -----------------------------------------------------------

    def _communication(self, model: ModelConfig, tokens: int) -> tuple:
        """Time and energy to ship attention I/O across the link.

        Per layer: Q vectors plus fresh K/V entries travel to the attention
        unit; attention context vectors travel back. Each direction is one
        message (latency) per layer.
        """
        link = self.attention_link()
        total_bytes = attention_io_bytes(model, tokens)
        seconds = link.transfer_time(
            total_bytes, messages=2 * model.num_layers
        )
        energy = link.transfer_energy(total_bytes)
        return seconds, energy

    def prices_like(self, other: "ServingSystem") -> bool:
        """Whether ``other`` prices every step exactly as this system does.

        Configuration equality — the same type and dataclass ``__eq__``
        over devices, links and thresholds — plus :attr:`pipeline_chunks`,
        a plain attribute outside the dataclass fields that changes the
        price of every pipelined step. Shared price caches
        (``share_equal_systems``) and the vectorized fleet's price groups
        both scope by it.
        """
        return (
            type(self) is type(other)
            and self.pipeline_chunks == other.pipeline_chunks
            and self == other
        )

    def is_serial(self, rlp: int) -> bool:
        """True when a step of ``rlp`` requests runs serially.

        A step is pipelined only when ``pipeline_chunks > 1`` and the
        batch is large enough to split; otherwise its price is one
        :class:`StepHalf` plus one attention kernel.
        """
        return not (self.pipeline_chunks > 1 and rlp >= self.pipeline_chunks)

    def execute_step(self, step: DecodeStep) -> IterationResult:
        """Price one decoding iteration on this system.

        Dispatches to the pipelined path when the step is not serial
        (:meth:`is_serial`).
        """
        if not self.is_serial(step.rlp):
            return self._execute_step_pipelined(step, self.pipeline_chunks)
        return self._execute_step_serial(step)

    def price_steps(self, grid: "StepGrid") -> "IterationResultArray":
        """Price a whole grid of decoding iterations in vectorized passes.

        The batch-first twin of :meth:`execute_step`: point ``i`` of the
        returned :class:`~repro.systems.batch.IterationResultArray` is
        bit-equal to ``execute_step(grid.step_at(i))`` — including the
        sub-batch pipelined dispatch when ``pipeline_chunks > 1`` — but a
        10k-point grid costs a few dozen numpy passes instead of 10k trips
        through the scalar cost model. Design-space sweeps and admission-
        cost projection route through here.
        """
        from repro.systems.batch import price_steps as _price_steps

        return _price_steps(self, grid)

    def _execute_step_serial(self, step: DecodeStep) -> IterationResult:
        half = self.step_half(
            self.plan_fc_target(step.rlp, step.tlp),
            step.fc_invocations,
            step.model,
            step.rlp,
            step.tlp,
        )
        return self.compose_step(half, step.attention_invocation)

    def step_half(
        self,
        fc_target: PlacementTarget,
        fc_invocations: Sequence[KernelInvocation],
        model: ModelConfig,
        rlp: int,
        tlp: int,
    ) -> StepHalf:
        """Price the context-free half of a serial step (see
        :class:`StepHalf`): ``fc_invocations`` on ``fc_target``'s unit,
        in order, plus the link transfer for ``rlp * tlp`` tokens."""
        fc_device = self.fc_unit_for(fc_target)
        fc_seconds = 0.0
        fc_energy = 0.0
        for invocation in fc_invocations:
            layers = invocation.num_layers
            result = fc_device.execute(invocation.per_layer)
            fc_seconds += result.seconds * layers
            fc_energy += result.energy_joules * layers
        comm_seconds, comm_energy = self._communication(model, rlp * tlp)
        return StepHalf(
            fc_target=fc_target,
            rlp=rlp,
            tlp=tlp,
            fc_seconds=fc_seconds,
            fc_energy=fc_energy,
            comm_seconds=comm_seconds,
            comm_energy=comm_energy,
            background_watts=self.background_power_watts(),
        )

    def compose_step(
        self, half: StepHalf, attention: KernelInvocation
    ) -> IterationResult:
        """A serial step's price: ``half`` plus its attention kernel.

        The one body every serial price goes through, whether the half
        was just priced (:meth:`execute_step`) or memoized (the serving
        pricer). Components are summed in the order fc, attention,
        communication, other, so both routes round identically.
        """
        result = self.attention_unit().execute(attention.per_layer)
        attn_seconds = result.seconds * attention.num_layers
        attn_energy = result.energy_joules * attention.num_layers
        other_seconds = self.host_overhead_s
        total_seconds = (
            half.fc_seconds + attn_seconds + half.comm_seconds + other_seconds
        )
        background_energy = half.background_watts * total_seconds
        total_energy = (
            half.fc_energy + attn_energy + half.comm_energy + background_energy
        )
        return IterationResult(
            seconds=total_seconds,
            energy_joules=total_energy,
            time_breakdown={
                "fc": half.fc_seconds,
                "attention": attn_seconds,
                "communication": half.comm_seconds,
                "other": other_seconds,
            },
            energy_breakdown={
                "fc": half.fc_energy,
                "attention": attn_energy,
                "communication": half.comm_energy,
                "other": background_energy,
            },
            fc_target=half.fc_target,
            rlp=half.rlp,
            tlp=half.tlp,
        )

    def _execute_step_pipelined(
        self, step: DecodeStep, chunks: int
    ) -> IterationResult:
        """SpecPIM-style sub-batch pipelining across the FC and attention
        units.

        The batch is split into ``chunks`` near-even sub-batches. Chunk
        ``i``'s attention (+ link traffic) overlaps chunk ``i+1``'s FC,
        since the two run on different devices. Makespan follows the
        two-stage pipeline recurrence; weights are re-streamed per chunk,
        which is the real cost that makes this a trade-off rather than a
        free win.
        """
        base, extra = divmod(step.rlp, chunks)
        sizes = [base + (1 if i < extra else 0) for i in range(chunks)]
        sizes = [s for s in sizes if s > 0]

        def sub_step(offset: int, size: int) -> DecodeStep:
            if step.context_lens is not None:
                # Per-request accounting: carry each chunk's slice of the
                # real context lengths so exact attention pricing survives
                # the split (attention cost is linear in context, so the
                # chunk sum equals the whole-batch cost).
                chunk_lens = step.context_lens[offset:offset + size]
                mean = max(1, round(sum(chunk_lens) / size))
                return build_decode_step(
                    step.model, size, step.tlp, mean,
                    context_lens=chunk_lens, moe=step.moe,
                )
            return build_decode_step(
                step.model, size, step.tlp, step.mean_context_len,
                moe=step.moe,
            )

        fc_done = 0.0
        attn_done = 0.0
        fc_seconds = 0.0
        attn_seconds = 0.0
        comm_seconds = 0.0
        fc_energy = 0.0
        attn_energy = 0.0
        comm_energy = 0.0
        fc_target = self.plan_fc_target(step.rlp, step.tlp)
        fc_device = self.fc_unit_for(fc_target)
        attn_device = self.attention_unit()
        offset = 0
        for size in sizes:
            sub = sub_step(offset, size)
            offset += size
            chunk_fc = 0.0
            chunk_attn = 0.0
            for invocation in sub.invocations:
                layers = invocation.num_layers
                if invocation.kind.is_fc:
                    result = fc_device.execute(invocation.per_layer)
                    chunk_fc += result.seconds * layers
                    fc_energy += result.energy_joules * layers
                else:
                    result = attn_device.execute(invocation.per_layer)
                    chunk_attn += result.seconds * layers
                    attn_energy += result.energy_joules * layers
            chunk_comm, chunk_comm_energy = self._communication(
                sub.model, sub.rlp * sub.tlp
            )
            fc_seconds += chunk_fc
            attn_seconds += chunk_attn
            comm_seconds += chunk_comm
            comm_energy += chunk_comm_energy
            fc_done += chunk_fc
            attn_done = max(attn_done, fc_done) + chunk_attn + chunk_comm

        other_seconds = self.host_overhead_s
        total_seconds = attn_done + other_seconds
        background_energy = self.background_power_watts() * total_seconds
        total_energy = fc_energy + attn_energy + comm_energy + background_energy
        overlap_saved = (
            fc_seconds + attn_seconds + comm_seconds + other_seconds
        ) - total_seconds
        return IterationResult(
            seconds=total_seconds,
            energy_joules=total_energy,
            time_breakdown={
                "fc": fc_seconds,
                "attention": attn_seconds,
                "communication": comm_seconds,
                "other": other_seconds,
                "overlap": -max(0.0, overlap_saved),
            },
            energy_breakdown={
                "fc": fc_energy,
                "attention": attn_energy,
                "communication": comm_energy,
                "other": background_energy,
            },
            fc_target=fc_target,
            rlp=step.rlp,
            tlp=step.tlp,
        )

    def execute_prefill(
        self, model: ModelConfig, batch_size: int, input_len: int
    ) -> KernelResult:
        """Price the prefill phase (compute-bound; runs on the FC unit).

        Background power over the prefill duration is folded into the
        returned energy so prefill and decode are accounted consistently.
        """
        cost = prefill_cost(model, batch_size, input_len)
        device = self.fc_unit_for(self.prefill_target())
        result = device.execute(cost)
        background = self.background_power_watts() * result.seconds
        breakdown = dict(result.energy_breakdown)
        breakdown["static"] = breakdown.get("static", 0.0) + background
        return KernelResult(
            device=result.device,
            seconds=result.seconds,
            energy_joules=result.energy_joules + background,
            bound=result.bound,
            energy_breakdown=breakdown,
        )

    def prefill_target(self) -> PlacementTarget:
        """Prefill is compute-bound: PUs when the system has them."""
        return self.plan_fc_target(rlp=10 ** 6, tlp=1)
