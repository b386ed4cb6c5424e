"""Vectorized iteration pricing: whole step grids in numpy passes.

This is the batch-first twin of the scalar pricing path in
:mod:`repro.systems.base`. Where ``execute_step`` prices one
:class:`~repro.models.workload.DecodeStep` by walking four kernel
invocations through device ``execute`` calls,
:func:`price_steps` prices every point of a
:class:`~repro.models.workload.StepGrid` with a handful of array
operations: the four kernels become four
:class:`~repro.models.kernels.KernelCostArray` evaluations per FC
placement, and the iteration assembly (layer scaling, link transfer,
host overhead, background energy) runs elementwise over the grid.

Bit-equality contract
---------------------

Every lane of the returned :class:`IterationResultArray` is bit-equal to
what ``execute_step`` would return for the same point — including the
sub-batch pipelined path (``pipeline_chunks > 1``), which is replayed
here as a chunk-indexed recurrence over arrays. The equivalence holds
because each stage mirrors the scalar arithmetic expression-for-expression
(see :mod:`repro.devices.roofline`); ``tests/test_price_steps.py``
asserts it across systems, devices, link technologies, and pipeline
depths.

FC placement is resolved through the system's own ``plan_fc_target`` per
point (a cheap pure-Python pass), then points are partitioned by
(placement, pipelined?) and each partition is priced in one vectorized
sweep on its device. This keeps scheduler semantics — including PAPI's
standing-decision fast path — identical to the scalar route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core.placement import PlacementTarget
from repro.devices.base import BoundKind, KernelResultArray
from repro.errors import ConfigurationError
from repro.models.config import ModelConfig
from repro.models.kernels import (
    KernelCostArray,
    attention_cost_array,
    projection_cost_array,
    qkv_cost_array,
)
from repro.models.workload import StepGrid, step_ffn_cost_array

if TYPE_CHECKING:  # pragma: no cover
    from repro.systems.base import IterationResult, ServingSystem


@dataclass(frozen=True)
class IterationResultArray:
    """Time/energy accounting for a grid of decoding iterations.

    The array analogue of :class:`~repro.systems.base.IterationResult`:
    every field holds one value per grid point. Lane ``i`` prices the
    iteration the grid's ``i``-th point describes, bit-equal to the
    scalar ``execute_step`` result for that point.

    Attributes:
        seconds: Wall-clock iteration time per point.
        energy_joules: Total energy per point.
        time_breakdown: Seconds by component (``fc``, ``attention``,
            ``communication``, ``other``, and — on systems with
            ``pipeline_chunks > 1`` — ``overlap``), each an array.
        energy_breakdown: Joules by component, each an array.
        fc_targets: Where the FC kernels ran, per point.
        rlp: Active requests per point.
        tlp: Speculation length per point.
        pipelined: True where the point went through the sub-batch
            pipelined path (its scalar twin carries an ``overlap``
            breakdown entry; serial points do not).
    """

    seconds: np.ndarray
    energy_joules: np.ndarray
    time_breakdown: Dict[str, np.ndarray]
    energy_breakdown: Dict[str, np.ndarray]
    fc_targets: Tuple[PlacementTarget, ...]
    rlp: np.ndarray
    tlp: np.ndarray
    pipelined: np.ndarray

    def __len__(self) -> int:
        return int(self.seconds.shape[0])

    def at(self, index: int) -> "IterationResult":
        """Extract one lane as a scalar :class:`IterationResult`."""
        from repro.systems.base import IterationResult

        keep_overlap = bool(self.pipelined[index])
        time_breakdown = {
            key: float(values[index])
            for key, values in self.time_breakdown.items()
            if key != "overlap" or keep_overlap
        }
        return IterationResult(
            seconds=float(self.seconds[index]),
            energy_joules=float(self.energy_joules[index]),
            time_breakdown=time_breakdown,
            energy_breakdown={
                key: float(values[index])
                for key, values in self.energy_breakdown.items()
            },
            fc_target=self.fc_targets[index],
            rlp=int(self.rlp[index]),
            tlp=int(self.tlp[index]),
        )

    def tokens_per_second(self) -> np.ndarray:
        """Decoded tokens per second of iteration time, per point."""
        return (self.rlp * self.tlp) / self.seconds


@dataclass(frozen=True)
class _GroupPrice:
    """Priced arrays for one (placement, pipelined?) partition."""

    seconds: np.ndarray
    energy: np.ndarray
    fc_seconds: np.ndarray
    attn_seconds: np.ndarray
    comm_seconds: np.ndarray
    fc_energy: np.ndarray
    attn_energy: np.ndarray
    comm_energy: np.ndarray
    background_energy: np.ndarray
    overlap: Optional[np.ndarray] = None


def _execute_batch(device, costs: KernelCostArray) -> KernelResultArray:
    """Batch-execute ``costs`` on any :class:`ComputeDevice`.

    Devices implementing the :class:`~repro.devices.base
    .BatchComputeDevice` protocol take the native vectorized path;
    anything else (e.g. a custom device in a mixed-fleet cluster) falls
    back to per-lane scalar ``execute`` — slower, trivially bit-equal.
    """
    execute_batch = getattr(device, "execute_batch", None)
    if execute_batch is not None:
        return execute_batch(costs)
    results = [device.execute(costs.at(i)) for i in range(len(costs))]
    keys: List[str] = []
    for result in results:
        for key in result.energy_breakdown:
            if key not in keys:
                keys.append(key)
    return KernelResultArray(
        device=device.name,
        seconds=np.array([r.seconds for r in results]),
        energy_joules=np.array([r.energy_joules for r in results]),
        compute_bound=np.array(
            [r.bound is BoundKind.COMPUTE for r in results]
        ),
        energy_breakdown={
            key: np.array([r.energy_breakdown.get(key, 0.0) for r in results])
            for key in keys
        },
    )


def _communication_arrays(
    system: "ServingSystem", model: ModelConfig, rlp: np.ndarray, tlp: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``ServingSystem._communication`` over point axes.

    Byte accounting is shared with the scalar path
    (:func:`~repro.systems.base.attention_io_bytes` is polymorphic over
    ints and arrays), so the two routes cannot drift apart.
    """
    from repro.systems.base import attention_io_bytes

    link = system.attention_link()
    total_bytes = attention_io_bytes(model, rlp * tlp)
    seconds = link.transfer_time_batch(
        total_bytes, messages=2 * model.num_layers
    )
    energy = link.transfer_energy_batch(total_bytes)
    return seconds, energy


def _price_serial(
    system: "ServingSystem", grid: StepGrid, fc_device, attn_device
) -> _GroupPrice:
    """Vectorized twin of ``ServingSystem._execute_step_serial``."""
    model = grid.model
    layers = model.num_layers
    qkv, attn, proj, ffn = grid.kernel_arrays()

    qkv_r = _execute_batch(fc_device, qkv)
    proj_r = _execute_batch(fc_device, proj)
    ffn_r = _execute_batch(fc_device, ffn)
    attn_r = _execute_batch(attn_device, attn)

    # Accumulation order mirrors the scalar invocation loop (QKV,
    # attention, projection, FFN) so float rounding matches bit-for-bit.
    fc_seconds = (
        qkv_r.seconds * layers + proj_r.seconds * layers + ffn_r.seconds * layers
    )
    fc_energy = (
        qkv_r.energy_joules * layers
        + proj_r.energy_joules * layers
        + ffn_r.energy_joules * layers
    )
    attn_seconds = attn_r.seconds * layers
    attn_energy = attn_r.energy_joules * layers

    comm_seconds, comm_energy = _communication_arrays(
        system, model, grid.rlp, grid.tlp
    )
    other_seconds = system.host_overhead_s
    total_seconds = fc_seconds + attn_seconds + comm_seconds + other_seconds
    background_energy = system.background_power_watts() * total_seconds
    total_energy = fc_energy + attn_energy + comm_energy + background_energy
    return _GroupPrice(
        seconds=total_seconds,
        energy=total_energy,
        fc_seconds=fc_seconds,
        attn_seconds=attn_seconds,
        comm_seconds=comm_seconds,
        fc_energy=fc_energy,
        attn_energy=attn_energy,
        comm_energy=comm_energy,
        background_energy=background_energy,
    )


def _price_pipelined(
    system: "ServingSystem", grid: StepGrid, fc_device, attn_device
) -> _GroupPrice:
    """Vectorized twin of ``ServingSystem._execute_step_pipelined``.

    Every point in ``grid`` satisfies ``rlp >= pipeline_chunks``, so all
    ``chunks`` sub-batches are non-empty and the scalar chunk loop maps
    onto a chunk-indexed recurrence over arrays.
    """
    chunks = system.pipeline_chunks
    model = grid.model
    layers = model.num_layers
    n = len(grid)

    base = grid.rlp // chunks
    extra = grid.rlp % chunks

    fc_done = np.zeros(n)
    attn_done = np.zeros(n)
    fc_seconds = np.zeros(n)
    attn_seconds = np.zeros(n)
    comm_seconds = np.zeros(n)
    fc_energy = np.zeros(n)
    attn_energy = np.zeros(n)
    comm_energy = np.zeros(n)

    for j in range(chunks):
        size = base + (j < extra)
        sub_qkv = qkv_cost_array(model, size, grid.tlp)
        sub_attn = attention_cost_array(model, size, grid.tlp, grid.context_len)
        sub_proj = projection_cost_array(model, size, grid.tlp)
        sub_ffn = step_ffn_cost_array(model, grid.moe, size, grid.tlp)

        qkv_r = _execute_batch(fc_device, sub_qkv)
        attn_r = _execute_batch(attn_device, sub_attn)
        proj_r = _execute_batch(fc_device, sub_proj)
        ffn_r = _execute_batch(fc_device, sub_ffn)

        chunk_fc = (
            qkv_r.seconds * layers
            + proj_r.seconds * layers
            + ffn_r.seconds * layers
        )
        chunk_attn = attn_r.seconds * layers
        fc_energy = (
            fc_energy
            + qkv_r.energy_joules * layers
            + proj_r.energy_joules * layers
            + ffn_r.energy_joules * layers
        )
        attn_energy = attn_energy + attn_r.energy_joules * layers

        chunk_comm, chunk_comm_energy = _communication_arrays(
            system, model, size, grid.tlp
        )
        fc_seconds = fc_seconds + chunk_fc
        attn_seconds = attn_seconds + chunk_attn
        comm_seconds = comm_seconds + chunk_comm
        comm_energy = comm_energy + chunk_comm_energy
        fc_done = fc_done + chunk_fc
        attn_done = np.maximum(attn_done, fc_done) + chunk_attn + chunk_comm

    other_seconds = system.host_overhead_s
    total_seconds = attn_done + other_seconds
    background_energy = system.background_power_watts() * total_seconds
    total_energy = fc_energy + attn_energy + comm_energy + background_energy
    overlap_saved = (
        fc_seconds + attn_seconds + comm_seconds + other_seconds
    ) - total_seconds
    overlap = -np.maximum(0.0, overlap_saved)
    return _GroupPrice(
        seconds=total_seconds,
        energy=total_energy,
        fc_seconds=fc_seconds,
        attn_seconds=attn_seconds,
        comm_seconds=comm_seconds,
        fc_energy=fc_energy,
        attn_energy=attn_energy,
        comm_energy=comm_energy,
        background_energy=background_energy,
        overlap=overlap,
    )


def price_steps(system: "ServingSystem", grid: StepGrid) -> IterationResultArray:
    """Price every point of ``grid`` on ``system`` in vectorized passes.

    The engine behind
    :meth:`~repro.systems.base.ServingSystem.price_steps`; see the module
    docstring for the equivalence contract.
    """
    if not isinstance(grid, StepGrid):
        raise ConfigurationError(
            f"price_steps expects a StepGrid, got {type(grid).__name__}"
        )
    rlp_list = grid.rlp.tolist()
    tlp_list = grid.tlp.tolist()
    targets = tuple(
        system.plan_fc_target(r, t) for r, t in zip(rlp_list, tlp_list)
    )
    return price_steps_at(system, grid, targets)


def price_steps_at(
    system: "ServingSystem",
    grid: StepGrid,
    targets: Tuple[PlacementTarget, ...],
) -> IterationResultArray:
    """Price ``grid`` with the FC placement of each point pinned.

    Identical to :func:`price_steps` except the per-point FC targets are
    supplied by the caller instead of re-planned through
    ``system.plan_fc_target``. This is what lets the vectorized core's
    fleet probes price many *replicas'* projected steps in one pass on a
    single configuration-equal system: each replica resolves its own
    placement against its own scheduler state, and the pinned
    grid prices every (placement, rlp, tlp, context) point bit-equal to
    that replica pricing it alone.
    """
    if not isinstance(grid, StepGrid):
        raise ConfigurationError(
            f"price_steps_at expects a StepGrid, got {type(grid).__name__}"
        )
    n = len(grid)
    if len(targets) != n:
        raise ConfigurationError(
            f"price_steps_at needs one FC target per grid point: "
            f"{len(targets)} targets for {n} points"
        )
    chunks = system.pipeline_chunks
    pipelined = (
        (grid.rlp >= chunks) if chunks > 1 else np.zeros(n, dtype=bool)
    )

    groups: Dict[Tuple[PlacementTarget, bool], List[int]] = {}
    for index, target in enumerate(targets):
        groups.setdefault((target, bool(pipelined[index])), []).append(index)

    seconds = np.empty(n)
    energy = np.empty(n)
    time_breakdown = {
        "fc": np.empty(n),
        "attention": np.empty(n),
        "communication": np.empty(n),
        "other": np.full(n, system.host_overhead_s),
    }
    if chunks > 1:
        time_breakdown["overlap"] = np.zeros(n)
    energy_breakdown = {
        "fc": np.empty(n),
        "attention": np.empty(n),
        "communication": np.empty(n),
        "other": np.empty(n),
    }

    attn_device = system.attention_unit()
    for (target, piped), index_list in groups.items():
        idx = np.array(index_list, dtype=np.intp)
        sub = StepGrid(
            model=grid.model,
            rlp=grid.rlp[idx],
            tlp=grid.tlp[idx],
            context_len=grid.context_len[idx],
            moe=grid.moe,
        )
        fc_device = system.fc_unit_for(target)
        pricer = _price_pipelined if piped else _price_serial
        priced = pricer(system, sub, fc_device, attn_device)

        seconds[idx] = priced.seconds
        energy[idx] = priced.energy
        time_breakdown["fc"][idx] = priced.fc_seconds
        time_breakdown["attention"][idx] = priced.attn_seconds
        time_breakdown["communication"][idx] = priced.comm_seconds
        if priced.overlap is not None:
            time_breakdown["overlap"][idx] = priced.overlap
        energy_breakdown["fc"][idx] = priced.fc_energy
        energy_breakdown["attention"][idx] = priced.attn_energy
        energy_breakdown["communication"][idx] = priced.comm_energy
        energy_breakdown["other"][idx] = priced.background_energy

    return IterationResultArray(
        seconds=seconds,
        energy_joules=energy,
        time_breakdown=time_breakdown,
        energy_breakdown=energy_breakdown,
        fc_targets=targets,
        rlp=grid.rlp,
        tlp=grid.tlp,
        pipelined=pipelined,
    )
