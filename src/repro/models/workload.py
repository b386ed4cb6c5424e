"""Per-iteration decoding workload construction.

A *decode step* is one decoding iteration of the whole model: for each of
the ``num_layers`` decoder blocks, the four kernels of Figure 1(a). Because
every layer is architecturally identical, we compute one layer's kernel
costs and scale by the layer count; the serving engine then asks a system
to execute the step and price each kernel on its assigned device.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.models.config import ModelConfig
from repro.models.kernels import (
    KernelCost,
    KernelCostArray,
    KernelKind,
    attention_cost,
    attention_cost_array,
    attention_cost_batch,
    feedforward_cost,
    feedforward_cost_array,
    projection_cost,
    projection_cost_array,
    qkv_cost,
    qkv_cost_array,
)
from repro.models.moe import MoEModelConfig, moe_ffn_cost, moe_ffn_cost_array


def step_ffn_cost(
    model: ModelConfig, moe: Optional[MoEModelConfig], rlp: int, tlp: int
) -> KernelCost:
    """FFN cost of one layer: dense, or sparse when ``moe`` is given.

    The single dispatch point for a decode step's FFN flavor — both the
    scalar and the array pricing routes go through here (or its array
    twin), so dense and MoE steps share every other kernel unchanged.
    """
    if moe is None:
        return feedforward_cost(model, rlp, tlp)
    return moe_ffn_cost(moe, rlp, tlp)


def step_ffn_cost_array(
    model: ModelConfig,
    moe: Optional[MoEModelConfig],
    rlp: "Sequence[int]",
    tlp: "Sequence[int]",
) -> KernelCostArray:
    """Array twin of :func:`step_ffn_cost` (one lane per grid point)."""
    if moe is None:
        return feedforward_cost_array(model, rlp, tlp)
    return moe_ffn_cost_array(moe, rlp, tlp)


def _validate_moe(model: ModelConfig, moe: Optional[MoEModelConfig]) -> None:
    if moe is not None and moe.base is not model and moe.base != model:
        raise ConfigurationError(
            f"MoE config wraps base model {moe.base.name!r}, "
            f"but the step prices model {model.name!r}"
        )


def workload_name(model: ModelConfig, moe: Optional[MoEModelConfig]) -> str:
    """Model name as priced: the MoE variant's name when sparse.

    The single source of the string that keys step and admission-price
    caches across layers (decode steps, grids, pricers, replicas) — one
    definition, so the keys can never desynchronize.
    """
    return moe.name if moe is not None else model.name


@dataclass(frozen=True)
class KernelInvocation:
    """One kernel of one decode step, aggregated over all layers.

    Attributes:
        kind: Which kernel.
        per_layer: Cost of the kernel in a single layer.
        num_layers: How many layers the step spans.
    """

    kind: KernelKind
    per_layer: KernelCost
    num_layers: int

    @property
    def total(self) -> KernelCost:
        """Cost aggregated over all layers."""
        return self.per_layer.scaled(self.num_layers)


@dataclass(frozen=True)
class DecodeStep:
    """All kernel work of one decoding iteration.

    Attributes:
        model: The model being decoded.
        rlp: Active request-level parallelism this iteration.
        tlp: Token-level parallelism (speculation length) this iteration.
        mean_context_len: Average per-request KV-cache length, used to size
            the attention kernel. The serving engine passes the true mean
            over active requests.
        invocations: The four kernels, in execution order.
        context_lens: Per-request KV-cache lengths when the step was built
            with per-request context accounting; ``None`` for mean-context
            pricing.
        moe: Sparse-expert configuration when the step's FFN is a routed
            MoE bank; ``None`` for a dense FFN. Carried so sub-batch
            pipelining can rebuild chunk steps with the same FFN flavor.
    """

    model: ModelConfig
    rlp: int
    tlp: int
    mean_context_len: int
    invocations: Sequence[KernelInvocation]
    context_lens: Optional[Tuple[int, ...]] = None
    moe: Optional[MoEModelConfig] = None

    @property
    def workload_name(self) -> str:
        """Model name as priced (see :func:`workload_name`)."""
        return workload_name(self.model, self.moe)

    @property
    def fc_invocations(self) -> List[KernelInvocation]:
        """The fully-connected kernels of the step."""
        return [inv for inv in self.invocations if inv.kind.is_fc]

    @property
    def attention_invocation(self) -> KernelInvocation:
        """The multi-head attention kernel of the step."""
        for inv in self.invocations:
            if inv.kind is KernelKind.ATTENTION:
                return inv
        raise ConfigurationError("decode step has no attention invocation")

    @property
    def total_flops(self) -> float:
        """All FLOPs in the step."""
        return sum(inv.total.flops for inv in self.invocations)

    @property
    def total_bytes(self) -> float:
        """All memory traffic in the step."""
        return sum(inv.total.total_bytes for inv in self.invocations)


def build_decode_step(
    model: ModelConfig,
    rlp: int,
    tlp: int,
    mean_context_len: int,
    context_lens: Optional[Sequence[int]] = None,
    moe: Optional[MoEModelConfig] = None,
) -> DecodeStep:
    """Construct the kernel bundle for one decoding iteration.

    Args:
        model: Model architecture.
        rlp: Batch size of the iteration (active requests).
        tlp: Speculation length of the iteration.
        mean_context_len: Average KV-cache length across active requests.
        context_lens: Optional per-request KV-cache lengths (one per active
            request). When given, the attention kernel is priced as the
            exact sum of per-request costs instead of the rounded-mean
            approximation; ``mean_context_len`` is retained for reporting.
        moe: Optional sparse-expert configuration (must wrap ``model`` as
            its base). When given, the FFN invocation prices the routed
            expert bank (:func:`~repro.models.moe.moe_ffn_cost`); QKV,
            attention, and projection reuse the dense backbone unchanged.

    Returns:
        A :class:`DecodeStep` with QKV, attention, projection, and FFN
        invocations, each aggregated over ``model.num_layers`` layers.
    """
    if mean_context_len <= 0:
        raise ConfigurationError(
            f"mean_context_len must be positive, got {mean_context_len}"
        )
    if context_lens is not None and len(context_lens) != rlp:
        raise ConfigurationError(
            f"context_lens must have one entry per request: "
            f"got {len(context_lens)} for rlp={rlp}"
        )
    _validate_moe(model, moe)
    layers = model.num_layers
    if context_lens is None:
        attention = attention_cost(model, rlp, tlp, mean_context_len)
    else:
        attention = attention_cost_batch(model, tlp, context_lens)
    qkv, projection, ffn = build_fc_invocations(model, rlp, tlp, moe)
    return DecodeStep(
        model=model,
        rlp=rlp,
        tlp=tlp,
        mean_context_len=mean_context_len,
        invocations=(
            qkv,
            KernelInvocation(KernelKind.ATTENTION, attention, layers),
            projection,
            ffn,
        ),
        context_lens=None if context_lens is None else tuple(context_lens),
        moe=moe,
    )


def build_fc_invocations(
    model: ModelConfig,
    rlp: int,
    tlp: int,
    moe: Optional[MoEModelConfig] = None,
) -> Tuple[KernelInvocation, KernelInvocation, KernelInvocation]:
    """The context-free kernels of one decode step, in execution order.

    QKV, projection and FFN (sparse when ``moe`` is given), each over all
    layers: every kernel of :func:`build_decode_step` but attention. Their
    cost reads only ``(model, rlp, tlp)``, never the KV context.
    """
    layers = model.num_layers
    return (
        KernelInvocation(KernelKind.QKV, qkv_cost(model, rlp, tlp), layers),
        KernelInvocation(
            KernelKind.PROJECTION, projection_cost(model, rlp, tlp), layers
        ),
        KernelInvocation(
            KernelKind.FFN, step_ffn_cost(model, moe, rlp, tlp), layers
        ),
    )


@dataclass(frozen=True)
class StepGrid:
    """A batch of decoding-iteration specifications, one per grid point.

    The batch-first analogue of :class:`DecodeStep`: point ``i`` describes
    the decoding iteration ``build_decode_step(model, rlp[i], tlp[i],
    context_len[i])`` (mean-context accounting). Systems price a whole
    grid at once via
    :meth:`~repro.systems.base.ServingSystem.price_steps`, which is how
    design-space sweeps evaluate thousands of operating points without
    constructing thousands of :class:`DecodeStep` objects.

    Attributes:
        model: The model being decoded (one model per grid).
        rlp: Request-level parallelism per point (int64, 1-D).
        tlp: Token-level parallelism per point (int64, same length).
        context_len: Mean per-request KV-cache length per point (int64,
            same length).
        moe: Sparse-expert configuration applied to every point's FFN
            (``None`` for a dense grid). One MoE config per grid, like
            the model itself.
    """

    model: ModelConfig
    rlp: np.ndarray
    tlp: np.ndarray
    context_len: np.ndarray
    moe: Optional[MoEModelConfig] = None

    def __post_init__(self) -> None:
        shapes = {self.rlp.shape, self.tlp.shape, self.context_len.shape}
        if len(shapes) != 1 or len(self.rlp.shape) != 1:
            raise ConfigurationError(
                "StepGrid axes must be 1-D arrays of equal length"
            )
        if self.rlp.size == 0:
            raise ConfigurationError("StepGrid must contain at least one point")
        _validate_moe(self.model, self.moe)
        for name, axis in (
            ("rlp", self.rlp),
            ("tlp", self.tlp),
            ("context_len", self.context_len),
        ):
            if int(axis.min()) <= 0:
                raise ConfigurationError(
                    f"StepGrid {name} values must be positive, "
                    f"got {int(axis.min())}"
                )

    def __len__(self) -> int:
        return int(self.rlp.shape[0])

    @property
    def workload_name(self) -> str:
        """Model name as priced (see :func:`workload_name`)."""
        return workload_name(self.model, self.moe)

    def step_at(self, index: int) -> DecodeStep:
        """Materialize one grid point as a scalar :class:`DecodeStep`."""
        return build_decode_step(
            self.model,
            int(self.rlp[index]),
            int(self.tlp[index]),
            int(self.context_len[index]),
            moe=self.moe,
        )

    def kernel_arrays(self) -> Tuple[KernelCostArray, ...]:
        """Per-layer cost arrays of the four kernels, in execution order
        (QKV, attention, projection, FFN) — the array analogue of
        :attr:`DecodeStep.invocations`."""
        return (
            qkv_cost_array(self.model, self.rlp, self.tlp),
            attention_cost_array(self.model, self.rlp, self.tlp, self.context_len),
            projection_cost_array(self.model, self.rlp, self.tlp),
            step_ffn_cost_array(self.model, self.moe, self.rlp, self.tlp),
        )


def build_step_grid(
    model: ModelConfig,
    rlp: Sequence[int],
    tlp: Sequence[int],
    context_len: Sequence[int],
    moe: Optional[MoEModelConfig] = None,
) -> StepGrid:
    """Build a :class:`StepGrid` from parallel (broadcastable) point axes.

    Scalars broadcast against arrays, so
    ``build_step_grid(model, [1, 2, 4], 2, 512)`` prices three batch sizes
    at a fixed speculation length and context. Pass ``moe`` to price the
    grid's FFN as a routed expert bank instead of the dense backbone.
    """
    rlp_arr, tlp_arr, ctx_arr = np.broadcast_arrays(
        np.asarray(rlp, dtype=np.int64),
        np.asarray(tlp, dtype=np.int64),
        np.asarray(context_len, dtype=np.int64),
    )
    if rlp_arr.ndim == 0:
        rlp_arr = rlp_arr.reshape(1)
        tlp_arr = tlp_arr.reshape(1)
        ctx_arr = ctx_arr.reshape(1)
    return StepGrid(
        model=model,
        rlp=np.ascontiguousarray(rlp_arr),
        tlp=np.ascontiguousarray(tlp_arr),
        context_len=np.ascontiguousarray(ctx_arr),
        moe=moe,
    )


def cartesian_step_grid(
    model: ModelConfig,
    rlp_values: Sequence[int],
    tlp_values: Sequence[int],
    context_values: Sequence[int],
    moe: Optional[MoEModelConfig] = None,
) -> StepGrid:
    """Build the full cartesian grid over RLP x TLP x context axes.

    Point order is C-order (last axis fastest): ``itertools.product``
    over ``(rlp_values, tlp_values, context_values)``.
    """
    points = list(
        itertools.product(rlp_values, tlp_values, context_values)
    )
    if not points:
        raise ConfigurationError("cartesian grid axes must be non-empty")
    rlp_arr, tlp_arr, ctx_arr = (
        np.array(axis, dtype=np.int64) for axis in zip(*points)
    )
    return StepGrid(
        model=model, rlp=rlp_arr, tlp=tlp_arr, context_len=ctx_arr, moe=moe
    )


def prefill_cost(model: ModelConfig, rlp: int, input_len: int) -> KernelCost:
    """Aggregate cost of the prefill phase for a batch of requests.

    Prefill processes all ``input_len`` tokens of each request at once, so
    it is strongly compute-bound; the paper always runs it on the GPU. We
    model it as one aggregate kernel (weights read once, FLOPs for all
    tokens and layers, attention quadratic term included).
    """
    if input_len <= 0:
        raise ConfigurationError(f"input_len must be positive, got {input_len}")
    if rlp <= 0:
        raise ConfigurationError(f"rlp must be positive, got {rlp}")
    tokens = rlp * input_len
    fc_params = model.num_layers * model.layer_fc_params
    fc_flops = 2.0 * tokens * fc_params
    # Causal attention: ~ sum_{i<=L} i = L^2/2 positions per request per layer.
    attn_flops = 4.0 * model.num_layers * rlp * (input_len * input_len / 2.0) * model.hidden_dim
    weight_bytes = float(fc_params * model.dtype_bytes)
    activation_bytes = float(tokens * model.hidden_dim * model.dtype_bytes * 2 * model.num_layers)
    return KernelCost(
        kind=KernelKind.QKV,
        flops=fc_flops + attn_flops,
        weight_bytes=weight_bytes,
        activation_bytes=activation_bytes,
        tokens=tokens,
    )
