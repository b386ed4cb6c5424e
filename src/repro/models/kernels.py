"""FLOP and byte cost models for LLM decoding kernels.

The paper (Section 2.1) decomposes each decoder layer into four kernels:
QKV generation, multi-head attention, projection, and feed-forward network.
QKV/projection/FFN are all *fully-connected* (FC) kernels — weight-stationary
GEMMs whose weight traffic is amortized across the ``RLP * TLP`` tokens of a
decoding iteration. Multi-head attention streams the per-request KV cache
with no cross-request reuse, which is why its arithmetic intensity is flat in
batch size (Figure 2a).

Cost conventions (matching the paper's Equation 1):

* 1 multiply-accumulate = 2 FLOPs.
* Bytes count weight reads, input activation reads, and output activation
  writes, all at ``dtype_bytes`` per element.
* ``tokens = RLP * TLP`` is the number of token positions processed by the
  FC kernels in one decoding iteration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.models.config import ModelConfig


class KernelKind(enum.Enum):
    """The four decoding kernels, plus an aggregate FC marker."""

    QKV = "qkv"
    ATTENTION = "attention"
    PROJECTION = "projection"
    FFN = "ffn"

    @property
    def is_fc(self) -> bool:
        """True for the weight-stationary fully-connected kernels."""
        return self is not KernelKind.ATTENTION


@dataclass(frozen=True)
class KernelCost:
    """FLOP / byte requirements of one kernel invocation.

    Attributes:
        kind: Which kernel this is.
        flops: Total floating-point operations.
        weight_bytes: Bytes of weights (or KV cache, for attention) read.
        activation_bytes: Bytes of activations moved in and out.
        tokens: Token positions processed (RLP * TLP).
    """

    kind: KernelKind
    flops: float
    weight_bytes: float
    activation_bytes: float
    tokens: int

    @property
    def total_bytes(self) -> float:
        """All memory traffic of the kernel."""
        return self.weight_bytes + self.activation_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of memory traffic."""
        if self.total_bytes == 0:
            return float("inf")
        return self.flops / self.total_bytes

    @property
    def reuse_level(self) -> float:
        """How many times each weight byte is used for computation.

        For an FC kernel processing ``tokens`` token positions each weight
        element participates in ``tokens`` MACs, so the DRAM row holding it
        can be activated once and reused ``tokens`` times. This is the
        "data reuse level" of the paper's Figure 7(c), the quantity that
        lets FC-PIM amortize DRAM-access energy.
        """
        return float(max(1, self.tokens)) if self.kind.is_fc else 1.0

    def scaled(self, factor: float) -> "KernelCost":
        """Return a cost scaled by ``factor`` (used for per-device sharding)."""
        return KernelCost(
            kind=self.kind,
            flops=self.flops * factor,
            weight_bytes=self.weight_bytes * factor,
            activation_bytes=self.activation_bytes * factor,
            tokens=self.tokens,
        )

    def merged_with(self, other: "KernelCost") -> "KernelCost":
        """Combine two costs of the same kind (e.g. summing layers)."""
        if other.kind is not self.kind:
            raise ConfigurationError(
                f"cannot merge kernel costs of kinds {self.kind} and {other.kind}"
            )
        return KernelCost(
            kind=self.kind,
            flops=self.flops + other.flops,
            weight_bytes=self.weight_bytes + other.weight_bytes,
            activation_bytes=self.activation_bytes + other.activation_bytes,
            tokens=self.tokens,
        )


def _validate(rlp: int, tlp: int) -> int:
    if rlp <= 0:
        raise ConfigurationError(f"RLP (batch size) must be positive, got {rlp}")
    if tlp <= 0:
        raise ConfigurationError(f"TLP (speculation length) must be positive, got {tlp}")
    return rlp * tlp


def _gemv_cost(
    kind: KernelKind,
    model: ModelConfig,
    weight_params: int,
    in_dim: int,
    out_dim: int,
    tokens: int,
) -> KernelCost:
    """Cost of a weight-stationary GEMM: (tokens, in_dim) x (in_dim, out_dim)."""
    flops = 2.0 * tokens * weight_params
    weight_bytes = float(weight_params * model.dtype_bytes)
    activation_bytes = float(tokens * (in_dim + out_dim) * model.dtype_bytes)
    return KernelCost(
        kind=kind,
        flops=flops,
        weight_bytes=weight_bytes,
        activation_bytes=activation_bytes,
        tokens=tokens,
    )


def qkv_cost(model: ModelConfig, rlp: int, tlp: int) -> KernelCost:
    """QKV generation of one layer: (tokens, h) x (h, 3h)."""
    tokens = _validate(rlp, tlp)
    return _gemv_cost(
        KernelKind.QKV,
        model,
        model.qkv_weight_params,
        model.hidden_dim,
        3 * model.hidden_dim,
        tokens,
    )


def projection_cost(model: ModelConfig, rlp: int, tlp: int) -> KernelCost:
    """Attention output projection of one layer: (tokens, h) x (h, h)."""
    tokens = _validate(rlp, tlp)
    return _gemv_cost(
        KernelKind.PROJECTION,
        model,
        model.projection_weight_params,
        model.hidden_dim,
        model.hidden_dim,
        tokens,
    )


def feedforward_cost(model: ModelConfig, rlp: int, tlp: int) -> KernelCost:
    """Feed-forward network of one layer (all FFN matrices)."""
    tokens = _validate(rlp, tlp)
    return _gemv_cost(
        KernelKind.FFN,
        model,
        model.ffn_weight_params,
        model.hidden_dim,
        model.ffn_dim,
        tokens,
    )


def attention_cost(model: ModelConfig, rlp: int, tlp: int, context_len: int) -> KernelCost:
    """Multi-head attention of one layer over the KV cache.

    For each of ``rlp`` requests, ``tlp`` query tokens attend over a KV
    cache of ``context_len`` tokens: score GEMV ``Q @ K^T`` and context GEMV
    ``scores @ V``, each ``2 * tlp * context_len * h`` FLOPs per request.
    The dominant traffic is the KV cache itself — read once per request per
    iteration, with *no* reuse across the batch, which is why attention AI
    equals roughly ``tlp`` regardless of batch size.

    Args:
        model: Model architecture.
        rlp: Request-level parallelism (batch size).
        tlp: Token-level parallelism (speculation length).
        context_len: Tokens currently in the KV cache per request.

    Returns:
        Aggregate attention cost over the whole batch for one layer. The
        ``weight_bytes`` field carries the KV-cache traffic (it plays the
        same streaming role weights play in FC kernels).
    """
    tokens = _validate(rlp, tlp)
    if context_len <= 0:
        raise ConfigurationError(f"context_len must be positive, got {context_len}")
    h = model.hidden_dim
    flops = 4.0 * rlp * tlp * context_len * h
    kv_bytes = float(2 * rlp * context_len * h * model.dtype_bytes)
    # Q in, attention scores (tlp x context per head), output context vectors.
    score_elems = rlp * tlp * context_len * model.num_heads
    activation_bytes = float(
        (2 * tokens * h + 2 * score_elems) * model.dtype_bytes
    )
    return KernelCost(
        kind=KernelKind.ATTENTION,
        flops=flops,
        weight_bytes=kv_bytes,
        activation_bytes=activation_bytes,
        tokens=tokens,
    )


def attention_cost_batch(
    model: ModelConfig, tlp: int, context_lens: "Sequence[int]"
) -> KernelCost:
    """Multi-head attention of one layer with per-request KV lengths.

    Exact sum of :func:`attention_cost` over requests: every term of the
    attention cost is linear in the per-request context length, so the
    batch aggregate depends only on ``sum(context_lens)`` — this prices a
    heterogeneous batch without the mean-context rounding error.

    Args:
        model: Model architecture.
        tlp: Token-level parallelism (speculation length).
        context_lens: KV-cache length of each active request.

    Returns:
        Aggregate attention cost over the whole batch for one layer.
    """
    if not context_lens:
        raise ConfigurationError("context_lens must be non-empty")
    for context_len in context_lens:
        if context_len <= 0:
            raise ConfigurationError(
                f"context_len must be positive, got {context_len}"
            )
    return attention_cost_total(
        model, len(context_lens), tlp, sum(context_lens)
    )


def attention_cost_total(
    model: ModelConfig, rlp: int, tlp: int, total_context: int
) -> KernelCost:
    """Multi-head attention of one layer from the batch's context total.

    The one formula behind :func:`attention_cost_batch`: ``rlp`` requests
    whose KV-cache lengths sum to ``total_context``. Because the cost is
    linear in each request's context, how the total splits across the
    batch cannot change it — which is what lets a serial step price key
    on the total alone.

    Args:
        model: Model architecture.
        rlp: Request-level parallelism (batch size).
        tlp: Token-level parallelism (speculation length).
        total_context: Sum of the active requests' KV-cache lengths.

    Returns:
        Aggregate attention cost over the whole batch for one layer.
    """
    tokens = _validate(rlp, tlp)
    if total_context <= 0:
        raise ConfigurationError(
            f"total_context must be positive, got {total_context}"
        )
    h = model.hidden_dim
    flops = 4.0 * tlp * total_context * h
    kv_bytes = float(2 * total_context * h * model.dtype_bytes)
    score_elems = tlp * total_context * model.num_heads
    activation_bytes = float(
        (2 * tokens * h + 2 * score_elems) * model.dtype_bytes
    )
    return KernelCost(
        kind=KernelKind.ATTENTION,
        flops=flops,
        weight_bytes=kv_bytes,
        activation_bytes=activation_bytes,
        tokens=tokens,
    )


def fc_cost(model: ModelConfig, rlp: int, tlp: int) -> KernelCost:
    """Aggregate FC cost of one layer (QKV + projection + FFN).

    This is the granularity at which the paper's scheduler makes decisions:
    all FC kernels of a layer move together between PUs and FC-PIM.
    """
    q = qkv_cost(model, rlp, tlp)
    p = projection_cost(model, rlp, tlp)
    f = feedforward_cost(model, rlp, tlp)
    tokens = q.tokens
    return KernelCost(
        kind=KernelKind.QKV,  # representative FC kind
        flops=q.flops + p.flops + f.flops,
        weight_bytes=q.weight_bytes + p.weight_bytes + f.weight_bytes,
        activation_bytes=q.activation_bytes + p.activation_bytes + f.activation_bytes,
        tokens=tokens,
    )


# -- batch-first (array-valued) cost layer ---------------------------------
#
# The functions below are the vectorized twins of the scalar constructors
# above: one call prices a whole grid of (RLP, TLP, context) points as
# numpy arrays. Every arithmetic expression deliberately mirrors its
# scalar counterpart operation-for-operation (same literals, same
# association order, integer math kept in int64 until the same conversion
# point), so each lane of a :class:`KernelCostArray` is bit-equal to the
# :class:`KernelCost` the scalar function would produce for that point.
# ``tests/test_kernel_arrays.py`` pins this equivalence.


@dataclass(frozen=True)
class KernelCostArray:
    """FLOP / byte requirements of one kernel over a grid of points.

    The array analogue of :class:`KernelCost`: each field holds one value
    per grid point (1-D, equal lengths). Lane ``i`` prices the kernel at
    the grid's ``i``-th (RLP, TLP, context) combination.

    Attributes:
        kind: Which kernel this is (one kind per array).
        flops: Total floating-point operations per point (float64).
        weight_bytes: Weight (or KV cache) bytes read per point (float64).
        activation_bytes: Activation bytes moved per point (float64).
        tokens: Token positions processed per point (int64).
    """

    kind: KernelKind
    flops: np.ndarray
    weight_bytes: np.ndarray
    activation_bytes: np.ndarray
    tokens: np.ndarray

    def __post_init__(self) -> None:
        sizes = {
            self.flops.shape,
            self.weight_bytes.shape,
            self.activation_bytes.shape,
            self.tokens.shape,
        }
        if len(sizes) != 1 or len(self.flops.shape) != 1:
            raise ConfigurationError(
                "KernelCostArray fields must be 1-D arrays of equal length"
            )

    def __len__(self) -> int:
        return int(self.flops.shape[0])

    @property
    def total_bytes(self) -> np.ndarray:
        """All memory traffic of the kernel, per point."""
        return self.weight_bytes + self.activation_bytes

    @property
    def arithmetic_intensity(self) -> np.ndarray:
        """FLOPs per byte of memory traffic, per point (inf where 0 B)."""
        total = self.total_bytes
        with np.errstate(divide="ignore"):
            return np.where(total == 0, np.inf, self.flops / np.where(total == 0, 1.0, total))

    def scaled(self, factor: float) -> "KernelCostArray":
        """Return a cost array scaled by ``factor`` in every lane."""
        return KernelCostArray(
            kind=self.kind,
            flops=self.flops * factor,
            weight_bytes=self.weight_bytes * factor,
            activation_bytes=self.activation_bytes * factor,
            tokens=self.tokens,
        )

    def at(self, index: int) -> KernelCost:
        """Extract one lane as a scalar :class:`KernelCost`."""
        return KernelCost(
            kind=self.kind,
            flops=float(self.flops[index]),
            weight_bytes=float(self.weight_bytes[index]),
            activation_bytes=float(self.activation_bytes[index]),
            tokens=int(self.tokens[index]),
        )


def _as_int_axes(*axes: "Sequence[int]") -> tuple:
    """Validate and broadcast integer grid axes to equal-length int64."""
    arrays = [np.asarray(axis, dtype=np.int64) for axis in axes]
    broadcast = np.broadcast_arrays(*arrays)
    return tuple(np.ascontiguousarray(a) for a in broadcast)


def _validate_array(rlp: np.ndarray, tlp: np.ndarray) -> np.ndarray:
    if rlp.size and int(rlp.min()) <= 0:
        raise ConfigurationError(
            f"RLP (batch size) must be positive, got {int(rlp.min())}"
        )
    if tlp.size and int(tlp.min()) <= 0:
        raise ConfigurationError(
            f"TLP (speculation length) must be positive, got {int(tlp.min())}"
        )
    return rlp * tlp


def _gemv_cost_array(
    kind: KernelKind,
    model: ModelConfig,
    weight_params: int,
    in_dim: int,
    out_dim: int,
    tokens: np.ndarray,
) -> KernelCostArray:
    """Vectorized :func:`_gemv_cost`: one lane per ``tokens`` entry."""
    flops = 2.0 * tokens * weight_params
    weight_bytes = np.full(
        tokens.shape, float(weight_params * model.dtype_bytes)
    )
    activation_bytes = (
        tokens * (in_dim + out_dim) * model.dtype_bytes
    ).astype(np.float64)
    return KernelCostArray(
        kind=kind,
        flops=flops,
        weight_bytes=weight_bytes,
        activation_bytes=activation_bytes,
        tokens=tokens,
    )


def qkv_cost_array(
    model: ModelConfig, rlp: "Sequence[int]", tlp: "Sequence[int]"
) -> KernelCostArray:
    """Vectorized :func:`qkv_cost` over broadcastable RLP/TLP axes."""
    rlp_arr, tlp_arr = _as_int_axes(rlp, tlp)
    tokens = _validate_array(rlp_arr, tlp_arr)
    return _gemv_cost_array(
        KernelKind.QKV,
        model,
        model.qkv_weight_params,
        model.hidden_dim,
        3 * model.hidden_dim,
        tokens,
    )


def projection_cost_array(
    model: ModelConfig, rlp: "Sequence[int]", tlp: "Sequence[int]"
) -> KernelCostArray:
    """Vectorized :func:`projection_cost` over broadcastable axes."""
    rlp_arr, tlp_arr = _as_int_axes(rlp, tlp)
    tokens = _validate_array(rlp_arr, tlp_arr)
    return _gemv_cost_array(
        KernelKind.PROJECTION,
        model,
        model.projection_weight_params,
        model.hidden_dim,
        model.hidden_dim,
        tokens,
    )


def feedforward_cost_array(
    model: ModelConfig, rlp: "Sequence[int]", tlp: "Sequence[int]"
) -> KernelCostArray:
    """Vectorized :func:`feedforward_cost` over broadcastable axes."""
    rlp_arr, tlp_arr = _as_int_axes(rlp, tlp)
    tokens = _validate_array(rlp_arr, tlp_arr)
    return _gemv_cost_array(
        KernelKind.FFN,
        model,
        model.ffn_weight_params,
        model.hidden_dim,
        model.ffn_dim,
        tokens,
    )


def attention_cost_array(
    model: ModelConfig,
    rlp: "Sequence[int]",
    tlp: "Sequence[int]",
    context_len: "Sequence[int]",
) -> KernelCostArray:
    """Vectorized :func:`attention_cost` over broadcastable axes.

    Prices mean-context attention for every grid point: lane ``i`` equals
    ``attention_cost(model, rlp[i], tlp[i], context_len[i])`` bit-for-bit.
    (Per-request heterogeneous batches stay on the scalar
    :func:`attention_cost_batch` path — a grid point summarizes its batch
    by the mean context, exactly like the sweep drivers do.)
    """
    rlp_arr, tlp_arr, ctx_arr = _as_int_axes(rlp, tlp, context_len)
    tokens = _validate_array(rlp_arr, tlp_arr)
    if ctx_arr.size and int(ctx_arr.min()) <= 0:
        raise ConfigurationError(
            f"context_len must be positive, got {int(ctx_arr.min())}"
        )
    h = model.hidden_dim
    flops = 4.0 * rlp_arr * tlp_arr * ctx_arr * h
    kv_bytes = (2 * rlp_arr * ctx_arr * h * model.dtype_bytes).astype(np.float64)
    score_elems = rlp_arr * tlp_arr * ctx_arr * model.num_heads
    activation_bytes = (
        (2 * tokens * h + 2 * score_elems) * model.dtype_bytes
    ).astype(np.float64)
    return KernelCostArray(
        kind=KernelKind.ATTENTION,
        flops=flops,
        weight_bytes=kv_bytes,
        activation_bytes=activation_bytes,
        tokens=tokens,
    )


def fc_cost_array(
    model: ModelConfig, rlp: "Sequence[int]", tlp: "Sequence[int]"
) -> KernelCostArray:
    """Vectorized :func:`fc_cost` (QKV + projection + FFN per lane)."""
    q = qkv_cost_array(model, rlp, tlp)
    p = projection_cost_array(model, rlp, tlp)
    f = feedforward_cost_array(model, rlp, tlp)
    return KernelCostArray(
        kind=KernelKind.QKV,  # representative FC kind
        flops=q.flops + p.flops + f.flops,
        weight_bytes=q.weight_bytes + p.weight_bytes + f.weight_bytes,
        activation_bytes=q.activation_bytes + p.activation_bytes + f.activation_bytes,
        tokens=q.tokens,
    )


def fc_arithmetic_intensity(model: ModelConfig, rlp: int, tlp: int) -> float:
    """Exact FC arithmetic intensity of the paper's Equation (1).

    ``AI = (RLP*TLP*h^2*2) / ((2*RLP*TLP*h + h^2) * 2)`` for a square (h, h)
    FC layer. For large ``h`` this approaches ``RLP * TLP``, which is the
    low-cost estimate PAPI's scheduler uses.
    """
    tokens = _validate(rlp, tlp)
    h = model.hidden_dim
    flops = tokens * h * h * 2.0
    total_bytes = (2.0 * tokens * h + h * h) * model.dtype_bytes
    return flops / total_bytes
