"""SLO-aware admission control for multi-tenant cluster serving.

The ROADMAP's multi-tenant SLO item: each tenant carries a per-request
latency budget (stamped on its requests as an absolute ``deadline_s``),
and the cluster may *reject* or *defer* an arriving request when its
projected completion would blow that budget — protecting the tenant's
p99 instead of letting an overloaded fleet absorb every arrival and miss
everyone's deadline.

The projection reuses the routers' vectorized admission price
(:func:`~repro.cluster.router.projected_step_seconds`, by way of
:func:`~repro.cluster.router.projected_completion_seconds`): the
controller asks every replica for the request's projected completion and
admits when the *best* replica still meets the deadline. Deferral pushes
the arrival back by a fixed backoff a bounded number of times — useful
under bursty load where the backlog drains quickly — after which the
request is rejected rather than deferred forever.

Requests without a deadline, and tenants whose policy is ``admit``, pass
through untouched, so single-tenant runs behave exactly as before the
controller existed.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.cluster.replica import Replica
from repro.cluster.router import (
    PriceCache,
    best_completion_seconds,
    projected_prefill_completion_seconds,
)
from repro.errors import ConfigurationError
from repro.serving.request import Request

#: What a tenant policy may do with an at-risk request.
ADMISSION_ACTIONS = ("admit", "reject", "defer")


class AdmissionDecision(enum.Enum):
    """Outcome of one admission-control consultation."""

    ADMIT = "admit"
    REJECT = "reject"
    DEFER = "defer"


@dataclass(frozen=True)
class TenantPolicy:
    """How one tenant's at-risk arrivals are handled.

    Attributes:
        action: ``admit`` (no control), ``reject`` (drop at-risk
            arrivals), or ``defer`` (retry later, bounded).
        defer_seconds: Backoff before a deferred request re-arrives.
        max_defers: Deferrals allowed per request before it is rejected.
    """

    action: str = "admit"
    defer_seconds: float = 0.5
    max_defers: int = 4

    def __post_init__(self) -> None:
        if self.action not in ADMISSION_ACTIONS:
            known = ", ".join(ADMISSION_ACTIONS)
            raise ConfigurationError(
                f"unknown admission action {self.action!r}; known: {known}"
            )
        if not 0 < self.defer_seconds < math.inf:  # NaN fails it too
            raise ConfigurationError(
                "defer_seconds must be positive and finite, got "
                f"{self.defer_seconds!r}"
            )
        if (
            isinstance(self.max_defers, bool)
            or not isinstance(self.max_defers, numbers.Integral)
            or self.max_defers < 0
        ):
            # An integral type rules out NaN, infinity (a request that
            # defers forever never lets the run finish) and fractions.
            raise ConfigurationError(
                "max_defers must be a non-negative integer, got "
                f"{self.max_defers!r}"
            )


class PathProber:
    """Completion projection across a disaggregated fleet's full path.

    The admission controller's fleet view for prefill/decode pools: it
    quacks like a fleet with a ``probe_min_completion`` verdict, but the
    projection spans the whole handoff — the best prefill pool
    arrival-to-first-token estimate, plus the KV transfer of the
    request's first-token context, plus the best completion the decode
    pool offers. The decode term delegates to
    :func:`~repro.cluster.router.best_completion_seconds`, so a
    vectorized decode pool answers from its per-pool verdict memo and a
    scalar pool from per-replica projections — bit-identical either way.

    Args:
        prefill_pool: The fleet's prefill replicas.
        decode_pool: The decode replicas (a list or a
            :class:`~repro.cluster.fleetstate.FleetState`).
        interconnect: The KV-transfer cost model
            (:class:`~repro.cluster.interconnect.Interconnect`).
        price_cache: The shared router/admission price memo.
    """

    def __init__(
        self,
        prefill_pool: Sequence[Replica],
        decode_pool: Sequence[Replica],
        interconnect: object,
        price_cache: Optional[PriceCache] = None,
    ) -> None:
        self.prefill_pool = prefill_pool
        self.decode_pool = decode_pool
        self.interconnect = interconnect
        self.price_cache = price_cache

    def probe_min_completion(self, request: Request) -> float:
        """Earliest projected arrival-to-``<eos>`` across the full path."""
        best_prefill = min(
            projected_prefill_completion_seconds(
                replica, request, self.price_cache
            )
            for replica in self.prefill_pool
        )
        transfer = self.interconnect.transfer_seconds(request.input_len + 1)
        best_decode = best_completion_seconds(
            self.decode_pool, request, self.price_cache
        )
        return best_prefill + transfer + best_decode


class SLOAdmissionController:
    """Gates arrivals on each tenant's projected p99-budget risk.

    Args:
        policies: Tenant name -> :class:`TenantPolicy`. Tenants absent
            from the mapping are always admitted.
        price_cache: Admission-price memo to use. Pass the routing
            policy's own cache (when it keeps one) so the controller and
            router price each distinct operating point once between them;
            ``None`` allocates a private cache.
        max_cache_entries: Bound on a privately allocated cache.
    """

    def __init__(
        self,
        policies: Mapping[str, TenantPolicy],
        price_cache: Optional[PriceCache] = None,
        max_cache_entries: int = 4096,
    ) -> None:
        self.policies = dict(policies)
        self._price_cache = (
            price_cache if price_cache is not None
            else PriceCache(max_cache_entries)
        )
        self._defers_used: Dict[int, int] = {}

    @property
    def price_cache(self) -> PriceCache:
        """The admission-price memo (shared with the router when wired)."""
        return self._price_cache

    def decide(
        self, request: Request, replicas: Sequence[Replica], now: float
    ) -> Tuple[AdmissionDecision, float]:
        """Admit, reject, or defer ``request`` at simulated time ``now``.

        Returns:
            The decision and, for ``DEFER``, the backoff in seconds
            before the request should re-arrive (0.0 otherwise).
        """
        policy = self.policies.get(request.tenant)
        if (
            policy is None
            or policy.action == "admit"
            or request.deadline_s is None
        ):
            return AdmissionDecision.ADMIT, 0.0
        # The best projected completion across the fleet view: the
        # vectorized core's FleetState answers from its fleet-version
        # verdict memo and a disaggregated fleet's PathProber from its
        # cross-handoff projection; a list of scalar-core replicas takes
        # the minimum over the per-replica reference probes.
        projected = best_completion_seconds(
            replicas, request, self._price_cache
        )
        if now + projected <= request.deadline_s:
            return AdmissionDecision.ADMIT, 0.0
        if policy.action == "defer":
            used = self._defers_used.get(request.request_id, 0)
            if used < policy.max_defers:
                self._defers_used[request.request_id] = used + 1
                return AdmissionDecision.DEFER, policy.defer_seconds
        return AdmissionDecision.REJECT, 0.0
