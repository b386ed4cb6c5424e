"""Inference request model."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError, SimulationError

#: Tenant label applied to untagged requests (single-tenant runs).
DEFAULT_TENANT = "default"


class RequestState(enum.Enum):
    """Lifecycle of a request in the serving system."""

    QUEUED = "queued"
    PREFILLING = "prefilling"
    DECODING = "decoding"
    FINISHED = "finished"
    REJECTED = "rejected"


class RequestPhase(enum.Enum):
    """Which pool of a disaggregated fleet owns the request.

    Colocated fleets never advance a request past ``PREFILL`` — the one
    replica owns the request end to end and the phase carries no
    information. In a role-typed fleet the request moves ``PREFILL``
    (queued/batched at a prefill replica) -> ``TRANSFERRING`` (KV cache
    in flight on the interconnect) -> ``DECODE`` (queued/batched at a
    decode replica).
    """

    PREFILL = "prefill"
    TRANSFERRING = "transferring"
    DECODE = "decode"


@dataclass
class Request:
    """One user request.

    Attributes:
        request_id: Unique id within a run.
        input_len: Prompt length in tokens.
        output_len: Tokens the request will generate before ``<eos>``.
        generated: Output tokens produced so far.
        state: Lifecycle state.
        arrival_s: Arrival time; latency counts from it.
        finish_iteration: Decoding iteration at which the request finished.
        tenant: Traffic-class label for multi-tenant runs; requests of one
            tenant share an SLO budget and are reported together.
        deadline_s: Absolute simulated time by which the request should
            finish to meet its tenant's latency budget (``None`` =
            best-effort, no deadline). Admission control and the
            ``slo-slack`` router act on this.
        finish_s: Simulated completion time, stamped when the request
            emits ``<eos>`` (-1.0 until then).
        phase: Pool ownership in a disaggregated fleet (see
            :class:`RequestPhase`); stays ``PREFILL`` on colocated fleets.
        first_token_s: Simulated time the first output token was emitted
            by a prefill-pool replica (-1.0 on colocated fleets, where
            first-token time is not tracked separately).
        transfer_done_s: Simulated time the KV transfer to the decode
            pool completed (-1.0 until then; -1.0 forever on colocated
            fleets and for requests that finish at first token).
        arrival_stamped: Whether an arrival process assigned
            ``arrival_s``. The explicit flag distinguishes "unstamped"
            from a legitimate 0.0 stamp, so re-stamp guards and dynamic
            scheduling never conflate the two.
        session_id: Multi-turn session this request belongs to (``None``
            for independent requests). Turns of one session share a
            growing conversation prefix.
        turn_index: Zero-based position within the session (0 = the
            opening turn; follow-up turns are scheduled dynamically when
            their predecessor finishes).
        prefix_len: Leading tokens of ``input_len`` that repeat the
            previous turn's final context — the reusable (cacheable)
            prefix. Always 0 for turn 0 and independent requests, and
            strictly less than ``input_len`` (a turn appends at least
            one new token).
        cached_prefix_len: Prefix tokens actually resident in the
            serving replica's prefix cache. Stamped as a routing-time
            hint at arrival and finalized at admission; the prompt pass
            only prefills ``input_len - cached_prefix_len`` tokens.
        followup: The session's next turn, scheduled ``think_time_s``
            after this request finishes (``None`` = last turn).
        think_time_s: Pre-drawn think-time delay between the previous
            turn's completion and this turn's arrival (0.0 for turn 0
            and independent requests).
        deadline_budget_s: Tenant latency budget carried by dynamically
            scheduled turns; converted to an absolute ``deadline_s``
            when the arrival time is stamped (0.0 = best-effort).
    """

    request_id: int
    input_len: int
    output_len: int
    generated: int = 0
    state: RequestState = RequestState.QUEUED
    arrival_s: float = 0.0
    finish_iteration: int = -1
    tenant: str = DEFAULT_TENANT
    deadline_s: Optional[float] = None
    finish_s: float = -1.0
    phase: RequestPhase = RequestPhase.PREFILL
    first_token_s: float = -1.0
    transfer_done_s: float = -1.0
    arrival_stamped: bool = False
    session_id: Optional[int] = None
    turn_index: int = 0
    prefix_len: int = 0
    cached_prefix_len: int = 0
    followup: Optional["Request"] = None
    think_time_s: float = 0.0
    deadline_budget_s: float = 0.0

    def __post_init__(self) -> None:
        if self.input_len <= 0:
            raise ConfigurationError("input_len must be positive")
        if self.output_len <= 0:
            raise ConfigurationError("output_len must be positive")
        if self.arrival_s < 0:
            raise ConfigurationError("arrival_s must be non-negative")
        if not self.tenant:
            raise ConfigurationError("tenant must be non-empty")
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ConfigurationError("deadline_s must be non-negative")
        if self.prefix_len < 0 or self.prefix_len >= self.input_len:
            raise ConfigurationError(
                "prefix_len must be in [0, input_len)"
            )
        if not 0 <= self.cached_prefix_len <= self.prefix_len:
            raise ConfigurationError(
                "cached_prefix_len must be in [0, prefix_len]"
            )
        if self.turn_index < 0:
            raise ConfigurationError("turn_index must be non-negative")
        if self.think_time_s < 0:
            raise ConfigurationError("think_time_s must be non-negative")
        if self.deadline_budget_s < 0:
            raise ConfigurationError(
                "deadline_budget_s must be non-negative"
            )

    @property
    def context_len(self) -> int:
        """Current KV-cache length: prompt plus generated tokens."""
        return self.input_len + self.generated

    @property
    def prefill_len(self) -> int:
        """Prompt tokens the prompt pass must actually compute.

        A resident prefix discounts the prefill to the suffix only; the
        KV context (and hence decode attention cost) stays the full
        prompt either way. Equals ``input_len`` whenever no prefix is
        cached — independent requests never see a discount.
        """
        return self.input_len - self.cached_prefix_len

    @property
    def remaining(self) -> int:
        """Output tokens still to generate."""
        return self.output_len - self.generated

    @property
    def is_finished(self) -> bool:
        return self.state is RequestState.FINISHED

    @property
    def met_deadline(self) -> bool:
        """True when the request finished in time.

        Best-effort requests (no deadline) meet it vacuously once they
        finish; unfinished or rejected requests never do, and neither do
        requests finished without a ``finish_s`` stamp (every replica
        stamps it; a bare :meth:`advance` does not).
        """
        if not self.is_finished or self.finish_s < 0:
            return False
        return self.deadline_s is None or self.finish_s <= self.deadline_s

    def advance(self, tokens: int, iteration: int) -> int:
        """Record ``tokens`` accepted output tokens; cap at ``output_len``.

        Returns:
            Tokens actually credited (clipped at the request's eos point).

        Raises:
            SimulationError: If the request already finished.
        """
        if self.state is RequestState.FINISHED:
            raise SimulationError(f"request {self.request_id} already finished")
        if tokens <= 0:
            raise SimulationError("must advance by at least one token")
        remaining = self.output_len - self.generated
        credited = tokens if tokens < remaining else remaining
        self.generated += credited
        if self.generated >= self.output_len:
            self.state = RequestState.FINISHED
            self.finish_iteration = iteration
        else:
            self.state = RequestState.DECODING
        return credited
