"""Speculative decoding acceptance model.

Speculative decoding (Section 2.2.2) lets a draft model propose
``speculation_length`` tokens that the target LLM verifies in one parallel
pass. The number of tokens *accepted* per iteration follows the standard
leading-prefix rule: drafts are accepted until the first rejection, and the
target model always contributes one token of its own (the correction /
bonus token). With per-token acceptance probability ``a`` and speculation
length ``s`` the accepted count is ``min(G, s-1) + 1`` where ``G`` is
geometric — giving the well-known expected value ``(1 - a^s) / (1 - a)``.

The draft model's own serial decoding cost is charged per drafted token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.units import us


@dataclass(frozen=True)
class SpeculationConfig:
    """Speculative decoding parameters.

    Attributes:
        speculation_length: TLP — tokens verified per decoding iteration
            (1 disables speculation).
        acceptance_rate: Probability each drafted token is accepted.
        draft_token_cost_s: Serial draft-model time per drafted token.
    """

    speculation_length: int = 1
    acceptance_rate: float = 0.8
    draft_token_cost_s: float = us(150.0)

    def __post_init__(self) -> None:
        if self.speculation_length <= 0:
            raise ConfigurationError("speculation_length must be positive")
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise ConfigurationError("acceptance_rate must be in [0, 1]")
        if self.draft_token_cost_s < 0:
            raise ConfigurationError("draft cost must be non-negative")

    @property
    def tlp(self) -> int:
        """Token-level parallelism of one verification pass."""
        return self.speculation_length

    def expected_tokens_per_iteration(self) -> float:
        """E[accepted tokens] = (1 - a^s) / (1 - a).

        The closed form has removable singularities at both ends of the
        acceptance range: ``a = 0`` means only the bonus token survives
        (1 token), and ``a = 1`` means every draft is accepted, so the
        ``a -> 1`` limit of the geometric sum is exactly ``s`` — the
        formula itself would divide by zero there.
        """
        a = self.acceptance_rate
        s = self.speculation_length
        if s == 1 or a == 0.0:
            return 1.0
        if a == 1.0:
            return float(s)
        return (1.0 - a ** s) / (1.0 - a)

    def steady_slot_tokens(
        self, speculation_length: Optional[int] = None
    ) -> Optional[int]:
        """Per-slot accepted tokens when acceptance needs no RNG draw.

        :class:`SpeculativeSampler.accepted_tokens` short-circuits two
        regimes without consuming the draw stream: ``s == 1`` (no draft
        model — always exactly the bonus token) and ``acceptance_rate >=
        1.0`` (every draft passes). In both, every slot of every
        iteration accepts the same constant, so a run of iterations can
        be advanced in closed form while leaving the sampler's stream
        position untouched. Returns that constant, or ``None`` when
        sampling is stochastic (draws are consumed iteration-major,
        slot-minor, so they cannot be batched per slot without
        reordering the stream).
        """
        s = speculation_length if speculation_length is not None else (
            self.speculation_length
        )
        if s <= 0:
            raise ConfigurationError("speculation_length must be positive")
        if s == 1:
            return 1
        if self.acceptance_rate >= 1.0:
            return s
        return None

    def draft_overhead_s(self, speculation_length: Optional[int] = None) -> float:
        """Draft-model time per iteration (serial over s-1 drafted tokens).

        With s = 1 there is no draft model and no overhead. Pass
        ``speculation_length`` to price a dynamically chosen TLP.
        """
        s = speculation_length if speculation_length is not None else (
            self.speculation_length
        )
        if s <= 0:
            raise ConfigurationError("speculation_length must be positive")
        return (s - 1) * self.draft_token_cost_s


class SpeculativeSampler:
    """Seeded sampler of per-request accepted-token counts.

    Uniform draws are buffered in chunks: ``Generator.random(n)`` consumes
    the bit generator exactly like ``n`` scalar ``random()`` calls, so the
    sampled sequence is identical to the unbuffered implementation while
    skipping most of numpy's per-call dispatch (this sampler sits in the
    serving hot loop, one call per request per iteration).
    """

    _CHUNK = 4096

    def __init__(self, config: SpeculationConfig, seed: int = 0) -> None:
        if seed < 0:
            raise ConfigurationError("seed must be non-negative")
        self.config = config
        self._rng = np.random.default_rng(seed)
        self._buffer = self._rng.random(0)
        self._pos = 0

    def accepted_tokens(self, speculation_length: Optional[int] = None) -> int:
        """Accepted tokens for one request in one iteration (>= 1, <= s).

        Args:
            speculation_length: Override of the configured length — used by
                dynamic TLP policies that change the draft depth per
                iteration.
        """
        s = speculation_length if speculation_length is not None else (
            self.config.speculation_length
        )
        if s <= 0:
            raise ConfigurationError("speculation_length must be positive")
        if s == 1:
            return 1
        a = self.config.acceptance_rate
        if a >= 1.0:
            # Always-accept boundary: every draw in [0, 1) would pass the
            # ``draw < a`` test anyway; skip the RNG so the draw stream is
            # not consumed for an outcome that is already determined.
            return s
        buffer = self._buffer
        pos = self._pos
        accepted_drafts = 0
        while accepted_drafts < s - 1:
            if pos >= buffer.shape[0]:
                buffer = self._buffer = self._rng.random(self._CHUNK)
                pos = 0
            draw = buffer[pos]
            pos += 1
            if draw >= a:
                break
            accepted_drafts += 1
        self._pos = pos
        return accepted_drafts + 1
