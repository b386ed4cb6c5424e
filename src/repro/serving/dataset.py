"""Synthetic Dolly-like request length distributions.

The paper evaluates on two Dolly dataset categories (Section 7.1):

* **creative-writing** — long, open-ended generations. Long outputs make
  the decoding phase dominate end-to-end time and produce large runtime-RLP
  swings (requests finish at very different iterations), which is where
  PAPI's dynamic scheduling pays off most (Section 7.2's explanation of
  the creative-writing vs general-qa speedup gap).
* **general-qa** — short factual answers: shorter outputs, tighter spread.

We model token lengths with seeded log-normal distributions whose medians
and spreads follow the category statistics of the public Dolly release.
Only lengths matter to an architecture simulator; see DESIGN.md's
substitution table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.serving.request import Request


def sample_lognormal_lengths(
    rng: np.random.Generator,
    median: float,
    sigma: float,
    count: int,
    max_len: int = 2048,
) -> np.ndarray:
    """Seeded log-normal token lengths, rounded and clipped to
    ``[1, max_len]`` — the one sampling primitive every length
    distribution (category prompts/outputs, session suffixes) shares."""
    raw = rng.lognormal(mean=np.log(median), sigma=sigma, size=count)
    return np.clip(np.rint(raw), 1, max_len).astype(int)


@dataclass(frozen=True)
class DatasetSpec:
    """Length distribution of one request category.

    Attributes:
        name: Category label.
        input_median: Median prompt length (tokens).
        input_sigma: Log-normal sigma of prompt lengths.
        output_median: Median generation length (tokens).
        output_sigma: Log-normal sigma of generation lengths.
        max_len: Hard cap on either length (context-window bound).
    """

    name: str
    input_median: float
    input_sigma: float
    output_median: float
    output_sigma: float
    max_len: int = 2048

    def __post_init__(self) -> None:
        if self.input_median <= 0 or self.output_median <= 0:
            raise ConfigurationError("medians must be positive")
        if self.input_sigma < 0 or self.output_sigma < 0:
            raise ConfigurationError("sigmas must be non-negative")
        if self.max_len <= 1:
            raise ConfigurationError("max_len must exceed 1")

    def _sample_lengths(
        self, rng: np.random.Generator, median: float, sigma: float, count: int
    ) -> np.ndarray:
        return sample_lognormal_lengths(
            rng, median, sigma, count, max_len=self.max_len
        )

    def sample_output_lengths(
        self, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        """Draw generation lengths from the category's output
        distribution using the caller's RNG (session follow-up turns
        reuse the category statistics without re-seeding)."""
        if count <= 0:
            raise ConfigurationError("count must be positive")
        return self._sample_lengths(
            rng, self.output_median, self.output_sigma, count
        )

    def sample(self, count: int, seed: int = 0) -> List[Request]:
        """Draw ``count`` requests with seeded, reproducible lengths."""
        if count <= 0:
            raise ConfigurationError("count must be positive")
        if seed < 0:
            raise ConfigurationError("seed must be non-negative")
        rng = np.random.default_rng(seed)
        inputs = self._sample_lengths(rng, self.input_median, self.input_sigma, count)
        outputs = self._sample_lengths(
            rng, self.output_median, self.output_sigma, count
        )
        return [
            Request(request_id=i, input_len=int(inp), output_len=int(out))
            for i, (inp, out) in enumerate(zip(inputs, outputs))
        ]


#: Long-form generation: median ~400-token outputs with heavy spread.
CREATIVE_WRITING = DatasetSpec(
    name="creative-writing",
    input_median=64.0,
    input_sigma=0.6,
    output_median=400.0,
    output_sigma=0.7,
)

#: Short factual answers: median ~80-token outputs, tighter spread.
GENERAL_QA = DatasetSpec(
    name="general-qa",
    input_median=96.0,
    input_sigma=0.6,
    output_median=80.0,
    output_sigma=0.5,
)

_SPECS = {spec.name: spec for spec in (CREATIVE_WRITING, GENERAL_QA)}


def available_categories() -> Tuple[str, ...]:
    """Names of all registered request categories, sorted."""
    return tuple(sorted(_SPECS))


def get_dataset(category: str) -> DatasetSpec:
    """The registered length distribution for a named category."""
    try:
        return _SPECS[category]
    except KeyError:
        known = ", ".join(sorted(_SPECS))
        raise ConfigurationError(
            f"unknown dataset category {category!r}; known: {known}"
        ) from None


def sample_requests(category: str, count: int, seed: int = 0) -> List[Request]:
    """Sample requests from a named category (``creative-writing`` /
    ``general-qa``)."""
    return get_dataset(category).sample(count, seed=seed)
