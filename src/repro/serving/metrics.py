"""Run metrics: per-iteration records and run-level summaries."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.systems.base import IterationResult

#: Supported metric-retention modes (see :attr:`RunSummary.detail`).
DETAIL_MODES = ("full", "aggregate")


def latency_percentile_of(
    latencies: Sequence[float],
    percentile: float,
    empty_value: Optional[float] = None,
) -> float:
    """Percentile of a latency sample (nearest-rank convention).

    Shared by run-level and cluster-level summaries so the two report the
    same convention for the SLO-defining p50/p99 numbers.

    Args:
        latencies: The sample.
        percentile: Rank in (0, 100]; out-of-range always raises.
        empty_value: What an empty sample returns. ``None`` (the default)
            makes an empty sample an error; callers whose summaries can
            legitimately be empty (e.g. a cluster whose admission
            controller rejected every request) pass ``0.0``.
    """
    if not 0 < percentile <= 100:
        raise ConfigurationError("percentile must be in (0, 100]")
    if not latencies:
        if empty_value is None:
            raise ConfigurationError("no request latencies recorded")
        return empty_value
    ordered = sorted(latencies)
    rank = max(0, int(round(percentile / 100 * len(ordered))) - 1)
    return ordered[rank]


@dataclass(frozen=True)
class IterationRecord:
    """One decoding iteration of a serving run.

    Attributes:
        iteration: Iteration index (0-based).
        result: The system's time/energy accounting.
        tokens_accepted: Output tokens credited across the batch.
        rlp_before: Active requests entering the iteration.
        rlp_after: Active requests after eos processing.
    """

    iteration: int
    result: IterationResult
    tokens_accepted: int
    rlp_before: int
    rlp_after: int


@dataclass
class RunSummary:
    """Aggregated results of one serving run.

    Attributes:
        system: System name.
        model: Model name.
        prefill_seconds: Time spent in prefill.
        prefill_energy: Energy spent in prefill.
        decode_seconds: Time spent in decoding iterations.
        decode_energy: Energy spent in decoding iterations.
        draft_seconds: Draft-model time (speculative decoding).
        tokens_generated: Total accepted output tokens.
        iterations: Decoding iterations executed.
        reschedules: FC migrations between PUs and FC-PIM (PAPI only).
        fc_target_iterations: Iterations by FC placement target.
        time_breakdown: Seconds by component across all iterations.
        energy_breakdown: Joules by component across all iterations.
        records: Per-iteration records.
        request_latencies: Per-request completion latencies (arrival to
            ``<eos>``: queueing + prefill + decode).
        queueing_seconds: Total time requests spent waiting for admission
            (0 when every request is admitted on arrival; a stamped static
            batch waits for its last member).
        makespan_seconds: Simulated wall-clock span of the run. Equals
            ``total_seconds`` for back-to-back batch runs; under sparse
            arrival traces it also covers idle gaps between batches.
        detail: Metric-retention mode. ``"full"`` (the default) keeps one
            :class:`IterationRecord` per decoding iteration; on
            million-iteration traces those objects dominate resident
            memory, so ``"aggregate"`` folds each iteration into the
            running totals (every aggregate field above stays bit-identical)
            and keeps only the compact per-request latency array —
            ``records`` stays empty and ``rlp_trace()`` returns ``[]``.
    """

    system: str
    model: str
    prefill_seconds: float = 0.0
    prefill_energy: float = 0.0
    decode_seconds: float = 0.0
    decode_energy: float = 0.0
    draft_seconds: float = 0.0
    tokens_generated: int = 0
    iterations: int = 0
    reschedules: int = 0
    fc_target_iterations: Dict[str, int] = field(default_factory=dict)
    time_breakdown: Dict[str, float] = field(default_factory=dict)
    energy_breakdown: Dict[str, float] = field(default_factory=dict)
    records: List[IterationRecord] = field(default_factory=list)
    request_latencies: List[float] = field(default_factory=list)
    queueing_seconds: float = 0.0
    makespan_seconds: float = 0.0
    detail: str = "full"

    def __post_init__(self) -> None:
        if self.detail not in DETAIL_MODES:
            raise ConfigurationError(
                f"detail must be one of {DETAIL_MODES}, got {self.detail!r}"
            )

    def add_iteration(self, record: IterationRecord) -> None:
        """Fold one iteration into the summary (kept in ``records`` only
        under ``detail="full"``)."""
        if self.detail == "full":
            self.records.append(record)
        self.fold_iteration(record.result, record.tokens_accepted)

    def fold_iteration(
        self, result: IterationResult, tokens_accepted: int
    ) -> None:
        """Fold one iteration's accounting into the running aggregates.

        The streaming core of :meth:`add_iteration`: callers in
        ``detail="aggregate"`` mode use it directly so long traces never
        materialize an :class:`IterationRecord` per iteration.
        """
        self.iterations += 1
        self.decode_seconds += result.seconds
        self.decode_energy += result.energy_joules
        self.tokens_generated += tokens_accepted
        # Step results are memoized per operating point, so the same
        # (frozen, immutable) instance folds millions of times; cache
        # its unpacked fold ingredients on the instance — ``_value_`` is
        # ``.value`` without the DynamicClassAttribute descriptor trip,
        # and the item tuples skip a dict-view allocation per fold.
        cached = getattr(result, "_fold_items", None)
        if cached is None:
            cached = (
                result.fc_target._value_,
                tuple(result.time_breakdown.items()),
                tuple(result.energy_breakdown.items()),
            )
            object.__setattr__(result, "_fold_items", cached)
        target, time_items, energy_items = cached
        self.fc_target_iterations[target] = (
            self.fc_target_iterations.get(target, 0) + 1
        )
        time_breakdown = self.time_breakdown
        for key, value in time_items:
            time_breakdown[key] = time_breakdown.get(key, 0.0) + value
        energy_breakdown = self.energy_breakdown
        for key, value in energy_items:
            energy_breakdown[key] = energy_breakdown.get(key, 0.0) + value

    def fold_run(
        self, result: IterationResult, count: int, tokens_accepted: int
    ) -> None:
        """Fold ``count`` identical iterations (one segment of
        :meth:`fold_run_segments`); ``tokens_accepted`` is per
        iteration."""
        self.fold_run_segments(((result, count),), tokens_accepted)

    def fold_run_segments(
        self,
        segments: Sequence[Tuple[IterationResult, int]],
        tokens_accepted: Union[int, Sequence[int]],
        rows: Optional[np.ndarray] = None,
    ) -> None:
        """Fold a macro-run of consecutive constant-cost segments.

        ``segments`` is an ordered sequence of ``(result, count)`` pairs:
        the run executed ``count`` iterations priced at ``result``, then
        moved to the next segment. ``tokens_accepted`` is what each
        iteration accepted: one count for the whole run, or a sequence
        with one count per segment. Without ``rows`` each iteration
        folds through :meth:`fold_iteration`, the reference computation.

        ``rows``, when given, holds the run's fold rows, one per
        iteration, as a price line (``repro.cluster.replica.PriceLine``)
        lays them out: ``[seconds, energy_joules, *time_breakdown values,
        *energy_breakdown values]``, in the first result's key order
        (every row of a line shares one FC target and key layout). They
        fold with one sequential ``np.add.accumulate`` per aggregate,
        whose additions happen in the per-iteration ``+=`` chain's order
        and so round identically.
        """
        per_segment = not isinstance(tokens_accepted, int)
        if rows is None:
            fold = self.fold_iteration
            tokens = (
                tokens_accepted if per_segment else repeat(tokens_accepted)
            )
            for (result, count), accepted in zip(segments, tokens):
                if count <= 0:
                    raise ConfigurationError("segment counts must be positive")
                for _ in range(count):
                    fold(result, accepted)
            return
        first = segments[0][0]
        time_keys = first.time_breakdown.keys()
        energy_keys = first.energy_breakdown.keys()
        time_breakdown = self.time_breakdown
        energy_breakdown = self.energy_breakdown
        start = [self.decode_seconds, self.decode_energy]
        start += [time_breakdown.get(key, 0.0) for key in time_keys]
        start += [energy_breakdown.get(key, 0.0) for key in energy_keys]
        total = len(rows)
        mat = np.empty((total + 1, len(start)), dtype=np.float64)
        mat[0] = start
        mat[1:] = rows
        np.add.accumulate(mat, axis=0, out=mat)
        final = mat[-1].tolist()
        self.iterations += total
        self.tokens_generated += (
            sum(
                accepted * count
                for (_, count), accepted in zip(segments, tokens_accepted)
            )
            if per_segment
            else tokens_accepted * total
        )
        target = first.fc_target._value_
        self.fc_target_iterations[target] = (
            self.fc_target_iterations.get(target, 0) + total
        )
        self.decode_seconds = final[0]
        self.decode_energy = final[1]
        split = 2 + len(time_keys)
        time_breakdown.update(zip(time_keys, final[2:split]))
        energy_breakdown.update(zip(energy_keys, final[split:]))

    @property
    def total_seconds(self) -> float:
        """End-to-end latency: prefill + decode + draft model."""
        return self.prefill_seconds + self.decode_seconds + self.draft_seconds

    @property
    def total_energy(self) -> float:
        """End-to-end energy."""
        return self.prefill_energy + self.decode_energy

    @property
    def tokens_per_second(self) -> float:
        """Decoding throughput (accepted tokens per decoding second)."""
        if self.decode_seconds == 0:
            return 0.0
        return self.tokens_generated / self.decode_seconds

    @property
    def seconds_per_token(self) -> float:
        """Mean decoding time per accepted token (Figure 12's unit)."""
        if self.tokens_generated == 0:
            return 0.0
        return self.decode_seconds / self.tokens_generated

    @property
    def energy_per_token(self) -> float:
        """Joules per accepted token."""
        if self.tokens_generated == 0:
            return 0.0
        return self.decode_energy / self.tokens_generated

    def rlp_trace(self) -> List[int]:
        """Runtime RLP per iteration (Figure 3's underlying series).

        Empty under ``detail="aggregate"`` — the series requires the
        per-iteration records that mode deliberately drops.
        """
        return [record.rlp_before for record in self.records]

    def record_request_latency(self, latency_s: float) -> None:
        """Record one request's completion latency.

        The engine passes the full arrival-to-``<eos>`` latency: time
        queued before admission, prefill, and every decoding iteration
        (plus draft-model time) up to the one that finished the request.
        """
        if latency_s < 0:
            raise ConfigurationError("latency must be non-negative")
        self.request_latencies.append(latency_s)

    def latency_percentile(self, percentile: float) -> float:
        """Per-request completion-latency percentile (e.g. 50, 99).

        Latencies run from the request's arrival to the iteration in which
        it emits ``<eos>`` — queueing and prefill included, the per-request
        number an SLO (Section 3.2a) constrains.
        """
        return latency_percentile_of(self.request_latencies, percentile)

    @property
    def mean_request_latency(self) -> float:
        """Mean per-request completion latency."""
        if not self.request_latencies:
            return 0.0
        return sum(self.request_latencies) / len(self.request_latencies)

    @property
    def utilization(self) -> float:
        """Fraction of the makespan the replica spent serving.

        1.0 for back-to-back batch runs; below 1.0 when an arrival trace
        leaves the replica idle between batches.
        """
        if self.makespan_seconds <= 0:
            return 1.0 if self.total_seconds > 0 else 0.0
        return min(1.0, self.total_seconds / self.makespan_seconds)


def speedup(baseline: RunSummary, candidate: RunSummary) -> float:
    """End-to-end speedup of ``candidate`` over ``baseline``."""
    if candidate.total_seconds <= 0:
        raise ConfigurationError("candidate has no measured time")
    return baseline.total_seconds / candidate.total_seconds


def energy_efficiency(baseline: RunSummary, candidate: RunSummary) -> float:
    """Energy-efficiency improvement of ``candidate`` over ``baseline``."""
    if candidate.total_energy <= 0:
        raise ConfigurationError("candidate has no measured energy")
    return baseline.total_energy / candidate.total_energy
