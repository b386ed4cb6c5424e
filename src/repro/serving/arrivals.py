"""Request arrival processes and dynamic batch formation (Section 3.2c).

Dynamic batching "starts processing a batch once the batch is full or
exceeds a time limit", so with infrequent arrivals the serving system
launches batches of very different sizes — the third source of
initial-RLP variation the paper motivates PAPI with. This module provides
seeded arrival processes — plain Poisson, bursty (Poisson burst epochs
carrying several near-simultaneous requests), and diurnal (a Poisson
stream whose rate follows a sinusoidal peak/trough cycle) — and the
full-or-timeout batch former.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.serving.request import Request


def _require_finite(**arguments: float) -> None:
    """Reject NaN and infinite float arguments, naming the argument.

    The range checks below cannot do this alone: ``nan <= 0`` is False,
    so a NaN rate would pass them and stamp every arrival NaN.
    """
    for name, value in arguments.items():
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value!r}")


def _require_seed(seed: int) -> None:
    """Reject a negative seed, naming it (numpy's generator would raise
    a bare ``ValueError``)."""
    if seed < 0:
        raise ConfigurationError("seed must be non-negative")


def _require_unstamped(requests: Sequence[Request], process: str) -> None:
    """Reject traces that already carry arrival stamps.

    Silently re-stamping would desynchronize any schedule derived from
    the old stamps (e.g. batches already formed from them), and
    double-calling is almost always a bug. The explicit
    ``arrival_stamped`` flag is the authoritative signal — a trace whose
    first arrival legitimately lands at 0.0 is still guarded — while a
    non-default ``arrival_s`` keeps hand-stamped traces guarded too.
    """
    if not requests:
        raise ConfigurationError("requests must be non-empty")
    stamped = [
        r.request_id
        for r in requests
        if r.arrival_stamped or r.arrival_s != 0.0
    ]
    if stamped:
        raise ConfigurationError(
            f"requests {stamped[:5]} already carry arrival stamps; "
            f"{process} refuses to re-stamp a trace"
        )


def poisson_arrivals(
    requests: Sequence[Request],
    rate_per_s: float,
    seed: int = 0,
) -> List[Request]:
    """Assign Poisson-process arrival times to requests.

    Contract: the request objects are stamped **in place**, in the order
    given — the ``i``-th request receives the ``i``-th arrival of the
    process. Because inter-arrival gaps are strictly positive, the
    sequence is monotonically increasing, so the given order *is* arrival
    order; no reordering happens. The returned list is a new list holding
    the same (now stamped) request objects, each with
    ``arrival_stamped = True``.

    Args:
        requests: Requests to stamp, in arrival order. Must all be
            unstamped (``arrival_stamped`` unset and ``arrival_s`` at
            its 0.0 default).
        rate_per_s: Mean arrivals per second (lambda).
        seed: RNG seed.

    Returns:
        A new list of the same request objects, stamped with strictly
        increasing arrival times.

    Raises:
        ConfigurationError: On a non-finite or non-positive rate, a
            negative seed, an empty trace, or a request already stamped
            with an arrival time.
    """
    _require_finite(rate_per_s=rate_per_s)
    if rate_per_s <= 0:
        raise ConfigurationError("rate_per_s must be positive")
    _require_unstamped(requests, "poisson_arrivals")
    _require_seed(seed)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1.0 / rate_per_s, size=len(requests))
    clock = 0.0
    for request, gap in zip(requests, gaps):
        clock += float(gap)
        request.arrival_s = clock
        request.arrival_stamped = True
    return list(requests)


def bursty_arrivals(
    requests: Sequence[Request],
    rate_per_s: float,
    burst_size: float,
    seed: int = 0,
    spacing_s: float = 1e-3,
) -> List[Request]:
    """Assign bursty arrival times: Poisson burst epochs, grouped members.

    Burst epochs form a Poisson process of rate ``rate_per_s /
    burst_size`` (so the long-run request rate stays ``rate_per_s``);
    each epoch carries ``1 + Poisson(burst_size - 1)`` requests spaced
    ``spacing_s`` apart. When a burst outlasts the gap to the next
    epoch, the next burst starts one spacing after the previous member —
    arrival times stay strictly increasing, so the given order is
    arrival order (same in-place stamping contract as
    :func:`poisson_arrivals`).

    Raises:
        ConfigurationError: On a non-finite argument, a non-positive
            rate or spacing, a burst size below 1, a negative seed, an
            empty trace, or an already-stamped trace.
    """
    _require_finite(
        rate_per_s=rate_per_s, burst_size=burst_size, spacing_s=spacing_s
    )
    if rate_per_s <= 0:
        raise ConfigurationError("rate_per_s must be positive")
    if burst_size < 1:
        raise ConfigurationError("burst_size must be at least 1")
    if spacing_s <= 0:
        raise ConfigurationError("spacing_s must be positive")
    _require_unstamped(requests, "bursty_arrivals")
    _require_seed(seed)
    rng = np.random.default_rng(seed)
    epoch_scale = burst_size / rate_per_s
    clock = 0.0
    epoch = 0.0
    index = 0
    while index < len(requests):
        epoch += float(rng.exponential(scale=epoch_scale))
        start = epoch if index == 0 else max(epoch, clock + spacing_s)
        members = 1 + int(rng.poisson(burst_size - 1.0))
        for member in range(min(members, len(requests) - index)):
            clock = start + member * spacing_s
            requests[index].arrival_s = clock
            requests[index].arrival_stamped = True
            index += 1
    return list(requests)


def diurnal_arrivals(
    requests: Sequence[Request],
    rate_per_s: float,
    period_s: float,
    peak_to_trough: float,
    seed: int = 0,
) -> List[Request]:
    """Assign arrival times from a sinusoidally rate-modulated process.

    The instantaneous rate is ``rate_per_s * m(t)`` with ``m(t) = 1 +
    ((p - 1) / (p + 1)) * sin(2*pi*t / period_s)`` for ``p =
    peak_to_trough`` — peak rate ``2p/(p+1)`` and trough ``2/(p+1)``
    times the mean, averaging ``rate_per_s`` over a period. Gaps are
    unit exponentials scaled by the rate at the *current* time (a
    first-order approximation of the inhomogeneous Poisson process —
    exact as gaps shrink relative to the period). ``p = 1`` degenerates
    to a plain Poisson stream. Same in-place stamping contract as
    :func:`poisson_arrivals`; arrival times are strictly increasing.

    Raises:
        ConfigurationError: On a non-finite argument, a non-positive
            rate or period, a peak-to-trough ratio below 1, a negative
            seed, an empty trace, or an already-stamped trace.
    """
    _require_finite(
        rate_per_s=rate_per_s, period_s=period_s,
        peak_to_trough=peak_to_trough,
    )
    if rate_per_s <= 0:
        raise ConfigurationError("rate_per_s must be positive")
    if period_s <= 0:
        raise ConfigurationError("period_s must be positive")
    if peak_to_trough < 1:
        raise ConfigurationError("peak_to_trough must be at least 1")
    _require_unstamped(requests, "diurnal_arrivals")
    _require_seed(seed)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1.0, size=len(requests))
    swing = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)
    omega = 2.0 * np.pi / period_s
    clock = 0.0
    for request, gap in zip(requests, gaps):
        modulation = 1.0 + swing * float(np.sin(omega * clock))
        clock += float(gap) / (rate_per_s * modulation)
        request.arrival_s = clock
        request.arrival_stamped = True
    return list(requests)


@dataclass(frozen=True)
class FormedBatch:
    """One dynamically formed batch.

    Attributes:
        requests: Members, in arrival order.
        start_s: Time the batch launched (full or timed out).
        triggered_by: ``"full"`` or ``"timeout"``.
    """

    requests: List[Request]
    start_s: float
    triggered_by: str

    @property
    def initial_rlp(self) -> int:
        return len(self.requests)


def form_dynamic_batches(
    requests: Sequence[Request],
    max_batch_size: int,
    timeout_s: float,
) -> List[FormedBatch]:
    """Group arrival-stamped requests by the full-or-timeout rule.

    A batch opens when its first request arrives; it launches when it
    reaches ``max_batch_size`` (trigger ``"full"``) or when ``timeout_s``
    elapses since it opened (trigger ``"timeout"``), whichever is first.

    Boundary semantics (pinned): an arrival landing *exactly* at the
    open batch's deadline still joins it — only a strictly later
    arrival (or the end of the trace) closes the batch as a timeout,
    which then launches at the deadline, not at the closing arrival.

    Args:
        requests: Requests with ``arrival_s`` stamped, sorted by arrival.
        max_batch_size: Full-batch launch threshold.
        timeout_s: Launch deadline from the batch's first arrival.

    Returns:
        Batches in launch order; every request appears exactly once.
    """
    _require_finite(timeout_s=timeout_s)
    if max_batch_size <= 0:
        raise ConfigurationError("max_batch_size must be positive")
    if timeout_s <= 0:
        raise ConfigurationError("timeout_s must be positive")
    ordered = sorted(requests, key=lambda r: r.arrival_s)
    if not ordered:
        raise ConfigurationError("requests must be non-empty")

    batches: List[FormedBatch] = []
    current: List[Request] = []
    deadline = 0.0
    for request in ordered:
        if current and request.arrival_s > deadline:
            batches.append(
                FormedBatch(requests=current, start_s=deadline,
                            triggered_by="timeout")
            )
            current = []
        if not current:
            deadline = request.arrival_s + timeout_s
        current.append(request)
        if len(current) == max_batch_size:
            batches.append(
                FormedBatch(requests=current, start_s=request.arrival_s,
                            triggered_by="full")
            )
            current = []
    if current:
        batches.append(
            FormedBatch(requests=current, start_s=deadline,
                        triggered_by="timeout")
        )
    return batches
