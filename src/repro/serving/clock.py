"""Discrete-event simulation core: simulated clock and event queue.

The serving stack is arrival-driven: requests enter the system at trace
timestamps, wait in a queue, get admitted into a replica's running batch,
and complete decoding iterations whose durations the cost model prices.
This module provides the minimal event machinery all of that runs on — a
priority queue of timestamped events over a simulated clock.

Three event kinds cover LLM serving:

* ``ARRIVAL`` — a request reaches the cluster at its trace timestamp.
* ``ADMIT`` — a replica pulls waiting requests into its running batch
  (charging prefill) because capacity opened or it was idle.
* ``STEP_DONE`` — one decoding iteration (plus any piggybacked prefill and
  draft-model time) finishes on a replica.

Events at equal timestamps are processed in push order (a monotone
sequence number breaks ties), which keeps runs deterministic.
"""

from __future__ import annotations

import enum
import heapq
from collections import deque
from itertools import islice
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError


class EventKind(enum.Enum):
    """What happened at a simulated timestamp."""

    ARRIVAL = "arrival"
    ADMIT = "admit"
    STEP_DONE = "step-done"
    KV_TRANSFER = "kv-transfer"


class Event:
    """One scheduled occurrence on the simulated timeline.

    A ``__slots__`` class rather than a (frozen) dataclass: the generated
    ``__init__`` plus frozen ``object.__setattr__`` round-trips are
    measurable overhead at millions of events per trace, and the slots
    layout drops the per-instance ``__dict__``. Ordering and equality are
    unchanged from the dataclass days: events compare on
    ``(time_s, seq)`` only — ``kind`` and ``payload`` never participate.

    Attributes:
        time_s: Simulated timestamp of the event.
        seq: Monotone tie-breaker (push order at equal timestamps).
        kind: Event kind.
        payload: Event-specific data (e.g. the arriving request, or the
            replica index the event belongs to).
    """

    __slots__ = ("time_s", "seq", "kind", "payload")

    def __init__(
        self, time_s: float, seq: int, kind: EventKind, payload: Any = None
    ) -> None:
        self.time_s = time_s
        self.seq = seq
        self.kind = kind
        self.payload = payload

    def __lt__(self, other: "Event") -> bool:
        # Hand-written instead of dataclass order=True: the generated
        # comparator builds a (time_s, seq) tuple per side on every heap
        # sift, and fleet-scale traces compare events millions of times.
        # Ordering is unchanged: time first, push order breaking ties.
        if self.time_s != other.time_s:
            return self.time_s < other.time_s
        return self.seq < other.seq

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.time_s == other.time_s and self.seq == other.seq

    def __hash__(self) -> int:
        return hash((self.time_s, self.seq))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time_s={self.time_s!r}, seq={self.seq!r}, "
            f"kind={self.kind!r}, payload={self.payload!r})"
        )


class EventQueue:
    """Priority queue of events over a simulated clock.

    ``now`` advances to each popped event's timestamp; pushing an event
    into the past raises, so causality violations fail loudly instead of
    silently reordering the timeline.
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = 0
        self.now = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def empty(self) -> bool:
        return not self._heap

    def push(self, time_s: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event at ``time_s`` (>= the current clock)."""
        if time_s < 0:
            raise ConfigurationError("event time must be non-negative")
        if time_s < self.now:
            raise SimulationError(
                f"cannot schedule {kind.value} at {time_s:.6f}s: "
                f"clock already at {self.now:.6f}s"
            )
        event = Event(time_s=time_s, seq=self._seq, kind=kind, payload=payload)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing the clock."""
        if not self._heap:
            raise SimulationError("event queue is empty")
        event = heapq.heappop(self._heap)
        self.now = event.time_s
        return event

    def peek(self) -> Optional[Event]:
        """The earliest scheduled event without popping it."""
        return self._heap[0] if self._heap else None

    def peek_time(self) -> Optional[float]:
        """Timestamp of the earliest pending event (``None`` when empty).

        The burst horizon for inline step execution: a replica's
        consecutive completions may be processed without a heap round
        trip while they all fall *strictly* before this time — an event
        *at* the peeked timestamp holds an older sequence number than
        anything pushed now, so it must win the tie and be processed
        first. Same contract as :meth:`EventCalendar.peek_time`.
        """
        return self._heap[0].time_s if self._heap else None


#: Integer event-kind codes used by :class:`EventCalendar`. The flat
#: calendar trades the enum for small ints so dynamic events are plain
#: tuples (no Event object, no enum identity check per dispatch).
ARRIVAL_CODE = 0
ADMIT_CODE = 1
STEP_DONE_CODE = 2
KV_TRANSFER_CODE = 3

#: Calendar code -> :class:`EventKind`, for callers that need the enum.
KIND_OF_CODE = {
    ARRIVAL_CODE: EventKind.ARRIVAL,
    ADMIT_CODE: EventKind.ADMIT,
    STEP_DONE_CODE: EventKind.STEP_DONE,
    KV_TRANSFER_CODE: EventKind.KV_TRANSFER,
}


class EventCalendar:
    """Flat typed event calendar: both cluster cores' event engine.

    The :class:`EventQueue` stores one heap-allocated :class:`Event` per
    occurrence and heapifies all of them — including the entire arrival
    trace, which is *already sorted* and known up front. The calendar
    splits the timeline into three kinds of lane:

    * **Static arrival lane** — the trace's arrival timestamps as one
      flat float64 numpy array (bulk-inserted once, no per-arrival heap
      push), consumed by an advancing pointer. Arrival ``i`` owns
      sequence number ``i``, exactly as if all arrivals had been pushed
      first onto an :class:`EventQueue`.
    * **Dynamic heap** — ADMIT / STEP_DONE / KV_TRANSFER / follow-up
      ARRIVAL events as primitive ``(time_s, seq, kind_code, payload)``
      tuples on a small ``heapq``. Sequence numbers continue
      monotonically after the arrival lane, so tuple comparison is
      decided by ``(time_s, seq)`` before ever reaching the payload —
      payloads (request objects, replica indices) ride along without
      needing comparability.
    * **Deferral lanes** — deferred re-ARRIVALs, one FIFO per backoff
      value (:meth:`push_arrival_after`).

    Ordering is bit-identical to an :class:`EventQueue` loaded with the
    same trace: time first, push order breaking ties, arrivals seeded in
    trace order before any dynamic event exists. The queue stays as the
    plain reference the calendar is fuzzed against.
    """

    def __init__(
        self, arrival_times: Sequence[float], payloads: Sequence[Any]
    ) -> None:
        times = np.ascontiguousarray(arrival_times, dtype=np.float64)
        if times.ndim != 1 or times.shape[0] != len(payloads):
            raise ConfigurationError(
                "arrival times and payloads must be parallel 1-D sequences"
            )
        if not np.isfinite(times).all():
            raise ConfigurationError("arrival times must be finite")
        if times.shape[0] and times[0] < 0:
            raise ConfigurationError("event time must be non-negative")
        if times.shape[0] > 1 and np.any(np.diff(times) < 0):
            raise ConfigurationError(
                "arrival times must be sorted non-decreasing"
            )
        self._arrival_times = times
        # tolist() up front: the hot pop path then reads native floats
        # instead of materializing one np.float64 per arrival.
        self._arrival_list: List[float] = times.tolist()
        self._payloads = list(payloads)
        self._cursor = 0
        self._heap: List[Tuple[float, int, int, Any]] = []
        # Deferral lanes: one FIFO per fixed backoff value. A deferred
        # re-arrival is scheduled at ``now + backoff`` with ``now``
        # nondecreasing and ``backoff`` constant per lane, so each lane's
        # ``(time, seq)`` entries are pushed already sorted — a deque
        # append/popleft replaces an O(log n) heap sift on both ends of
        # every deferral, the dominant event type in a deferral storm.
        self._defer_lanes: Dict[float, Deque[Tuple[float, int, Any]]] = {}
        self._lanes: List[Deque[Tuple[float, int, Any]]] = []
        self._lane_count = 0
        # Side heap of bare timestamps mirroring every dynamic push that
        # is *not* a STEP_DONE — the feed for
        # :meth:`peek_interaction_time`. Entries are discarded lazily
        # once the clock passes them (pops are monotone, so anything
        # strictly before ``now`` has already left the main heap).
        self._interaction_heap: List[float] = []
        self._seq = len(self._payloads)
        self.now = 0.0

    def __len__(self) -> int:
        return (
            (len(self._arrival_list) - self._cursor)
            + len(self._heap)
            + self._lane_count
        )

    @property
    def empty(self) -> bool:
        return (
            self._cursor >= len(self._arrival_list)
            and not self._heap
            and not self._lane_count
        )

    def push(self, time_s: float, kind_code: int, payload: Any = None) -> None:
        """Schedule a dynamic event at ``time_s`` (>= the current clock)."""
        if not time_s >= self.now:  # written so that NaN fails it too
            kind = KIND_OF_CODE.get(kind_code, kind_code)
            raise SimulationError(
                f"cannot schedule {kind} at {time_s:.6f}s: "
                f"clock already at {self.now:.6f}s"
            )
        heapq.heappush(self._heap, (time_s, self._seq, kind_code, payload))
        if kind_code != STEP_DONE_CODE:
            heapq.heappush(self._interaction_heap, time_s)
        self._seq += 1

    def push_arrival_after(self, delay: float, payload: Any = None) -> None:
        """Schedule a deferred re-``ARRIVAL`` at ``now + delay``.

        Routes the event through the per-backoff deferral lane instead of
        the heap. Sound because the lane's push order is its pop order:
        ``now`` only moves forward and ``delay`` names the lane, so each
        lane's ``(time, seq)`` entries are appended already sorted (the
        guard below fails loudly if a caller ever breaks that).
        """
        time_s = self.now + delay
        lane = self._defer_lanes.get(delay)
        if lane is None:
            # Checked once per lane; NaN never opens one, so it always
            # lands here.
            if not delay >= 0.0:
                raise SimulationError(
                    f"deferral backoff must be non-negative, got {delay!r}"
                )
            lane = self._defer_lanes[delay] = deque()
            self._lanes.append(lane)
        elif lane and time_s < lane[-1][0]:
            raise SimulationError(
                f"deferral lane {delay!r} would become unsorted at "
                f"{time_s:.6f}s"
            )
        lane.append((time_s, self._seq, payload))
        self._seq += 1
        self._lane_count += 1

    def pop(self) -> Tuple[float, int, Any]:
        """Earliest ``(time_s, kind_code, payload)``, advancing the clock.

        The static arrival at the cursor, the deferral lane heads, and
        the dynamic heap head race on ``(time_s, seq)`` — arrival
        sequence numbers are their trace indices, always below every
        dynamic sequence number, so an arrival wins any exact-timestamp
        tie against a dynamic event pushed later (identical to the
        event-queue discipline); lane entries and heap entries compare on
        their recorded ``(time, seq)`` exactly as if the lanes had been
        heap-pushed.
        """
        heap = self._heap
        if heap:
            head = heap[0]
            best_time = head[0]
            best_seq = head[1]
        else:
            best_time = None
            best_seq = 0
        best_lane = None
        if self._lane_count:
            for lane in self._lanes:
                if lane:
                    entry = lane[0]
                    entry_time = entry[0]
                    if (
                        best_time is None
                        or entry_time < best_time
                        or (entry_time == best_time and entry[1] < best_seq)
                    ):
                        best_time = entry_time
                        best_seq = entry[1]
                        best_lane = lane
        cursor = self._cursor
        arrivals = self._arrival_list
        if cursor < len(arrivals):
            arrival_time = arrivals[cursor]
            # Arrival sequence numbers (trace indices) are strictly below
            # every dynamic sequence number, so at an exact-timestamp tie
            # the arrival always wins — no need to compare seq.
            if best_time is None or arrival_time <= best_time:
                self._cursor = cursor + 1
                self.now = arrival_time
                return arrival_time, ARRIVAL_CODE, self._payloads[cursor]
        elif best_time is None:
            raise SimulationError("event calendar is empty")
        if best_lane is not None:
            entry = best_lane.popleft()
            self._lane_count -= 1
            self.now = entry[0]
            return entry[0], ARRIVAL_CODE, entry[2]
        time_s, _, kind_code, payload = heapq.heappop(heap)
        self.now = time_s
        return time_s, kind_code, payload

    def peek_time(self) -> Optional[float]:
        """Timestamp of the earliest pending event (``None`` when empty).

        Lets the simulator run a replica's consecutive steps inline while
        they all precede every other scheduled event — any event *at* the
        peeked timestamp would outrank a freshly pushed one (its sequence
        number is older), so inline execution is only safe strictly
        before this time.
        """
        heap = self._heap
        best = heap[0][0] if heap else None
        if self._lane_count:
            for lane in self._lanes:
                if lane:
                    entry_time = lane[0][0]
                    if best is None or entry_time < best:
                        best = entry_time
        cursor = self._cursor
        arrivals = self._arrival_list
        if cursor < len(arrivals):
            arrival_time = arrivals[cursor]
            if best is None or arrival_time <= best:
                return arrival_time
        return best

    def peek_interaction_time(self) -> Optional[float]:
        """Earliest pending event that is not a ``STEP_DONE`` (or None).

        The step-burst horizon of a vectorized colocated fleet on a
        sessionless trace (the scalar oracle, session traces and
        disaggregated fleets burst to :meth:`peek_time`): a replica's
        own step completions are invisible to every other actor (no
        probe, router, or admission controller runs between them), so a
        frozen replica may advance past *foreign* ``STEP_DONE`` events —
        but never past the next event that observes or mutates shared
        fleet state: an arrival (static lane, deferral lane, or dynamic
        re-push), an ``ADMIT`` poke, or a ``KV_TRANSFER`` handoff.
        Dynamic pushes are mirrored into a side heap of bare
        timestamps, cleaned lazily as the clock passes them; an entry
        *at* ``now`` may already have popped, which only makes the
        horizon conservative (never unsound).
        """
        aux = self._interaction_heap
        now = self.now
        while aux and aux[0] < now:
            heapq.heappop(aux)
        best = aux[0] if aux else None
        if self._lane_count:
            for lane in self._lanes:
                if lane:
                    entry_time = lane[0][0]
                    if best is None or entry_time < best:
                        best = entry_time
        cursor = self._cursor
        arrivals = self._arrival_list
        if cursor < len(arrivals):
            arrival_time = arrivals[cursor]
            if best is None or arrival_time < best:
                best = arrival_time
        return best

    def next_is_arrival(self) -> bool:
        """Whether the next :meth:`pop` would return an ``ARRIVAL``.

        Uses the exact :meth:`pop` ordering: a static arrival wins any
        exact-timestamp tie against the earliest dynamic event;
        deferral-lane entries are always arrivals; otherwise the heap
        head's kind code decides.

        Like :meth:`peek_arrival_run`, :meth:`arrival_run_payloads`,
        :meth:`upcoming_arrivals` and :meth:`pop_arrival`, no event loop
        calls it (the cluster loop pops one event at a time); these stay
        while ``perfbench/tracer.py`` wraps them by name.
        """
        heap = self._heap
        if heap:
            head = heap[0]
            best_time = head[0]
            best_seq = head[1]
        else:
            best_time = None
            best_seq = 0
        lane_best = False
        if self._lane_count:
            for lane in self._lanes:
                if lane:
                    entry = lane[0]
                    entry_time = entry[0]
                    if (
                        best_time is None
                        or entry_time < best_time
                        or (entry_time == best_time and entry[1] < best_seq)
                    ):
                        best_time = entry_time
                        best_seq = entry[1]
                        lane_best = True
        cursor = self._cursor
        arrivals = self._arrival_list
        if cursor < len(arrivals):
            if best_time is None or arrivals[cursor] <= best_time:
                return True
        if lane_best:
            return True
        if heap:
            return heap[0][2] == ARRIVAL_CODE
        return False

    def peek_arrival_run(self, limit: int) -> int:
        """Length of the static arrival lane's pending run (capped).

        Counts the consecutive presorted arrivals from the cursor that
        would all pop before the dynamic heap's head — static arrivals
        win exact-timestamp ties, so the boundary is ``time <= head`` —
        up to ``limit`` (bounding the scan so a huge all-arrival stretch
        never costs O(trace) per peek). Deferral-lane re-arrivals are
        *not* counted: they are arrivals too, so they never end a run —
        use :meth:`upcoming_arrivals` to see them.
        """
        cursor = self._cursor
        times = self._arrival_times
        n = times.shape[0]
        if cursor >= n:
            return 0
        hi = min(n, cursor + limit)
        heap = self._heap
        if not heap:
            return hi - cursor
        return int(
            np.searchsorted(times[cursor:hi], heap[0][0], side="right")
        )

    def arrival_run_payloads(self, count: int) -> List[Any]:
        """The next ``count`` static-lane payloads, without consuming them."""
        cursor = self._cursor
        return self._payloads[cursor : cursor + count]

    def upcoming_arrivals(self, limit: int) -> List[Any]:
        """Payloads of arrivals expected to pop soon, without consuming.

        Up to ``limit`` payloads from the presorted static lane plus up
        to ``limit`` from each deferral lane, in no particular order.
        This is a *prediction* feed, not a pop contract: other events
        may interleave before any of these arrive, so callers must key
        whatever they precompute on state that such interleaving
        invalidates (the fleet version).
        """
        cursor = self._cursor
        payloads = self._payloads[cursor : cursor + limit]
        if self._lane_count:
            for lane in self._lanes:
                if lane:
                    payloads.extend(
                        entry[2] for entry in islice(lane, 0, limit)
                    )
        return payloads

    def pop_arrival(self) -> Optional[Tuple[float, Any]]:
        """Pop the next event *iff* it is an ``ARRIVAL``.

        Returns ``(time_s, payload)`` — advancing the clock — when the
        earliest pending event is an arrival (static lane, deferral
        lane, or a heap-scheduled re-arrival), and ``None`` without
        popping otherwise (including when the calendar is empty). Fuses
        :meth:`next_is_arrival` + :meth:`pop` into one head race; the
        ordering rules are exactly :meth:`pop`'s.
        """
        heap = self._heap
        if heap:
            head = heap[0]
            best_time = head[0]
            best_seq = head[1]
        else:
            best_time = None
            best_seq = 0
        best_lane = None
        if self._lane_count:
            for lane in self._lanes:
                if lane:
                    entry = lane[0]
                    entry_time = entry[0]
                    if (
                        best_time is None
                        or entry_time < best_time
                        or (entry_time == best_time and entry[1] < best_seq)
                    ):
                        best_time = entry_time
                        best_seq = entry[1]
                        best_lane = lane
        cursor = self._cursor
        arrivals = self._arrival_list
        if cursor < len(arrivals):
            arrival_time = arrivals[cursor]
            if best_time is None or arrival_time <= best_time:
                self._cursor = cursor + 1
                self.now = arrival_time
                return arrival_time, self._payloads[cursor]
        if best_lane is not None:
            entry = best_lane.popleft()
            self._lane_count -= 1
            self.now = entry[0]
            return entry[0], entry[2]
        if heap and heap[0][2] == ARRIVAL_CODE:
            time_s, _, _, payload = heapq.heappop(heap)
            self.now = time_s
            return time_s, payload
        return None
