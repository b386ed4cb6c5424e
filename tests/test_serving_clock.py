"""Tests for the discrete-event clock, queue, and flat event calendar."""

import random

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.serving.clock import (
    ADMIT_CODE,
    ARRIVAL_CODE,
    KIND_OF_CODE,
    KV_TRANSFER_CODE,
    STEP_DONE_CODE,
    Event,
    EventCalendar,
    EventKind,
    EventQueue,
)


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push(2.0, EventKind.STEP_DONE, "late")
        queue.push(0.5, EventKind.ARRIVAL, "early")
        queue.push(1.0, EventKind.ADMIT, "middle")
        order = [queue.pop().payload for _ in range(3)]
        assert order == ["early", "middle", "late"]

    def test_clock_advances_on_pop(self):
        queue = EventQueue()
        assert queue.now == 0.0
        queue.push(1.5, EventKind.ARRIVAL)
        queue.push(3.0, EventKind.STEP_DONE)
        queue.pop()
        assert queue.now == 1.5
        queue.pop()
        assert queue.now == 3.0

    def test_equal_timestamps_pop_in_push_order(self):
        queue = EventQueue()
        for index in range(5):
            queue.push(1.0, EventKind.ARRIVAL, index)
        assert [queue.pop().payload for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_mixed_kind_tie_break_is_push_order(self):
        """Same-timestamp ARRIVAL/ADMIT/STEP_DONE order is pinned.

        The cluster simulator's determinism — and therefore the scalar/
        vectorized equivalence contract — relies on ties breaking by push
        order regardless of event kind: an ADMIT scheduled "now" must not
        overtake a STEP_DONE pushed earlier at the same instant, and
        kinds must never reorder among themselves.
        """
        queue = EventQueue()
        queue.push(1.0, EventKind.STEP_DONE, "step-first")
        queue.push(1.0, EventKind.ARRIVAL, "arrival-second")
        queue.push(1.0, EventKind.ADMIT, "admit-third")
        queue.push(1.0, EventKind.ARRIVAL, "arrival-fourth")
        order = [queue.pop().payload for _ in range(4)]
        assert order == [
            "step-first", "arrival-second", "admit-third", "arrival-fourth"
        ]

    def test_tie_break_survives_interleaved_pushes_mid_drain(self):
        """Push order keeps ruling ties across pop/push interleavings.

        Mirrors the cluster's arrival pattern: trace arrivals enqueued up
        front, ADMITs scheduled at the same timestamp while draining. An
        ADMIT pushed after arrival B must pop after B even though it was
        scheduled while A (same timestamp) was being handled.
        """
        queue = EventQueue()
        queue.push(1.0, EventKind.ARRIVAL, "A")
        queue.push(1.0, EventKind.ARRIVAL, "B")
        assert queue.pop().payload == "A"
        queue.push(1.0, EventKind.ADMIT, "admit-for-A")
        assert queue.pop().payload == "B"
        queue.push(1.0, EventKind.ADMIT, "admit-for-B")
        assert queue.pop().payload == "admit-for-A"
        assert queue.pop().payload == "admit-for-B"

    def test_push_into_past_rejected(self):
        queue = EventQueue()
        queue.push(2.0, EventKind.ARRIVAL)
        queue.pop()
        with pytest.raises(SimulationError):
            queue.push(1.0, EventKind.ADMIT)

    def test_push_at_now_allowed(self):
        queue = EventQueue()
        queue.push(2.0, EventKind.ARRIVAL)
        queue.pop()
        event = queue.push(2.0, EventKind.ADMIT)
        assert event.time_s == 2.0

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            EventQueue().push(-1.0, EventKind.ARRIVAL)

    def test_pop_empty_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_peek_and_len(self):
        queue = EventQueue()
        assert queue.empty
        assert queue.peek() is None
        queue.push(1.0, EventKind.ARRIVAL, "x")
        assert len(queue) == 1
        assert queue.peek().payload == "x"
        assert queue.now == 0.0  # peek does not advance the clock


class TestEventOrdering:
    """The slots-based Event keeps the frozen-dataclass ordering pins."""

    def test_orders_by_time_then_seq(self):
        assert Event(1.0, 0, EventKind.ARRIVAL) < Event(2.0, 0, EventKind.ADMIT)
        assert Event(1.0, 0, EventKind.STEP_DONE) < Event(1.0, 1, EventKind.ARRIVAL)
        assert not Event(1.0, 1, EventKind.ARRIVAL) < Event(1.0, 0, EventKind.ARRIVAL)

    def test_kind_and_payload_never_participate(self):
        a = Event(1.0, 0, EventKind.ARRIVAL, payload=object())
        b = Event(1.0, 0, EventKind.STEP_DONE, payload=object())
        assert a == b
        assert not a < b and not b < a
        assert hash(a) == hash(b)

    def test_equality_against_non_events(self):
        assert Event(1.0, 0, EventKind.ARRIVAL) != (1.0, 0)


class TestEventCalendar:
    def test_arrival_lane_pops_in_trace_order(self):
        calendar = EventCalendar([0.5, 1.0, 2.0], ["a", "b", "c"])
        assert len(calendar) == 3
        assert [calendar.pop() for _ in range(3)] == [
            (0.5, ARRIVAL_CODE, "a"),
            (1.0, ARRIVAL_CODE, "b"),
            (2.0, ARRIVAL_CODE, "c"),
        ]
        assert calendar.empty
        assert calendar.now == 2.0

    def test_dynamic_events_interleave_with_arrivals(self):
        calendar = EventCalendar([0.0, 1.0, 3.0], ["a", "b", "c"])
        assert calendar.pop()[2] == "a"
        calendar.push(2.0, STEP_DONE_CODE, "step")
        calendar.push(0.5, ADMIT_CODE, "admit")
        order = [calendar.pop()[2] for _ in range(4)]
        assert order == ["admit", "b", "step", "c"]

    def test_arrival_wins_exact_timestamp_tie(self):
        """A trace arrival was (logically) pushed before any dynamic
        event — identical to the EventQueue's push-order discipline."""
        calendar = EventCalendar([1.0, 2.0], ["a", "b"])
        assert calendar.pop()[2] == "a"
        calendar.push(2.0, ADMIT_CODE, "admit-at-2")
        assert calendar.pop()[2] == "b"
        assert calendar.pop()[2] == "admit-at-2"

    def test_dynamic_ties_break_in_push_order(self):
        calendar = EventCalendar([], [])
        calendar.push(1.0, STEP_DONE_CODE, "first")
        calendar.push(1.0, ARRIVAL_CODE, "second")
        calendar.push(1.0, ADMIT_CODE, "third")
        assert [calendar.pop()[2] for _ in range(3)] == [
            "first", "second", "third"
        ]

    def test_deferred_rearrival_rides_the_heap(self):
        calendar = EventCalendar([0.0, 1.0], ["a", "b"])
        assert calendar.pop()[2] == "a"
        calendar.push(1.0, ARRIVAL_CODE, "a-retry")
        # The static arrival at the same instant still pops first.
        assert calendar.pop() == (1.0, ARRIVAL_CODE, "b")
        assert calendar.pop() == (1.0, ARRIVAL_CODE, "a-retry")

    def test_matches_event_queue_ordering(self):
        """Property pin: calendar and queue drain identically for the
        same trace plus the same dynamically scheduled events."""
        arrivals = [0.0, 0.5, 0.5, 1.0, 2.5]
        payloads = [f"r{i}" for i in range(len(arrivals))]
        queue = EventQueue()
        for time_s, payload in zip(arrivals, payloads):
            queue.push(time_s, EventKind.ARRIVAL, payload)
        calendar = EventCalendar(arrivals, payloads)
        dynamic = iter(
            [(0.5, ADMIT_CODE, "admit"), (1.0, STEP_DONE_CODE, "step"),
             (2.5, ARRIVAL_CODE, "retry")]
        )
        queue_order = []
        calendar_order = []
        while not queue.empty:
            event = queue.pop()
            queue_order.append((event.time_s, event.payload))
            item = next(dynamic, None)
            if item is not None:
                queue.push(item[0], EventKind.ARRIVAL, item[2])
        dynamic = iter(
            [(0.5, ADMIT_CODE, "admit"), (1.0, STEP_DONE_CODE, "step"),
             (2.5, ARRIVAL_CODE, "retry")]
        )
        while not calendar.empty:
            time_s, _, payload = calendar.pop()
            calendar_order.append((time_s, payload))
            item = next(dynamic, None)
            if item is not None:
                calendar.push(item[0], item[1], item[2])
        assert calendar_order == queue_order

    def test_kv_transfer_code_maps_to_kind(self):
        assert KIND_OF_CODE[KV_TRANSFER_CODE] is EventKind.KV_TRANSFER

    def test_kv_transfer_tie_breaks_by_push_order(self):
        """Same-timestamp KV_TRANSFER/ADMIT/STEP_DONE order is pinned.

        Disaggregated routing relies on it: a prefill batch's handoffs
        are pushed before the step that frees the next batch, so at an
        exact-time collision the decode pool must see the transfers in
        emission order, never reordered around the STEP_DONE.
        """
        calendar = EventCalendar([], [])
        calendar.push(1.0, KV_TRANSFER_CODE, "xfer-first")
        calendar.push(1.0, STEP_DONE_CODE, "step-second")
        calendar.push(1.0, KV_TRANSFER_CODE, "xfer-third")
        calendar.push(1.0, ADMIT_CODE, "admit-fourth")
        assert [calendar.pop()[2] for _ in range(4)] == [
            "xfer-first", "step-second", "xfer-third", "admit-fourth"
        ]

    def test_arrival_wins_tie_against_kv_transfer(self):
        """Trace arrivals were (logically) pushed at setup, before any
        handoff existed — the arrival lane outranks exact-time transfers
        just as it outranks ADMIT/STEP_DONE."""
        calendar = EventCalendar([1.0, 2.0], ["a", "b"])
        assert calendar.pop()[2] == "a"
        calendar.push(2.0, KV_TRANSFER_CODE, "xfer-at-2")
        assert calendar.pop() == (2.0, ARRIVAL_CODE, "b")
        assert calendar.pop() == (2.0, KV_TRANSFER_CODE, "xfer-at-2")

    def test_kv_transfer_tie_break_survives_mid_drain_pushes(self):
        """Push order keeps ruling transfer ties across pop/push
        interleavings — the disaggregated loop's actual shape, where each
        popped STEP_DONE emits same-time transfers while draining."""
        calendar = EventCalendar([], [])
        calendar.push(1.0, STEP_DONE_CODE, "step-A")
        calendar.push(1.0, STEP_DONE_CODE, "step-B")
        assert calendar.pop()[2] == "step-A"
        calendar.push(1.0, KV_TRANSFER_CODE, "xfer-from-A")
        assert calendar.pop()[2] == "step-B"
        calendar.push(1.0, KV_TRANSFER_CODE, "xfer-from-B")
        assert calendar.pop()[2] == "xfer-from-A"
        assert calendar.pop()[2] == "xfer-from-B"

    def test_kv_transfer_matches_event_queue_ordering(self):
        """Property pin: calendar and queue drain identically when the
        dynamic schedule includes KV_TRANSFER events."""
        arrivals = [0.0, 0.5, 1.0, 1.0, 2.0]
        payloads = [f"r{i}" for i in range(len(arrivals))]
        schedule = [
            (0.5, KV_TRANSFER_CODE, EventKind.KV_TRANSFER, "xfer-1"),
            (1.0, STEP_DONE_CODE, EventKind.STEP_DONE, "step"),
            (1.0, KV_TRANSFER_CODE, EventKind.KV_TRANSFER, "xfer-2"),
            (2.0, ADMIT_CODE, EventKind.ADMIT, "admit"),
        ]
        queue = EventQueue()
        for time_s, payload in zip(arrivals, payloads):
            queue.push(time_s, EventKind.ARRIVAL, payload)
        queue_order = []
        dynamic = iter(schedule)
        while not queue.empty:
            event = queue.pop()
            queue_order.append((event.time_s, event.payload))
            item = next(dynamic, None)
            if item is not None:
                queue.push(item[0], item[2], item[3])
        calendar = EventCalendar(arrivals, payloads)
        calendar_order = []
        dynamic = iter(schedule)
        while not calendar.empty:
            time_s, _, payload = calendar.pop()
            calendar_order.append((time_s, payload))
            item = next(dynamic, None)
            if item is not None:
                calendar.push(item[0], item[1], item[3])
        assert calendar_order == queue_order

    def test_push_into_past_rejected(self):
        calendar = EventCalendar([2.0], ["a"])
        calendar.pop()
        with pytest.raises(SimulationError):
            calendar.push(1.0, ADMIT_CODE, "late")

    def test_unsorted_arrivals_rejected(self):
        with pytest.raises(ConfigurationError):
            EventCalendar([1.0, 0.5], ["a", "b"])

    def test_mismatched_lanes_rejected(self):
        with pytest.raises(ConfigurationError):
            EventCalendar([1.0, 2.0], ["a"])

    def test_negative_first_arrival_rejected(self):
        with pytest.raises(ConfigurationError):
            EventCalendar([-1.0], ["a"])

    def test_pop_empty_rejected(self):
        with pytest.raises(SimulationError):
            EventCalendar([], []).pop()

    @pytest.mark.parametrize(
        "arrivals",
        [[0.0, float("nan"), 1.0], [0.0, 1.0, float("inf")], [float("nan")]],
    )
    def test_non_finite_arrival_rejected(self, arrivals):
        """NaN slips past the sortedness check (``np.diff < 0`` is False
        for it), so finiteness is checked on its own."""
        with pytest.raises(ConfigurationError, match="finite"):
            EventCalendar(arrivals, ["a"] * len(arrivals))

    def test_nan_push_rejected(self):
        calendar = EventCalendar([1.0], ["a"])
        calendar.pop()
        with pytest.raises(SimulationError):
            calendar.push(float("nan"), ADMIT_CODE, "never")
        assert calendar.empty

    def test_nan_deferral_rejected(self):
        calendar = EventCalendar([1.0], ["a"])
        calendar.pop()
        with pytest.raises(SimulationError, match="backoff"):
            calendar.push_arrival_after(float("nan"), "never")
        assert calendar.empty


CODE_OF_KIND = {kind: code for code, kind in KIND_OF_CODE.items()}


class TestCalendarMatchesEventQueue:
    """Seeded differential fuzz of the calendar against the reference.

    Both cluster cores run on the calendar, so cross-core equivalence no
    longer checks it independently. Here an :class:`EventQueue` and an
    :class:`EventCalendar` take the same random operations — dynamic
    pushes of all four kinds, deferrals on two or three backoff lanes,
    pops and arrival-only pops — on a coarse time grid that makes
    exact-timestamp ties common, and every observable is compared after
    each one.
    """

    @pytest.mark.parametrize("seed", range(16))
    def test_same_operations_same_timeline(self, seed):
        rng = random.Random(seed)
        arrivals = sorted(
            rng.randrange(40) * 0.25 for _ in range(rng.randrange(30))
        )
        payloads = [f"trace-{i}" for i in range(len(arrivals))]
        queue = EventQueue()
        for time_s, payload in zip(arrivals, payloads):
            queue.push(time_s, EventKind.ARRIVAL, payload)
        calendar = EventCalendar(arrivals, payloads)
        backoffs = rng.sample([0.25, 0.5, 0.75, 1.5], rng.choice([2, 3]))
        # Pending events other than STEP_DONE, by payload: the reference
        # for the interaction horizon.
        interactions = dict(zip(payloads, arrivals))
        for op in range(300):
            roll = rng.random()
            if roll < 0.3:
                code, kind = rng.choice(list(KIND_OF_CODE.items()))
                time_s = queue.now + rng.randrange(8) * 0.25
                payload = f"push-{op}"
                queue.push(time_s, kind, payload)
                calendar.push(time_s, code, payload)
                if code != STEP_DONE_CODE:
                    interactions[payload] = time_s
            elif roll < 0.5:
                backoff = rng.choice(backoffs)
                payload = f"defer-{op}"
                queue.push(queue.now + backoff, EventKind.ARRIVAL, payload)
                calendar.push_arrival_after(backoff, payload)
                interactions[payload] = queue.now + backoff
            elif roll < 0.75:
                if queue.empty:
                    with pytest.raises(SimulationError):
                        calendar.pop()
                    continue
                event = queue.pop()
                assert calendar.pop() == (
                    event.time_s, CODE_OF_KIND[event.kind], event.payload
                )
                interactions.pop(event.payload, None)
            else:
                head = queue.peek()
                popped = calendar.pop_arrival()
                if head is None or head.kind is not EventKind.ARRIVAL:
                    assert popped is None
                else:
                    event = queue.pop()
                    assert popped == (event.time_s, event.payload)
                    del interactions[event.payload]
            assert calendar.now == queue.now
            assert len(calendar) == len(queue)
            assert calendar.empty == queue.empty
            head = queue.peek()
            assert calendar.peek_time() == (
                None if head is None else head.time_s
            )
            earliest = min(interactions.values(), default=None)
            horizon = calendar.peek_interaction_time()
            if horizon is None:
                assert earliest is None
            elif earliest is None or horizon < earliest:
                # A popped entry at the current instant may linger in
                # the side heap: conservative, never later.
                assert horizon == calendar.now
            else:
                assert horizon == earliest
        while not queue.empty:
            event = queue.pop()
            assert calendar.pop() == (
                event.time_s, CODE_OF_KIND[event.kind], event.payload
            )
        assert calendar.empty
