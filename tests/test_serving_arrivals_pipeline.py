"""Tests for arrival processes, dynamic batch formation, and sub-batch
pipelined execution."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.models.config import get_model
from repro.models.workload import build_decode_step
from repro.serving.arrivals import (
    FormedBatch,
    bursty_arrivals,
    diurnal_arrivals,
    form_dynamic_batches,
    poisson_arrivals,
)
from repro.serving.request import Request
from repro.systems.baselines import A100AttAccSystem
from repro.systems.papi import PIMOnlyPAPISystem


def make_requests(count):
    return [Request(request_id=i, input_len=8, output_len=8) for i in range(count)]


class TestPoissonArrivals:
    def test_arrival_times_increase(self):
        requests = poisson_arrivals(make_requests(50), rate_per_s=10.0, seed=1)
        times = [r.arrival_s for r in requests]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_mean_gap_near_inverse_rate(self):
        requests = poisson_arrivals(make_requests(5000), rate_per_s=20.0, seed=2)
        mean_gap = requests[-1].arrival_s / len(requests)
        assert mean_gap == pytest.approx(1 / 20.0, rel=0.1)

    def test_deterministic_given_seed(self):
        a = poisson_arrivals(make_requests(10), 5.0, seed=3)
        b = poisson_arrivals(make_requests(10), 5.0, seed=3)
        assert [r.arrival_s for r in a] == [r.arrival_s for r in b]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            poisson_arrivals(make_requests(2), 0.0)
        with pytest.raises(ConfigurationError):
            poisson_arrivals([], 1.0)

    def test_returns_new_list_of_same_objects(self):
        """Contract: stamps in place, returns a fresh list container."""
        originals = make_requests(5)
        stamped = poisson_arrivals(originals, 4.0, seed=7)
        assert stamped is not originals
        assert all(a is b for a, b in zip(stamped, originals))
        assert all(r.arrival_s > 0 for r in originals)

    def test_given_order_is_arrival_order(self):
        """Gaps are strictly positive, so the input order is already
        sorted by arrival — the docstring's 'sorted' claim made explicit."""
        requests = poisson_arrivals(make_requests(100), 50.0, seed=8)
        assert requests == sorted(requests, key=lambda r: r.arrival_s)

    def test_rejects_already_stamped_requests(self):
        requests = poisson_arrivals(make_requests(4), 2.0, seed=9)
        with pytest.raises(ConfigurationError):
            poisson_arrivals(requests, 2.0, seed=9)
        partly = make_requests(3)
        partly[1].arrival_s = 0.5
        with pytest.raises(ConfigurationError):
            poisson_arrivals(partly, 2.0)

    def test_rejects_stamped_trace_even_at_time_zero(self):
        """The explicit flag closes the old sentinel hole: a trace
        legitimately stamped at ``arrival_s == 0.0`` used to look
        unstamped to the ``arrival_s != 0.0`` check and was silently
        re-stamped."""
        requests = make_requests(3)
        for request in requests:
            request.arrival_stamped = True  # stamped, all at 0.0
        with pytest.raises(ConfigurationError):
            poisson_arrivals(requests, 2.0)

    def test_stamping_sets_the_flag(self):
        requests = make_requests(4)
        assert not any(r.arrival_stamped for r in requests)
        poisson_arrivals(requests, 2.0, seed=1)
        assert all(r.arrival_stamped for r in requests)


class TestBurstyArrivals:
    def test_arrival_times_strictly_increase(self):
        requests = bursty_arrivals(
            make_requests(200), rate_per_s=20.0, burst_size=8.0, seed=1
        )
        times = [r.arrival_s for r in requests]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_long_run_rate_preserved(self):
        """Burst epochs are rarer by 1/burst_size but carry burst_size
        members on average — the request rate stays ``rate_per_s``."""
        requests = bursty_arrivals(
            make_requests(5000), rate_per_s=25.0, burst_size=10.0, seed=2
        )
        mean_gap = requests[-1].arrival_s / len(requests)
        assert mean_gap == pytest.approx(1 / 25.0, rel=0.15)

    def test_gaps_burstier_than_poisson(self):
        """The squared coefficient of variation of inter-arrival gaps
        exceeds the Poisson baseline of 1 — the clumping is real."""
        requests = bursty_arrivals(
            make_requests(4000), rate_per_s=10.0, burst_size=8.0, seed=3
        )
        times = [r.arrival_s for r in requests]
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        assert var / mean**2 > 2.0

    def test_deterministic_given_seed(self):
        a = bursty_arrivals(make_requests(50), 10.0, 4.0, seed=4)
        b = bursty_arrivals(make_requests(50), 10.0, 4.0, seed=4)
        assert [r.arrival_s for r in a] == [r.arrival_s for r in b]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            bursty_arrivals(make_requests(2), 0.0, 4.0)
        with pytest.raises(ConfigurationError):
            bursty_arrivals(make_requests(2), 1.0, 0.5)
        with pytest.raises(ConfigurationError):
            bursty_arrivals(make_requests(2), 1.0, 4.0, spacing_s=0.0)
        stamped = bursty_arrivals(make_requests(2), 1.0, 4.0, seed=5)
        with pytest.raises(ConfigurationError):
            bursty_arrivals(stamped, 1.0, 4.0, seed=5)


class TestDiurnalArrivals:
    def test_arrival_times_strictly_increase(self):
        requests = diurnal_arrivals(
            make_requests(200), rate_per_s=20.0, period_s=10.0,
            peak_to_trough=4.0, seed=1,
        )
        times = [r.arrival_s for r in requests]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_ratio_one_degenerates_to_poisson(self):
        plain = poisson_arrivals(make_requests(100), 10.0, seed=2)
        flat = diurnal_arrivals(
            make_requests(100), rate_per_s=10.0, period_s=60.0,
            peak_to_trough=1.0, seed=2,
        )
        assert [r.arrival_s for r in flat] == [r.arrival_s for r in plain]

    def test_peak_phase_denser_than_trough_phase(self):
        """More arrivals land in the rate peak's half-period than the
        trough's (the sinusoid's first half-period is the peak)."""
        period = 40.0
        requests = diurnal_arrivals(
            make_requests(4000), rate_per_s=50.0, period_s=period,
            peak_to_trough=6.0, seed=3,
        )
        peak = sum(
            1 for r in requests if (r.arrival_s % period) < period / 2
        )
        trough = len(requests) - peak
        assert peak > 1.5 * trough

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            diurnal_arrivals(make_requests(2), 0.0, 60.0, 4.0)
        with pytest.raises(ConfigurationError):
            diurnal_arrivals(make_requests(2), 1.0, 0.0, 4.0)
        with pytest.raises(ConfigurationError):
            diurnal_arrivals(make_requests(2), 1.0, 60.0, 0.5)
        stamped = diurnal_arrivals(make_requests(2), 1.0, 60.0, 4.0, seed=5)
        with pytest.raises(ConfigurationError):
            diurnal_arrivals(stamped, 1.0, 60.0, 4.0, seed=5)


@pytest.mark.parametrize(
    "stamp, shape",
    [
        (poisson_arrivals, {}),
        (bursty_arrivals, {"burst_size": 3.0}),
        (diurnal_arrivals, {"period_s": 60.0, "peak_to_trough": 2.0}),
    ],
)
def test_negative_seed_rejected_by_name(stamp, shape):
    """numpy's generator would raise a bare ValueError; the helpers name
    the argument and stamp nothing."""
    requests = make_requests(4)
    with pytest.raises(ConfigurationError, match="seed must be non-negative"):
        stamp(requests, 10.0, seed=-1, **shape)
    assert not any(r.arrival_stamped for r in requests)


class TestDynamicBatching:
    def test_dense_arrivals_fill_batches(self):
        """Section 3.2c: frequent arrivals launch full batches."""
        requests = poisson_arrivals(make_requests(64), rate_per_s=1000.0, seed=4)
        batches = form_dynamic_batches(requests, max_batch_size=16, timeout_s=1.0)
        assert all(b.triggered_by == "full" for b in batches[:-1])
        assert batches[0].initial_rlp == 16

    def test_sparse_arrivals_time_out_with_small_batches(self):
        """Infrequent requests => timeout launches => varying initial RLP."""
        requests = poisson_arrivals(make_requests(30), rate_per_s=2.0, seed=5)
        batches = form_dynamic_batches(requests, max_batch_size=16,
                                       timeout_s=0.5)
        assert any(b.triggered_by == "timeout" for b in batches)
        sizes = {b.initial_rlp for b in batches}
        assert len(sizes) > 1  # the RLP variation PAPI schedules against

    def test_every_request_appears_once(self):
        requests = poisson_arrivals(make_requests(40), rate_per_s=8.0, seed=6)
        batches = form_dynamic_batches(requests, max_batch_size=8, timeout_s=0.7)
        seen = [r.request_id for b in batches for r in b.requests]
        assert sorted(seen) == list(range(40))

    def test_batch_sizes_respect_cap(self):
        requests = poisson_arrivals(make_requests(100), rate_per_s=500.0, seed=7)
        batches = form_dynamic_batches(requests, max_batch_size=8, timeout_s=1.0)
        assert all(b.initial_rlp <= 8 for b in batches)

    @settings(max_examples=15, deadline=None)
    @given(
        count=st.integers(1, 60),
        rate=st.floats(0.5, 200.0),
        cap=st.integers(1, 32),
    )
    def test_formation_is_a_partition(self, count, rate, cap):
        requests = poisson_arrivals(make_requests(count), rate, seed=8)
        batches = form_dynamic_batches(requests, max_batch_size=cap,
                                       timeout_s=0.25)
        seen = [r.request_id for b in batches for r in b.requests]
        assert sorted(seen) == list(range(count))
        assert all(1 <= b.initial_rlp <= cap for b in batches)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            form_dynamic_batches(make_requests(2), 0, 1.0)
        with pytest.raises(ConfigurationError):
            form_dynamic_batches(make_requests(2), 2, 0.0)
        with pytest.raises(ConfigurationError):
            form_dynamic_batches([], 2, 1.0)

    @staticmethod
    def _stamped(times):
        requests = make_requests(len(times))
        for request, time_s in zip(requests, times):
            request.arrival_s = time_s
            request.arrival_stamped = True
        return requests

    def test_arrival_exactly_at_deadline_joins_open_batch(self):
        """Pinned boundary: the timeout check is strict (``>``), so an
        arrival landing exactly at ``open + timeout_s`` is a member, not
        the opener of the next batch."""
        requests = self._stamped([0.0, 1.0])
        batches = form_dynamic_batches(requests, max_batch_size=8,
                                       timeout_s=1.0)
        assert len(batches) == 1
        assert batches[0].initial_rlp == 2
        assert batches[0].triggered_by == "timeout"

    def test_arrival_just_past_deadline_opens_next_batch(self):
        requests = self._stamped([0.0, 1.0 + 1e-9])
        batches = form_dynamic_batches(requests, max_batch_size=8,
                                       timeout_s=1.0)
        assert [b.initial_rlp for b in batches] == [1, 1]
        assert batches[0].triggered_by == "timeout"
        assert batches[0].start_s == pytest.approx(1.0)

    def test_timeout_batch_launches_at_deadline_not_closing_arrival(self):
        """The timed-out batch's ``start_s`` is the deadline it hit, not
        the later arrival that revealed the timeout."""
        requests = self._stamped([0.0, 0.2, 5.0])
        batches = form_dynamic_batches(requests, max_batch_size=8,
                                       timeout_s=0.5)
        assert batches[0].start_s == pytest.approx(0.5)
        assert batches[0].initial_rlp == 2
        assert batches[1].requests[0].arrival_s == pytest.approx(5.0)

    def test_deadline_member_then_full_launch(self):
        """A deadline-boundary member can still complete a full batch,
        which launches immediately at its arrival."""
        requests = self._stamped([0.0, 1.0])
        batches = form_dynamic_batches(requests, max_batch_size=2,
                                       timeout_s=1.0)
        assert len(batches) == 1
        assert batches[0].triggered_by == "full"
        assert batches[0].start_s == pytest.approx(1.0)


NAN = float("nan")
INF = float("inf")


class TestNonFiniteArguments:
    @pytest.mark.parametrize(
        "call,argument",
        [
            pytest.param(
                lambda r: poisson_arrivals(r, rate_per_s=NAN),
                "rate_per_s", id="poisson-rate-nan",
            ),
            pytest.param(
                lambda r: poisson_arrivals(r, rate_per_s=INF),
                "rate_per_s", id="poisson-rate-inf",
            ),
            pytest.param(
                lambda r: bursty_arrivals(r, rate_per_s=NAN, burst_size=2),
                "rate_per_s", id="bursty-rate-nan",
            ),
            pytest.param(
                lambda r: bursty_arrivals(r, rate_per_s=5.0, burst_size=INF),
                "burst_size", id="bursty-size-inf",
            ),
            pytest.param(
                lambda r: bursty_arrivals(
                    r, rate_per_s=5.0, burst_size=2, spacing_s=NAN
                ),
                "spacing_s", id="bursty-spacing-nan",
            ),
            pytest.param(
                lambda r: diurnal_arrivals(
                    r, rate_per_s=INF, period_s=10.0, peak_to_trough=2.0
                ),
                "rate_per_s", id="diurnal-rate-inf",
            ),
            pytest.param(
                lambda r: diurnal_arrivals(
                    r, rate_per_s=5.0, period_s=NAN, peak_to_trough=2.0
                ),
                "period_s", id="diurnal-period-nan",
            ),
            pytest.param(
                lambda r: diurnal_arrivals(
                    r, rate_per_s=5.0, period_s=10.0, peak_to_trough=INF
                ),
                "peak_to_trough", id="diurnal-ratio-inf",
            ),
            pytest.param(
                lambda r: form_dynamic_batches(
                    poisson_arrivals(r, rate_per_s=5.0), 2, timeout_s=NAN
                ),
                "timeout_s", id="batches-timeout-nan",
            ),
            pytest.param(
                lambda r: form_dynamic_batches(
                    poisson_arrivals(r, rate_per_s=5.0), 2, timeout_s=INF
                ),
                "timeout_s", id="batches-timeout-inf",
            ),
        ],
    )
    def test_rejected_naming_the_argument(self, call, argument):
        """``x <= 0`` is False for NaN: without a finiteness check a NaN
        rate stamps every arrival NaN and an infinite one stamps 0.0."""
        with pytest.raises(
            ConfigurationError, match=f"{argument} must be finite"
        ):
            call(make_requests(4))


class TestPipelinedExecution:
    @pytest.fixture
    def step(self):
        return build_decode_step(get_model("llama-65b"), rlp=16, tlp=2,
                                 mean_context_len=1024)

    def test_breakdown_still_sums(self, step):
        system = PIMOnlyPAPISystem()
        system.pipeline_chunks = 4
        result = system.execute_step(step)
        assert sum(result.time_breakdown.values()) == pytest.approx(
            result.seconds
        )

    def test_pipelining_helps_when_attention_overlaps_fc(self, step):
        """On PIM-only PAPI the attention + PCIe time is a large share
        (Figure 12) and FC on FC-PIM is compute-bound (chunk-splittable),
        so sub-batch overlap reduces iteration time."""
        serial = PIMOnlyPAPISystem()
        pipelined = PIMOnlyPAPISystem()
        pipelined.pipeline_chunks = 4
        t_serial = serial.execute_step(step).seconds
        t_pipe = pipelined.execute_step(step).seconds
        assert t_pipe < t_serial

    def test_pipelining_never_beats_fc_lower_bound(self, step):
        system = PIMOnlyPAPISystem()
        system.pipeline_chunks = 4
        result = system.execute_step(step)
        assert result.seconds >= result.time_breakdown["fc"]

    def test_memory_bound_fc_resists_chunking(self):
        """On the GPU baseline at small batch, FC is weight-stream-bound:
        chunking re-streams weights, so pipelining cannot win much and may
        lose. The model must capture that cost."""
        step = build_decode_step(get_model("llama-65b"), rlp=4, tlp=1,
                                 mean_context_len=256)
        serial = A100AttAccSystem()
        pipelined = A100AttAccSystem()
        pipelined.pipeline_chunks = 4
        t_serial = serial.execute_step(step).seconds
        t_pipe = pipelined.execute_step(step).seconds
        assert t_pipe > 2.0 * t_serial  # 4x weight re-streaming dominates

    def test_small_batches_fall_back_to_serial(self):
        step = build_decode_step(get_model("llama-65b"), rlp=2, tlp=1,
                                 mean_context_len=256)
        system = PIMOnlyPAPISystem()
        system.pipeline_chunks = 4
        serial = PIMOnlyPAPISystem()
        assert system.execute_step(step).seconds == pytest.approx(
            serial.execute_step(step).seconds
        )
