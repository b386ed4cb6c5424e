"""Tests for the serving engine end-to-end loop."""

import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.models.config import get_model
from repro.serving.dataset import sample_requests
from repro.serving.engine import ServingEngine
from repro.serving.metrics import energy_efficiency, speedup
from repro.serving.request import Request
from repro.serving.speculative import SpeculationConfig
from repro.systems.registry import build_system


def small_requests(count=4, output_len=16):
    return [
        Request(request_id=i, input_len=32, output_len=output_len)
        for i in range(count)
    ]


class TestEngineBasics:
    def test_all_tokens_generated(self):
        engine = ServingEngine(
            system=build_system("papi"), model=get_model("llama-65b")
        )
        requests = small_requests(4, output_len=16)
        summary = engine.run(requests)
        assert summary.tokens_generated == 4 * 16
        assert all(r.is_finished for r in requests)

    def test_serial_decoding_iteration_count(self):
        """With TLP = 1, iterations equal the longest output length."""
        engine = ServingEngine(
            system=build_system("a100-attacc"), model=get_model("llama-65b")
        )
        requests = small_requests(3, output_len=20)
        summary = engine.run(requests)
        assert summary.iterations == 20

    def test_speculation_reduces_iterations(self):
        model = get_model("llama-65b")
        serial = ServingEngine(
            system=build_system("papi"), model=model, seed=1
        ).run(small_requests(4, 64))
        spec = ServingEngine(
            system=build_system("papi"),
            model=model,
            speculation=SpeculationConfig(speculation_length=4),
            seed=1,
        ).run(small_requests(4, 64))
        assert spec.iterations < serial.iterations
        assert spec.tokens_generated == serial.tokens_generated

    def test_rlp_trace_monotone_under_static_batching(self):
        engine = ServingEngine(
            system=build_system("papi"), model=get_model("llama-65b")
        )
        summary = engine.run(sample_requests("general-qa", 8, seed=4))
        trace = summary.rlp_trace()
        assert trace[0] == 8
        assert all(a >= b for a, b in zip(trace, trace[1:]))

    def test_deterministic_given_seed(self):
        model = get_model("llama-65b")

        def run():
            return ServingEngine(
                system=build_system("papi"),
                model=model,
                speculation=SpeculationConfig(speculation_length=2),
                seed=7,
            ).run(sample_requests("general-qa", 4, seed=7))

        a, b = run(), run()
        assert a.total_seconds == b.total_seconds
        assert a.total_energy == b.total_energy
        assert a.tokens_generated == b.tokens_generated

    def test_empty_batch_rejected(self):
        engine = ServingEngine(
            system=build_system("papi"), model=get_model("llama-65b")
        )
        with pytest.raises(ConfigurationError, match="empty batch"):
            engine.run([])

    def test_capacity_check_enforced(self):
        system = build_system("papi")
        model = get_model("gpt3-175b")
        too_many = system.max_batch_size(model, 2100) + 1
        engine = ServingEngine(system=system, model=model)
        oversized = [
            Request(request_id=i, input_len=100, output_len=2000)
            for i in range(too_many)
        ]
        with pytest.raises(CapacityError):
            engine.run(oversized)

    def test_summary_time_accounting(self):
        engine = ServingEngine(
            system=build_system("attacc-only"), model=get_model("llama-65b")
        )
        summary = engine.run(small_requests(2, 8))
        assert summary.total_seconds == pytest.approx(
            summary.prefill_seconds + summary.decode_seconds + summary.draft_seconds
        )
        assert summary.decode_seconds == pytest.approx(
            sum(r.result.seconds for r in summary.records)
        )


class TestPAPIDynamics:
    def test_papi_reschedules_on_rlp_decay(self):
        """A batch starting above alpha must migrate FC to FC-PIM as
        requests finish (the paper's Figure 5(d) behaviour)."""
        system = build_system("papi", alpha=20.0)
        engine = ServingEngine(system=system, model=get_model("llama-65b"), seed=2)
        summary = engine.run(sample_requests("creative-writing", 32, seed=2))
        assert summary.reschedules >= 1
        assert set(summary.fc_target_iterations) == {"pu", "fc-pim"}

    def test_papi_stays_on_pim_below_alpha(self):
        system = build_system("papi", alpha=20.0)
        engine = ServingEngine(system=system, model=get_model("llama-65b"))
        summary = engine.run(small_requests(4, 16))
        assert summary.fc_target_iterations == {"fc-pim": summary.iterations}

    def test_papi_never_slower_than_static_parents(self):
        """PAPI's decode time is bounded by both static designs (it picks
        the better unit each iteration, modulo the PCIe attention link)."""
        model = get_model("llama-65b")
        requests = sample_requests("general-qa", 16, seed=9)

        def run(name):
            return ServingEngine(
                system=build_system(name), model=model, seed=9
            ).run(sample_requests("general-qa", 16, seed=9))

        papi = run("papi")
        gpu_static = run("a100-attacc")
        pim_static = run("attacc-only")
        assert papi.decode_seconds <= 1.05 * gpu_static.decode_seconds
        assert papi.decode_seconds <= 1.05 * pim_static.decode_seconds


class TestCapacityOverWholeWorkload:
    def test_queued_requests_validated(self):
        """A queued request longer than anything in the initial batch must
        not slip past the capacity check: it is checked when it is
        admitted into a freed slot, against the batch it joins."""
        system = build_system("papi")
        model = get_model("gpt3-175b")
        cap = system.max_batch_size(model, 2100)
        # Request 0 finishes first, so the long request joins cap - 1
        # live requests instead of running alone after the batch drains.
        short = [
            Request(request_id=i, input_len=100,
                    output_len=10 if i == 0 else 100)
            for i in range(cap)
        ]
        # Way past the per-request KV budget at the full batch size.
        monster = Request(request_id=cap, input_len=100, output_len=50_000)
        engine = ServingEngine(system=system, model=model)
        with pytest.raises(CapacityError, match=f"batch {cap} x 50100"):
            engine.run_trace(short + [monster], max_batch_size=cap)


class TestLatencyAccounting:
    def test_latency_covers_prefill_plus_decode(self):
        """Regression pin for the accounting fix: per-request latency used
        to count only the decode clock; it now adds queueing + prefill.
        At TLP 1 (no draft model) the new value is exactly the old
        decode-only clock plus the batch prefill time."""
        engine = ServingEngine(
            system=build_system("papi"), model=get_model("llama-65b")
        )
        requests = small_requests(4, output_len=12)
        summary = engine.run(requests)

        decode_clock = 0.0
        old_style = {}
        for record in summary.records:
            decode_clock += record.result.seconds
            old_style[record.iteration] = decode_clock
        expected = sorted(
            old_style[r.finish_iteration] + summary.prefill_seconds
            for r in requests
        )
        assert sorted(summary.request_latencies) == pytest.approx(expected)

    def test_stamped_batch_launches_at_last_arrival(self):
        """A stamped batch launches once its last member has arrived: the
        wait is queueing, each latency counts from the request's own
        arrival, and decoding is the unstamped batch's exactly."""
        def run(arrivals):
            requests = [
                Request(request_id=i, input_len=32, output_len=12,
                        arrival_s=arrival)
                for i, arrival in enumerate(arrivals)
            ]
            engine = ServingEngine(
                system=build_system("papi"), model=get_model("llama-65b")
            )
            return engine.run(requests), requests

        unstamped, _ = run([0.0, 0.0])
        stamped, requests = run([0.0, 1.0])
        assert stamped.queueing_seconds == 1.0
        assert unstamped.queueing_seconds == 0.0
        assert stamped.decode_seconds == unstamped.decode_seconds
        assert stamped.records == unstamped.records
        assert stamped.request_latencies == [
            r.finish_s - r.arrival_s for r in requests
        ]
        assert stamped.request_latencies == pytest.approx(
            [unstamped.request_latencies[0] + 1.0,
             unstamped.request_latencies[1]]
        )

    def test_makespan_matches_total_for_batch_runs(self):
        engine = ServingEngine(
            system=build_system("papi"), model=get_model("llama-65b")
        )
        summary = engine.run(small_requests(2, output_len=8))
        assert summary.makespan_seconds == pytest.approx(summary.total_seconds)
        assert summary.utilization == pytest.approx(1.0)


class TestContextModes:
    def test_per_request_close_to_mean(self):
        """Per-request pricing removes only the mean-rounding error, so the
        two modes agree to well under a percent on a mixed batch."""
        model = get_model("llama-65b")

        def run(mode):
            engine = ServingEngine(
                system=build_system("papi"), model=model, seed=21,
                context_mode=mode,
            )
            return engine.run(sample_requests("creative-writing", 8, seed=21))

        mean = run("mean")
        exact = run("per-request")
        assert exact.tokens_generated == mean.tokens_generated
        assert exact.decode_seconds == pytest.approx(
            mean.decode_seconds, rel=5e-3
        )
        assert exact.decode_seconds != mean.decode_seconds  # really distinct

    def test_invalid_mode_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            ServingEngine(
                system=build_system("papi"),
                model=get_model("llama-65b"),
                context_mode="harmonic",
            )


class TestContinuousBatching:
    def test_all_queue_requests_served(self):
        model = get_model("llama-65b")
        engine = ServingEngine(system=build_system("papi"), model=model)
        queue = small_requests(10, output_len=8)
        summary = engine.run_trace(queue, max_batch_size=4)
        assert all(r.is_finished for r in queue)
        assert summary.tokens_generated == 10 * 8

    def test_freed_slots_refill_fifo(self):
        """Slots freed by finished requests refill from the queue in
        arrival order at the next iteration."""
        engine = ServingEngine(
            system=build_system("papi"), model=get_model("llama-65b")
        )
        queue = small_requests(6, output_len=1)
        summary = engine.run_trace(queue, max_batch_size=3)
        assert [r.finish_iteration for r in queue] == [0, 0, 0, 1, 1, 1]
        assert summary.rlp_trace() == [3, 3]

    def test_continuous_sustains_higher_rlp_than_static(self):
        model = get_model("llama-65b")
        queue = sample_requests("general-qa", 24, seed=5)
        cont = ServingEngine(system=build_system("papi"), model=model, seed=5)
        summary_cont = cont.run_trace(queue, max_batch_size=8)
        static_reqs = sample_requests("general-qa", 24, seed=5)
        stat = ServingEngine(system=build_system("papi"), model=model, seed=5)
        summary_stat = stat.run(static_reqs[:8])
        trace = summary_cont.rlp_trace()
        # Continuous batching keeps slots refilled: mean RLP near the cap.
        assert sum(trace) / len(trace) > 6.0
        assert summary_stat.iterations <= summary_cont.iterations
