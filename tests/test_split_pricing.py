"""The split step price: a memoized FC half plus one attention kernel.

On a serial system the serving pricer prices a decoding iteration as a
context-free half (FC kernels on the planned unit, the attention-link
transfer, idle power), memoized per ``(planned FC target, rlp, tlp)``,
plus the step's one attention kernel. Attention is linear in each
request's context, so a per-request price reads only the bucketed
context total, and that total keys the step cache. The full
``system.execute_step(build_decode_step(...))`` path is the ground model:
every split price must equal it bit for bit, and a cache key may collapse
only what the price cannot read.
"""

import random

import pytest

from repro.cluster.fleetstate import FleetState, VectorReplica
from repro.cluster.router import PriceCache
from repro.core.placement import PlacementTarget
from repro.models.config import get_model
from repro.models.moe import MoEModelConfig
from repro.models.workload import build_decode_step
from repro.serving.engine import StepPricer
from repro.serving.request import Request
from repro.serving.stepcache import StepCostCache
from repro.systems.registry import available_systems, build_system

DENSE = get_model("llama-65b")
MOE = MoEModelConfig(
    base=DENSE,
    num_experts=16,
    experts_per_token=2,
    expert_ffn_dim=DENSE.ffn_dim // 16,
)
#: Batches priced per parametrized case; each draws its own multiset.
BATCHES = 12


def bucketize(context: int, bucket: int) -> int:
    """The pricer's context quantization, restated as the reference."""
    if bucket <= 1:
        return context
    return max(bucket, round(context / bucket) * bucket)


def per_request_truth(system, contexts, tlp, bucket=1, moe=None):
    """``execute_step`` over the sorted bucketed per-request contexts."""
    lens = sorted(bucketize(c, bucket) for c in contexts)
    rlp = len(lens)
    mean = max(1, round(sum(lens) / rlp))
    return system.execute_step(
        build_decode_step(DENSE, rlp, tlp, mean, context_lens=lens, moe=moe)
    )


def mean_truth(system, rlp, tlp, total, bucket=1, moe=None):
    """``execute_step`` over the bucketed rounded-mean context."""
    mean = bucketize(max(1, round(total / rlp)), bucket)
    return system.execute_step(
        build_decode_step(DENSE, rlp, tlp, mean, moe=moe)
    )


def assert_same_price(got, want):
    """Bit-identical: ``repr`` tells apart every float but NaN, and the
    item lists pin the breakdowns' key order."""
    assert repr(got.seconds) == repr(want.seconds)
    assert repr(got.energy_joules) == repr(want.energy_joules)
    assert repr(list(got.time_breakdown.items())) == repr(
        list(want.time_breakdown.items())
    )
    assert repr(list(got.energy_breakdown.items())) == repr(
        list(want.energy_breakdown.items())
    )
    assert got.fc_target is want.fc_target
    assert (got.rlp, got.tlp) == (want.rlp, want.tlp)


def requests_for(contexts, rng):
    """Requests whose ``input_len + generated`` are ``contexts``."""
    requests = []
    for i, context in enumerate(contexts):
        generated = rng.randrange(0, min(context, 64))
        requests.append(
            Request(
                request_id=i,
                input_len=context - generated,
                output_len=generated + 32,
                generated=generated,
            )
        )
    return requests


def random_batches(seed):
    """Seeded context multisets: half share one RLP (so priced misses
    reuse a memoized half), the rest draw their own."""
    rng = random.Random(seed)
    batches = []
    for i in range(BATCHES):
        rlp = 6 if i % 2 else rng.randint(1, 24)
        batches.append([rng.randint(1, 4000) for _ in range(rlp)])
    return batches, rng


class TestSplitPricesBitIdentical:
    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("bucket", [1, 32])
    @pytest.mark.parametrize("tlp", [1, 4])
    @pytest.mark.parametrize("moe", [None, MOE], ids=["dense", "moe"])
    @pytest.mark.parametrize("name", available_systems())
    def test_every_entry_point_matches_execute_step(
        self, name, moe, tlp, bucket, cached
    ):
        system = build_system(name)
        cache = StepCostCache() if cached else None
        exact = StepPricer(
            system=system, model=DENSE, context_bucket=bucket,
            step_cache=cache, moe=moe,
        )
        mean = StepPricer(
            system=system, model=DENSE, context_mode="mean",
            context_bucket=bucket, step_cache=cache, moe=moe,
        )
        batches, rng = random_batches(
            f"{name}/{moe is None}/{tlp}/{bucket}/{cached}"
        )
        for contexts in batches + batches[:3]:  # replays hit the cache
            rlp = len(contexts)
            total = sum(contexts)
            want = per_request_truth(system, contexts, tlp, bucket, moe)
            assert_same_price(exact.price_contexts(contexts, tlp), want)
            assert_same_price(
                exact.price(requests_for(contexts, rng), tlp), want
            )
            want = mean_truth(system, rlp, tlp, total, bucket, moe)
            assert_same_price(mean.price_mean_total(rlp, tlp, total), want)
            assert_same_price(
                mean.price(requests_for(contexts, rng), tlp), want
            )
            raw_mean = max(1, round(total / rlp))
            assert_same_price(mean.run_pricer(rlp, tlp)(raw_mean), want)
        if cached:
            assert cache.hits > 0

    def test_a_miss_prices_one_attention_kernel(self, monkeypatch):
        """Misses at one (target, rlp, tlp) price the FC half once and
        never fall back to the full step."""
        system = build_system("papi")
        calls = {"step_half": 0, "execute_step": 0}
        for name in calls:
            original = getattr(system, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(system, name, counted)
        pricer = StepPricer(system=system, model=DENSE)
        rng = random.Random(5)
        for _ in range(20):
            pricer.price_contexts([rng.randint(1, 4000) for _ in range(8)], 2)
        assert calls == {"step_half": 1, "execute_step": 0}


class TestKeyCollapse:
    # At bucket 32 the raw totals differ (1595 and 1600) but the
    # bucketed ones agree: 64 + 320 + 512 + 704 == 384 + 416 + 384 + 416.
    @pytest.mark.parametrize(
        "bucket, even",
        [(1, [400, 400, 400, 395]), (32, [380, 420, 390, 410])],
    )
    def test_serial_multisets_with_one_total_share_an_entry(
        self, bucket, even
    ):
        system = build_system("papi")
        cache = StepCostCache()
        pricer = StepPricer(
            system=system, model=DENSE, context_bucket=bucket,
            step_cache=cache,
        )
        spread = [70, 310, 515, 700]
        assert sum(bucketize(c, bucket) for c in spread) == sum(
            bucketize(c, bucket) for c in even
        )
        first = pricer.price_contexts(spread, 2)
        second = pricer.price_contexts(even, 2)
        assert (cache.entries, cache.misses, cache.hits) == (1, 1, 1)
        assert second is first
        assert_same_price(first, per_request_truth(system, spread, 2, bucket))
        assert_same_price(second, per_request_truth(system, even, 2, bucket))

    def test_a_total_never_aliases_an_equal_mean(self):
        """One cache and system behind both context modes: a per-request
        total of 1600 and a mean of 1600 at one (rlp, tlp) are different
        steps (the mean one holds four times the context)."""
        system = build_system("papi")
        cache = StepCostCache()
        exact = StepPricer(system=system, model=DENSE, step_cache=cache)
        mean = StepPricer(
            system=system, model=DENSE, context_mode="mean", step_cache=cache
        )
        contexts = [200, 400, 400, 600]
        by_total = exact.price_contexts(contexts, 2)
        by_closure = mean.run_pricer(4, 2)(1600)
        by_mean = mean.price_mean_total(4, 2, 4 * 1600)
        assert (cache.entries, cache.hits) == (2, 1)
        assert_same_price(by_total, per_request_truth(system, contexts, 2))
        assert_same_price(by_closure, mean_truth(system, 4, 2, 4 * 1600))
        assert_same_price(by_mean, mean_truth(system, 4, 2, 4 * 1600))

    def test_pipelined_multisets_keep_separate_entries(self):
        system = build_system("papi")
        system.pipeline_chunks = 4
        cache = StepCostCache()
        pricer = StepPricer(system=system, model=DENSE, step_cache=cache)
        spread = [100, 300, 500, 700]
        even = [400, 400, 400, 400]
        first = pricer.price_contexts(spread, 2)
        second = pricer.price_contexts(even, 2)
        assert (cache.entries, cache.hits) == (2, 0)
        assert first.seconds != second.seconds  # chunking saw the split
        assert "overlap" in first.time_breakdown
        assert_same_price(first, per_request_truth(system, spread, 2))
        assert_same_price(second, per_request_truth(system, even, 2))

    def test_below_the_chunk_count_a_pipelined_system_splits(self):
        system = build_system("papi")
        system.pipeline_chunks = 4
        cache = StepCostCache()
        pricer = StepPricer(system=system, model=DENSE, step_cache=cache)
        pricer.price_contexts([100, 300, 500], 2)
        pricer.price_contexts([300, 300, 300], 2)
        assert (cache.entries, cache.hits) == (1, 1)
        assert_same_price(
            pricer.price_contexts([250, 250, 400], 2),
            per_request_truth(system, [250, 250, 400], 2),
        )

    @pytest.mark.parametrize("cached", [False, True])
    def test_target_flip_reprices_the_half(self, cached):
        """PAPI's standing decision lags a TLP register write, so one
        (rlp, tlp) is priced on FC-PIM, then on the PUs once the
        scheduler re-evaluates."""
        system = build_system("papi")
        pricer = StepPricer(
            system=system, model=DENSE,
            step_cache=StepCostCache() if cached else None,
        )
        contexts = [900, 1200, 700, 1500, 1000, 800, 1100, 1300]
        system.begin_batch(8, 2)  # 8 * 2 <= alpha: FC-PIM
        system.update_tlp(4)  # register written, decision not yet
        lagging = pricer.price_contexts(contexts, 4)
        assert lagging.fc_target is PlacementTarget.FC_PIM
        assert_same_price(lagging, per_request_truth(system, contexts, 4))
        system.observe_finished(0, 8)  # re-evaluated: 8 * 4 > alpha
        flipped = pricer.price_contexts(contexts, 4)
        assert flipped.fc_target is PlacementTarget.PU
        assert_same_price(flipped, per_request_truth(system, contexts, 4))
        assert flipped.seconds != lagging.seconds


def _vector_pair(bucket, pipeline_chunks=1):
    """Two PAPI vector replicas sharing one price group's step memo."""
    replicas = []
    for replica_id in range(2):
        system = build_system("papi")
        system.pipeline_chunks = pipeline_chunks
        replicas.append(
            VectorReplica(
                replica_id, system, DENSE, max_batch_size=8,
                context_bucket=bucket, check_capacity=False,
            )
        )
    FleetState(replicas)
    assert replicas[0]._price_memo is replicas[1]._price_memo
    return replicas


def _first_step(replica, contexts):
    """Admit ``contexts`` as fresh requests; the first step's
    ``(price, tlp)``."""
    for i, context in enumerate(contexts):
        replica.enqueue(
            Request(request_id=i, input_len=context, output_len=64)
        )
    replica.poke(0.0)
    return replica._pending


class TestVectorReplicaKeys:
    def test_group_shares_fc_halves(self, monkeypatch):
        """A half is a pure function of the group's configuration and
        its ``(target, rlp, tlp)`` key, so the second replica's first
        step composes the half the first one built."""
        first, second = _vector_pair(bucket=1)
        assert first.pricer._halves is second.pricer._halves
        _first_step(first, [100, 300, 500, 700])
        assert len(first.pricer._halves) == 1

        def rebuilt(*args, **kwargs):
            raise AssertionError("half priced twice in one group")

        monkeypatch.setattr(second.system, "step_half", rebuilt)
        contexts = [200, 200, 600, 600]
        result, tlp = _first_step(second, contexts)
        assert_same_price(
            result, per_request_truth(build_system("papi"), contexts, tlp)
        )

    def test_memo_keys_on_the_bucketed_total(self):
        """Equal raw totals (1595) with different bucketed totals (1600
        and 1536) must not share the group memo's entry."""
        first, second = _vector_pair(bucket=32)
        spread = [70, 310, 515, 700]
        flat = [399, 399, 399, 398]
        for replica, contexts in ((first, spread), (second, flat)):
            result, tlp = _first_step(replica, contexts)
            assert_same_price(
                result,
                per_request_truth(replica.system, contexts, tlp, 32),
            )

    def test_pipelined_memo_keys_on_every_context(self):
        first, second = _vector_pair(bucket=1, pipeline_chunks=4)
        prices = []
        for replica, contexts in (
            (first, [100, 300, 500, 700]),
            (second, [400, 400, 400, 400]),
        ):
            result, tlp = _first_step(replica, contexts)
            assert_same_price(
                result, per_request_truth(replica.system, contexts, tlp)
            )
            prices.append(result.seconds)
        assert prices[0] != prices[1]


class TestPipelinedTwinsStayApart:
    """A chunked system compares equal to its serial twin as a dataclass
    (``pipeline_chunks`` is a plain attribute), but prices differently;
    neither a configuration-shared cache nor a price group may merge
    them."""

    def _twins(self):
        serial, chunked = build_system("papi"), build_system("papi")
        chunked.pipeline_chunks = 4
        assert serial == chunked and not serial.prices_like(chunked)
        return serial, chunked

    @pytest.mark.parametrize("cache_cls", [StepCostCache, PriceCache])
    def test_shared_cache_scopes_apart(self, cache_cls):
        serial, chunked = self._twins()
        cache = (
            StepCostCache(share_equal_systems=True)
            if cache_cls is StepCostCache
            else PriceCache()
        )
        assert cache.scope_key(serial) != cache.scope_key(chunked)
        assert cache.scope_key(build_system("papi")) == cache.scope_key(
            serial
        )

    def test_shared_cache_prices_the_chunked_system_itself(self):
        serial, chunked = self._twins()
        cache = StepCostCache(share_equal_systems=True)
        shared = {}
        for system in (serial, chunked):
            pricer = StepPricer(
                system=system, model=DENSE, context_mode="mean",
                step_cache=cache,
            )
            shared[system.pipeline_chunks] = pricer.price_mean_total(
                8, 1, 8000
            )
        own = StepPricer(
            system=self._twins()[1], model=DENSE, context_mode="mean"
        ).price_mean_total(8, 1, 8000)
        assert_same_price(shared[4], own)
        assert shared[4].seconds != shared[1].seconds

    def test_price_groups_split(self):
        replicas = [
            VectorReplica(
                replica_id, system, DENSE, max_batch_size=8,
                context_mode="mean", check_capacity=False,
            )
            for replica_id, system in enumerate(self._twins())
        ]
        fleet = FleetState(replicas)
        assert len(fleet._groups) == 2
        assert replicas[0]._price_memo is not replicas[1]._price_memo
        assert replicas[0]._price_lines is not replicas[1]._price_lines
        assert replicas[0].pricer._halves is not replicas[1].pricer._halves
