"""Mixed fleets through the vectorized core's one probe path.

A :class:`~repro.cluster.fleetstate.FleetState` over two price groups
(PAPI lanes beside A100+AttAcc lanes) must answer every probe exactly as
the scalar reference probes answer over a plain list of equal replicas:
after the first vector pass, after an event on one lane of each group
(the incremental refresh, which must price each lane from its own
group's table), after a new candidate input length, and once the whole
fleet is saturated, when every input length shares one memo key.
"""

import pytest

from repro.cluster.fleetstate import FleetState, VectorReplica
from repro.cluster.replica import Replica
from repro.cluster.router import (
    MinCostRouter,
    SLOSlackRouter,
    projected_completion_seconds,
    projected_step_seconds,
)
from repro.models.config import get_model
from repro.serving.request import Request
from repro.systems.registry import build_system

LANES = 10
MAX_BATCH = 4
#: Lane ``i`` serves ``SYSTEMS[i % 2]``: two price groups, interleaved.
SYSTEMS = ("papi", "a100-attacc")
NOW = 0.5


class _Fleets:
    """A vectorized fleet and its scalar twin, loaded in lockstep.

    Lane 0 holds two active requests and three queued behind its two
    free slots; lanes 1 (A100+AttAcc) and 2 (PAPI) hold one active
    request each, so only they project the candidate's own input length;
    every other lane is a full batch.
    """

    def __init__(self) -> None:
        model = get_model("llama-65b")
        self.vector = [
            VectorReplica(i, build_system(SYSTEMS[i % 2]), model, MAX_BATCH)
            for i in range(LANES)
        ]
        self.scalar = [
            Replica(
                i,
                build_system(SYSTEMS[i % 2]),
                model,
                MAX_BATCH,
                load_accounting="scan",
            )
            for i in range(LANES)
        ]
        self._next_id = 0
        self.load(0, 2, start=True)
        self.load(0, 3)
        self.load(1, 1, start=True)
        self.load(2, 1, start=True)
        for lane in range(3, LANES):
            self.load(lane, MAX_BATCH, start=True)
        self.fleet = FleetState(self.vector)
        self.paths = []
        for name in ("_rebuild_probe", "_refresh_lanes"):
            method = getattr(self.fleet, name)

            def spy(*args, _method=method, _name=name):
                self.paths.append(_name)
                return _method(*args)

            setattr(self.fleet, name, spy)

    def load(self, lane: int, count: int, start: bool = False) -> None:
        """Route ``count`` fresh requests to ``lane`` in both fleets."""
        for _ in range(count):
            request_id = self._next_id
            self._next_id += 1
            for replicas in (self.vector, self.scalar):
                replicas[lane].enqueue(
                    Request(
                        request_id=request_id,
                        input_len=120 + 53 * request_id,
                        output_len=32 + 16 * (request_id % 5),
                    )
                )
        if start:
            for replicas in (self.vector, self.scalar):
                assert replicas[lane].poke(0.0) is not None

    def touch(self, lanes, count: int = 1) -> None:
        """Queue ``count`` more requests on each lane and mark it dirty."""
        for lane in lanes:
            self.load(lane, count)
            self.fleet.mark_dirty(lane)

    def assert_matches_reference(self, input_len: int) -> None:
        """Every probe and verdict equals the scalar reference's."""
        fleet, scalar = self.fleet, self.scalar
        request = Request(request_id=9_000, input_len=input_len, output_len=40)
        steps = [projected_step_seconds(r, request) for r in scalar]
        completions = [
            projected_completion_seconds(r, request) for r in scalar
        ]
        assert fleet.fleet_step_seconds(request) == steps
        assert fleet.fleet_completion_seconds(request) == completions
        assert fleet.probe_min_completion(request) == min(completions)
        middle = sorted(completions)[LANES // 2]
        # Best effort, about half the lanes feasible, none feasible.
        for deadline in (None, NOW + middle, NOW):
            routed = Request(
                request_id=9_001,
                input_len=input_len,
                output_len=40,
                deadline_s=deadline,
            )
            for router in (MinCostRouter(), SLOSlackRouter()):
                assert router.select(routed, fleet, NOW) == router.select(
                    routed, scalar, NOW
                ), (router.name, deadline)


@pytest.fixture
def fleets():
    built = _Fleets()
    fleet = built.fleet
    assert len(fleet._groups) == 2
    busy = built.vector[0]
    assert len(busy.waiting) > MAX_BATCH - len(busy.active)
    return built


class TestMixedFleetProbes:
    def test_first_vector_pass(self, fleets):
        fleets.assert_matches_reference(300)
        assert fleets.paths == ["_rebuild_probe"]

    def test_refresh_after_an_event_in_each_group(self, fleets):
        fleets.assert_matches_reference(300)
        fleets.touch((0, 1))
        fleets.assert_matches_reference(300)
        assert fleets.paths == ["_rebuild_probe", "_refresh_lanes"]

    def test_new_input_length_refreshes_sensitive_lanes(self, fleets):
        fleets.assert_matches_reference(300)
        assert fleets.fleet._probe_sensitive == {1, 2}
        fleets.assert_matches_reference(1_900)
        assert fleets.paths == ["_rebuild_probe", "_refresh_lanes"]

    def test_saturated_fleet_answers_input_lengths_from_one_key(self, fleets):
        fleet = fleets.fleet
        fleets.assert_matches_reference(300)
        fleets.touch((1, 2), MAX_BATCH - 1)
        fleets.assert_matches_reference(700)
        assert fleet._probe_sensitive == set()
        misses = fleet.probe_misses
        fleets.assert_matches_reference(1_900)
        assert list(fleet._steps_memo) == [-1]
        assert fleet.probe_misses == misses
        assert fleets.paths == ["_rebuild_probe", "_refresh_lanes"]
