"""``simulate_services`` validates each service exactly as ``simulate`` does.

Both entry points play every service through the same stepper, so a cost
model or configuration that ``simulate`` rejects fails the multi-service
game with the same one-line error.
"""

import numpy as np
import pytest

from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.multiservice import ServiceSpec, simulate_services
from repro.core.policy import AllocationPolicy
from repro.core.simulator import simulate
from repro.workload.base import Trace


def trace_of(*rounds):
    return Trace(tuple(np.asarray(r, dtype=np.int64) for r in rounds))


class Jump(AllocationPolicy):
    """Starts at node ``start`` and moves its server to ``to`` in round 0."""

    def __init__(self, start: int, to: int) -> None:
        self._start = start
        self._to = to

    def reset(self, substrate, costs, rng):
        return Configuration.single(self._start)

    def decide(self, t, requests, routing):
        return Configuration.single(self._to)


def run_solo(substrate, policy, costs):
    return simulate(substrate, policy, trace_of([0], [1]), costs)


def run_multi(substrate, policy, costs):
    spec = ServiceSpec("svc", policy, trace_of([0], [1]), costs=costs)
    return simulate_services(substrate, [spec])["svc"]


ENTRY_POINTS = pytest.mark.parametrize("play", [run_solo, run_multi])


@ENTRY_POINTS
def test_rejects_wrong_shape_migration_matrix(play, line5):
    costs = CostModel.paper_default(migration_matrix=np.full((3, 3), 40.0))
    with pytest.raises(
        ValueError, match=r"^migration_matrix is 3x3 but substrate has 5 nodes$"
    ):
        play(line5, Jump(2, 1), costs)


@ENTRY_POINTS
@pytest.mark.parametrize(
    "start, to, message",
    [
        (9, 1, "initial configuration"),
        (2, 9, "round 0"),
    ],
)
def test_checks_every_configuration(play, start, to, message, line5):
    with pytest.raises(
        ValueError,
        match=rf"^{message}: configuration references node 9 outside the 5-node substrate$",
    ):
        play(line5, Jump(start, to), CostModel.paper_default())


@ENTRY_POINTS
def test_valid_service_plays_the_same_ledger(play, line5):
    result = play(line5, Jump(2, 4), CostModel.paper_default())
    assert result.total_migrations == 1
    assert result.rounds == 2
