"""One capacity rule for every entry point of the game.

A substrate's per-node ``capacities`` are a hard packing constraint:
:func:`~repro.core.routing.route_capacitated` sends each request to its
nearest active server with a whole unit of capacity left and spills it to
the next-nearest when that server is full. ``simulate``,
``simulate_services`` and MILP-OPT's replay (``plan_cost``) all route
capacitated rounds through it, so they price a plan alike and reject an
unpackable round with the same error.
"""

import numpy as np
import pytest

from repro.algorithms import StaticPolicy
from repro.algorithms.optim import plan_cost
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.load import QuadraticLoad
from repro.core.multiservice import ServiceSpec, simulate_services
from repro.core.results import LEDGER_COLUMNS
from repro.core.routing import RoutingStrategy
from repro.core.simulator import simulate
from repro.topology.generators import erdos_renyi, line
from repro.topology.substrate import Link, Substrate
from repro.workload.base import Trace, generate_trace
from repro.workload.timezones import TimeZoneScenario
from repro.util.rng import ensure_rng

COSTS = {
    "linear": CostModel.paper_default(),
    "quadratic": CostModel.paper_default(load=QuadraticLoad()),
}


def trace_of(*rounds):
    return Trace(tuple(np.asarray(r, dtype=np.int64) for r in rounds))


def fleet(*nodes):
    config = Configuration(tuple(nodes))
    return StaticPolicy(config, start=config)


def both_entry_points(substrate, make_policy, trace, costs, seed=5):
    """One service run by ``simulate`` and by ``simulate_services``."""
    (stream,) = ensure_rng(seed).spawn(1)
    solo = simulate(substrate, make_policy(), trace, costs, seed=stream)
    multi = simulate_services(
        substrate, [ServiceSpec("svc", make_policy(), trace)], costs, seed=seed
    )["svc"]
    return solo, multi


class TestOneServiceBitIdentity:
    #: (fleet size, per-node capacity): every round of 8 requests packs, and
    #: nearest routing would overfill some server, so the capacity binds.
    CASES = [(2, 5.0), (3, 3.0), (9, 1.0)]

    @pytest.mark.parametrize("load", sorted(COSTS))
    @pytest.mark.parametrize("size,capacity", CASES)
    def test_simulate_equals_simulate_services(self, size, capacity, load):
        substrate = erdos_renyi(30, p=0.15, seed=7, capacity=capacity)
        costs = COSTS[load]
        scenario = TimeZoneScenario(
            substrate, period=3, sojourn=4, requests_per_round=8
        )
        trace = generate_trace(scenario, 24, seed=3)
        nodes = tuple(range(0, 30, 30 // size))[:size]
        solo, multi = both_entry_points(
            substrate, lambda: fleet(*nodes), trace, costs
        )
        for column in LEDGER_COLUMNS:
            np.testing.assert_array_equal(
                getattr(solo, column), getattr(multi, column), err_msg=column
            )
        free = simulate(
            substrate.with_capacities(None), fleet(*nodes), trace, costs
        )
        assert solo.latency_cost.sum() > free.latency_cost.sum()  # it binds

    def test_full_spill_example(self):
        """Servers {1, 3} with capacity 1: the second request at node 1
        spills to server 3, two hops away, under either entry point."""
        solo, multi = both_entry_points(
            line(5, seed=0, capacity=1.0), lambda: fleet(1, 3),
            trace_of([1, 1]), CostModel.paper_default(),
        )
        assert solo.latency_cost[0] == 2.0
        assert multi.latency_cost[0] == 2.0


class TestUnpackableRound:
    def test_every_entry_point_raises_the_same_error(self):
        substrate = line(5, seed=0, capacity=1.0)
        trace = trace_of([2], [2, 2])
        costs = CostModel.paper_default()
        messages = []
        for run in (
            lambda: simulate(substrate, fleet(2), trace, costs),
            lambda: simulate_services(
                substrate, [ServiceSpec("svc", fleet(2), trace)], costs
            ),
            lambda: plan_cost(
                substrate, trace, costs, [Configuration.single(2)] * 2,
                start_node=2,
            ),
        ):
            with pytest.raises(ValueError, match="at capacity") as error:
                run()
            messages.append(str(error.value))
        assert len(set(messages)) == 1
        (message,) = set(messages)
        assert "round 1" in message and "node 2" in message
        assert "\n" not in message

    def test_streamed_rounds_raise_too(self):
        substrate = line(5, seed=0, capacity=1.0)
        rounds = iter([np.array([2]), np.array([2, 2])])
        with pytest.raises(ValueError, match="round 1"):
            simulate(substrate, fleet(2), rounds)


class TestCapacityInputs:
    def test_load_aware_routing_raises(self):
        substrate = line(5, seed=0, capacity=2.0)
        with pytest.raises(ValueError, match="capacitated"):
            simulate(
                substrate, fleet(2), trace_of([2]),
                routing=RoutingStrategy.LOAD_AWARE,
            )

    @pytest.mark.parametrize("capacities", [2.5, [1.0, 1.5, 1.0], 0.5, np.inf])
    def test_capacity_must_be_a_whole_number(self, capacities):
        links = [Link(0, 1, 1.0, 1.544), Link(1, 2, 1.0, 1.544)]
        with pytest.raises(ValueError, match="whole") as error:
            Substrate(3, links, capacities=capacities)
        assert "\n" not in str(error.value)

    def test_uncapacitated_substrates_keep_nearest_routing(self):
        """Without capacities, two requests at node 1 share server 1."""
        result = simulate(
            line(5, seed=0), fleet(1, 3), trace_of([1, 1]),
        )
        assert result.latency_cost[0] == 0.0
