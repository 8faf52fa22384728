"""Tests for the shared policy scaffold (repro.core.policy, ConfigurationSpace).

Covers the start-node resolver every policy places its initial server with,
the plan-replay base of the offline planners, the ``max_servers`` checks of
the planners and the ILP policy, and the configuration space that ONCONF and
the work function algorithm enumerate.
"""

import numpy as np
import pytest

from repro.algorithms.beamopt import BeamOpt
from repro.algorithms.offline_br import OffBR, OffTH
from repro.algorithms.offstat import OffStat
from repro.algorithms.onbr import OnBR
from repro.algorithms.onconf import ConfigurationSpace, OnConf
from repro.algorithms.onth import OnTH
from repro.algorithms.opt import Opt
from repro.algorithms.optim import IlpPlacement, MilpOpt, plan_cost
from repro.algorithms.workfunction import WorkFunctionPolicy
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.load import QuadraticLoad
from repro.core.policy import PlannedPolicy, resolve_start
from repro.core.routing import route_requests
from repro.core.simulator import simulate
from repro.topology.generators import line
from repro.workload.base import Trace


def trace_of(*rounds):
    return Trace(tuple(np.asarray(r, dtype=np.int64) for r in rounds))


@pytest.fixture
def line4():
    return line(4, seed=0)


@pytest.fixture
def short_trace():
    return trace_of([0], [3, 3], [], [1])


class TestResolveStart:
    def test_none_is_the_center(self, line4):
        assert resolve_start(line4, None) == line4.center

    def test_explicit_node_is_kept(self, line4):
        assert resolve_start(line4, np.int64(3)) == 3
        assert type(resolve_start(line4, np.int64(3))) is int

    @pytest.mark.parametrize("node", [-1, 4, 9])
    def test_foreign_node_raises(self, line4, node):
        with pytest.raises(ValueError, match=f"start node {node} outside"):
            resolve_start(line4, node)


class TestStartNodeAtEveryEntryPoint:
    @pytest.mark.parametrize("node", [-1, 9])
    def test_opt_solve(self, line4, short_trace, node):
        with pytest.raises(ValueError, match="start node"):
            Opt.solve(line4, short_trace, start_node=node)

    def test_milp_opt_solve(self, line4, short_trace):
        with pytest.raises(ValueError, match="start node"):
            MilpOpt.solve(line4, short_trace, start_node=9)

    def test_plan_cost(self, line4, short_trace):
        plan = [Configuration.single(0)] * len(short_trace)
        with pytest.raises(ValueError, match="start node"):
            plan_cost(line4, short_trace, CostModel(), plan, start_node=9)

    @pytest.mark.parametrize(
        "policy",
        [
            OnConf, WorkFunctionPolicy, OnTH, OnBR, OffBR, OffTH, OffStat,
            Opt, BeamOpt, MilpOpt, IlpPlacement,
        ],
        ids=lambda cls: cls.__name__,
    )
    def test_simulate(self, line4, short_trace, policy):
        with pytest.raises(ValueError, match="start node 9 outside"):
            simulate(line4, policy(start_node=9), short_trace, CostModel())


class TestMaxServersValidation:
    @pytest.mark.parametrize("policy", [Opt, MilpOpt, IlpPlacement])
    @pytest.mark.parametrize("value", [2.5, "3", True])
    def test_non_integers_raise_type_error(self, policy, value):
        with pytest.raises(TypeError, match="max_servers"):
            policy(max_servers=value)

    @pytest.mark.parametrize("policy", [Opt, MilpOpt, IlpPlacement])
    def test_zero_raises_value_error(self, policy):
        with pytest.raises(ValueError, match="max_servers"):
            policy(max_servers=0)

    @pytest.mark.parametrize("policy", [Opt, MilpOpt, IlpPlacement])
    def test_none_and_numpy_ints_accepted(self, policy):
        policy(max_servers=None)
        policy(max_servers=np.int64(2))


class TestPlannedPolicy:
    @pytest.mark.parametrize(
        "policy, cost",
        [
            (Opt, "optimal_cost"),
            (BeamOpt, "planned_cost"),
            (MilpOpt, "solver_objective"),
        ],
    )
    def test_prepare_clears_plan_and_cost(self, line4, short_trace, policy, cost):
        planner = policy()
        assert isinstance(planner, PlannedPolicy)
        simulate(line4, planner, short_trace, CostModel())
        assert len(planner.plan) == len(short_trace)
        assert np.isfinite(getattr(planner, cost))
        planner.prepare(short_trace)
        with pytest.raises(RuntimeError, match="has not been solved"):
            planner.plan
        with pytest.raises(RuntimeError, match="has not been solved"):
            getattr(planner, cost)

    def test_reset_guard_names_the_policy(self, line4):
        with pytest.raises(
            RuntimeError, match=r"BEAM-OPT\(4\)\.prepare\(trace\) must be called"
        ):
            BeamOpt(beam_width=4).reset(line4, CostModel(), np.random.default_rng(0))

    def test_replays_the_plan(self, line4, short_trace):
        planner = Opt()
        result = simulate(line4, planner, short_trace, CostModel())
        assert result.n_active.tolist() == [c.n_active for c in planner.plan]
        assert result.total_cost == pytest.approx(planner.optimal_cost)

    def test_solve_matches_the_simulated_run(self, line4, short_trace):
        cost, plan = Opt.solve(line4, short_trace, start_node=3)
        simulated = simulate(
            line4, Opt(start_node=3), short_trace, CostModel.paper_default()
        )
        assert cost == pytest.approx(simulated.total_cost)
        assert len(plan) == len(short_trace)


class TestConfigurationSpace:
    def test_enumeration_order_and_lookup(self, line4):
        space = ConfigurationSpace(line4, CostModel(), 2, 100, "X")
        assert len(space) == 4 + 6
        assert space.configuration(0) == Configuration.single(0)
        assert space.configuration(4) == Configuration((0, 1))
        for i in range(len(space)):
            assert space.index_of(space.configuration(i).active) == i
        assert space.index_of((3, 1)) == space.index_of((1, 3))

    def test_k_clamped_to_n(self, line4):
        space = ConfigurationSpace(line4, CostModel(), 9, 100, "X")
        assert space.k == 4
        assert len(space) == 15

    def test_budget_names_the_owner(self, line4):
        with pytest.raises(ValueError, match="OWNER would enumerate 10 .* budget is 9"):
            ConfigurationSpace(line4, CostModel(), 2, 9, "OWNER")

    def test_unknown_configuration_raises(self, line4):
        space = ConfigurationSpace(line4, CostModel(), 1, 100, "X")
        with pytest.raises(ValueError, match="not in the enumerated space"):
            space.index_of((0, 1))

    @pytest.mark.parametrize("load", [None, QuadraticLoad()], ids=["linear", "quadratic"])
    def test_accumulate_adds_round_costs_in_place(self, load):
        substrate = line(4, seed=1, unit_latency=False, latency_range=(5.0, 20.0))
        costs = CostModel() if load is None else CostModel(load=load)
        space = ConfigurationSpace(substrate, costs, 2, 100, "X")
        requests = np.asarray([0, 3, 3, 2], dtype=np.int64)
        out = np.full(len(space), 1.5)
        space.accumulate(out, requests)
        empty = np.zeros(len(space))
        space.accumulate(empty, np.zeros(0, dtype=np.int64))
        np.testing.assert_array_equal(empty, space.run_costs)
        for i in range(len(space)):
            config = space.configuration(i)
            access = route_requests(
                substrate, np.asarray(config.active), requests, costs
            ).access_cost
            expected = 1.5 + costs.running_cost(config) + access
            assert out[i] == pytest.approx(expected)
