"""Unit tests for the optimizer-backed policy family and its figure.

Covers the :class:`IlpPlacement` solver knobs (epoch cadence, demand
window, LP relaxation + deterministic rounding, capacities, the inactive
server cache), the :class:`MilpOpt` guards, registry and spec integration
(solver knobs fold into sweep cache keys), and the golden-pinned ``optim``
comparison figure reproducing its committed output bit-for-bit.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.optim import (
    IlpPlacement,
    MilpOpt,
    build_placement,
    round_fractional,
    unit_loads,
)
from repro.api.registry import resolve_policy
from repro.api.specs import (
    CostSpec,
    ExperimentSpec,
    PolicySpec,
    ScenarioSpec,
    TopologySpec,
)
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.routing import RoutingResult
from repro.core.simulator import simulate
from repro.experiments import figures
from repro.topology.generators import line
from repro.workload.base import Trace

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_optim.json"

_LINE_PARAMS = {"unit_latency": False, "latency_range": (5.0, 20.0)}


def _empty_routing() -> RoutingResult:
    return RoutingResult(
        latency_cost=0.0,
        load_cost=0.0,
        counts=np.zeros(1, dtype=np.int64),
        assignment=np.zeros(0, dtype=np.int64),
    )


def _drive(policy, substrate, rounds, costs=None):
    """Feed ``rounds`` (lists of access points) through reset/decide."""
    costs = costs or CostModel.paper_default()
    configs = [policy.reset(substrate, costs, np.random.default_rng(0))]
    for t, requests in enumerate(rounds):
        configs.append(
            policy.decide(
                t, np.asarray(requests, dtype=np.int64), _empty_routing()
            )
        )
    return configs


class TestRegistryAndSpecs:
    def test_registry_names_resolve(self):
        assert resolve_policy("ilp") is IlpPlacement
        assert resolve_policy("optim") is IlpPlacement
        assert resolve_policy("lp") is IlpPlacement
        assert resolve_policy("milp-opt") is MilpOpt
        assert resolve_policy("ilp-opt") is MilpOpt

    def test_policy_names_follow_relaxation(self):
        assert IlpPlacement().name == "ILP"
        assert IlpPlacement(relax=True).name == "LP"
        assert MilpOpt().name == "MILP-OPT"

    def test_solver_knobs_fold_into_cache_keys(self):
        def spec(params):
            return ExperimentSpec(
                topology=TopologySpec("line", {"n": 3}),
                scenario=ScenarioSpec("commuter", {"period": 2, "sojourn": 1}),
                policies=(PolicySpec("ilp", params, label="ILP"),),
                costs=CostSpec.paper_default(),
                horizon=5,
            )

        base = spec({"epoch": 10}).cache_key()
        assert spec({"epoch": 10}).cache_key() == base  # deterministic
        assert spec({"epoch": 20}).cache_key() != base
        assert spec({"epoch": 10, "relax": True}).cache_key() != base
        assert spec({"epoch": 10, "window": 30}).cache_key() != base
        assert spec({"epoch": 10, "backend": "auto"}).cache_key() != base
        assert spec({"epoch": 10, "time_limit": 1.0}).cache_key() != base


class TestIlpPlacementKnobs:
    def test_invalid_knobs_raise(self):
        with pytest.raises(ValueError):
            IlpPlacement(epoch=0)
        with pytest.raises(ValueError):
            IlpPlacement(window=0)
        with pytest.raises(ValueError):
            IlpPlacement(time_limit=0.0)
        with pytest.raises(ValueError):
            IlpPlacement(max_servers=0)
        with pytest.raises(ValueError, match="unknown solver backend"):
            IlpPlacement(backend="cplex")

    def test_migration_matrix_unsupported(self):
        substrate = line(3, seed=0)
        costs = CostModel(migration_matrix=np.ones((3, 3)) - np.eye(3))
        with pytest.raises(NotImplementedError):
            IlpPlacement().reset(substrate, costs, np.random.default_rng(0))

    def test_start_node_out_of_range(self):
        substrate = line(3, seed=0)
        with pytest.raises(ValueError, match="start node"):
            IlpPlacement(start_node=7).reset(
                substrate, CostModel.paper_default(), np.random.default_rng(0)
            )

    def test_epoch_cadence_holds_configuration_between_solves(self):
        substrate = line(4, seed=1, **_LINE_PARAMS)
        policy = IlpPlacement(epoch=3, start_node=0)
        rounds = [[3, 3]] * 7
        configs = _drive(policy, substrate, rounds)
        assert configs[0] == Configuration.single(0)
        # rounds 0..1 are mid-epoch: configuration unchanged
        assert configs[1] == configs[0]
        assert configs[2] == configs[0]
        # round 2 closes the first epoch: demand at node 3 moves the fleet
        assert configs[3] != configs[0]
        assert 3 in configs[3].active
        # mid-epoch again
        assert configs[4] == configs[3]
        assert configs[5] == configs[3]

    def test_empty_demand_epoch_keeps_fleet(self):
        substrate = line(3, seed=1, **_LINE_PARAMS)
        policy = IlpPlacement(epoch=2, start_node=1)
        configs = _drive(policy, substrate, [[], [], [], []])
        for config in configs:
            assert config.active == (1,)

    def test_deactivated_server_enters_inactive_cache(self):
        substrate = line(4, seed=1, **_LINE_PARAMS)
        policy = IlpPlacement(epoch=2, start_node=0)
        configs = _drive(policy, substrate, [[3], [3]])
        moved = configs[-1]
        assert 3 in moved.active
        # the abandoned start server is cached inactive, not discarded
        assert 0 in moved.inactive

    def test_relaxation_rounds_deterministically(self):
        substrate = line(4, seed=2, **_LINE_PARAMS)
        rounds = [[0, 3], [0, 3], [0, 3]]
        a = _drive(IlpPlacement(epoch=3, relax=True, start_node=1),
                   substrate, rounds)
        b = _drive(IlpPlacement(epoch=3, relax=True, start_node=1),
                   substrate, rounds)
        assert a == b

    def test_substrate_capacities_picked_up_automatically(self):
        substrate = line(3, seed=3, capacity=1.0, **_LINE_PARAMS)
        policy = IlpPlacement(epoch=2, start_node=1)
        configs = _drive(policy, substrate, [[0, 1, 2]] * 2)
        assert configs[-1].n_active == 3

    def test_max_servers_caps_the_fleet(self):
        substrate = line(4, seed=4, **_LINE_PARAMS)
        policy = IlpPlacement(epoch=2, start_node=0, max_servers=1)
        configs = _drive(policy, substrate, [[0, 1, 2, 3]] * 4)
        for config in configs:
            assert config.n_active <= 1

    def test_consumes_no_randomness(self):
        """CRN safety: the rng handed to reset is never advanced."""
        substrate = line(3, seed=5, **_LINE_PARAMS)
        rng = np.random.default_rng(42)
        IlpPlacement(epoch=2).reset(
            substrate, CostModel.paper_default(), rng
        )
        untouched = np.random.default_rng(42)
        assert rng.integers(0, 1 << 30) == untouched.integers(0, 1 << 30)


class TestPlacementModel:
    def test_unit_loads_linear_default(self):
        substrate = line(3, seed=0)
        costs = CostModel.paper_default()
        loads = unit_loads(substrate, costs)
        assert loads.shape == (3,)
        assert np.all(loads >= 0)

    def test_round_fractional_ties_to_lower_index(self):
        x = np.array([0.5, 0.5, 0.2])
        assert round_fractional(x, None, 1.0, None) == (0,)

    def test_round_fractional_extends_for_capacity(self):
        x = np.array([0.9, 0.1, 0.0])
        capacities = np.ones(3)
        # rate 2.5 needs three unit-capacity nodes even though Σx rounds to 1
        assert round_fractional(x, capacities, 2.5, None) == (0, 1, 2)

    def test_round_fractional_respects_max_servers(self):
        x = np.array([0.9, 0.8, 0.7])
        assert round_fractional(x, None, 1.0, 2) == (0, 1)

    def test_occupied_nodes_reopen_for_free(self):
        substrate = line(2, seed=0, **_LINE_PARAMS)
        costs = CostModel.paper_default()
        demand = np.array([1, 1, 1], dtype=np.int64)
        free = build_placement(
            substrate, costs, demand, window_rounds=2, epoch_rounds=2,
            occupied=frozenset({1}),
        )
        paid = build_placement(
            substrate, costs, demand, window_rounds=2, epoch_rounds=2,
            occupied=frozenset(),
        )
        assert free.program.solve().objective < paid.program.solve().objective


class TestMilpOptGuards:
    def test_variable_count_guard(self):
        substrate = line(3, seed=0, **_LINE_PARAMS)
        trace = Trace(tuple(
            np.arange(3, dtype=np.int64) for _ in range(6)
        ))
        policy = MilpOpt(max_variables=10)
        policy.prepare(trace)
        with pytest.raises(ValueError, match="use Opt or BeamOpt"):
            policy.reset(
                substrate, CostModel.paper_default(), np.random.default_rng(0)
            )

    def test_reset_before_prepare_raises(self):
        substrate = line(2, seed=0)
        with pytest.raises(RuntimeError, match="prepare"):
            MilpOpt().reset(
                substrate, CostModel.paper_default(), np.random.default_rng(0)
            )

    def test_properties_before_solve_raise(self):
        policy = MilpOpt()
        with pytest.raises(RuntimeError):
            policy.solver_objective
        with pytest.raises(RuntimeError):
            policy.plan

    def test_migration_matrix_unsupported(self):
        substrate = line(3, seed=0, **_LINE_PARAMS)
        costs = CostModel(migration_matrix=np.ones((3, 3)) - np.eye(3))
        policy = MilpOpt()
        policy.prepare(Trace((np.zeros(1, np.int64),)))
        with pytest.raises(NotImplementedError):
            policy.reset(substrate, costs, np.random.default_rng(0))

    def test_invalid_knobs_raise(self):
        with pytest.raises(ValueError):
            MilpOpt(max_servers=0)
        with pytest.raises(ValueError):
            MilpOpt(time_limit=-1.0)

    def test_empty_horizon_solves_trivially(self):
        substrate = line(2, seed=0, **_LINE_PARAMS)
        cost, plan = MilpOpt.solve(substrate, Trace(()))
        assert cost == 0.0
        assert plan == []

    def test_max_servers_bounds_occupancy(self):
        substrate = line(3, seed=1, **_LINE_PARAMS)
        rng = np.random.default_rng(1)
        trace = Trace(tuple(
            rng.integers(0, 3, size=2) for _ in range(4)
        ))
        _, plan = MilpOpt.solve(substrate, trace, max_servers=1)
        for config in plan:
            assert config.n_active + config.n_inactive <= 1


class TestOptimFigure:
    def test_figure_runs_in_the_simulated_pipeline(self):
        result = figures.figure_optim(sojourns=(2,), horizon=20, runs=2)
        data = result.to_dict()
        assert set(data["series"]) == {"ILP", "LP", "ONTH", "ONBR", "OPT"}
        comparisons = {c["contrast"] for c in data["comparisons"]}
        # paired ratios against the ILP baseline, via ComparisonSpec
        assert comparisons == {"LP", "ONTH", "ONBR", "OPT"}
        for comparison in data["comparisons"]:
            assert comparison["baseline"] == "ILP"
            assert comparison["mode"] == "ratio"

    def test_figure_bit_identical_to_golden(self):
        golden = json.loads(GOLDEN_PATH.read_text())["optim"]
        params = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in golden["params"].items()
        }
        result = figures.figure_optim(**params).to_dict()
        assert result == golden["result"]

    def test_opt_dominates_every_policy_in_golden(self):
        """Sanity on the pinned numbers: OPT's series is the floor."""
        golden = json.loads(GOLDEN_PATH.read_text())["optim"]
        series = golden["result"]["series"]
        opt = series["OPT"]
        for label, means in series.items():
            for mean, floor in zip(means, opt):
                assert mean >= floor - 1e-9, label


class TestSimulatorIntegration:
    def test_ilp_runs_through_simulate(self):
        substrate = line(5, seed=7, **_LINE_PARAMS)
        rng = np.random.default_rng(3)
        trace = Trace(tuple(
            rng.integers(0, 5, size=rng.integers(0, 4)) for _ in range(25)
        ))
        result = simulate(
            substrate, IlpPlacement(epoch=5), trace,
            CostModel.paper_default(), seed=0,
        )
        assert result.policy_name == "ILP"
        assert result.total_cost > 0
        relaxed = simulate(
            substrate, IlpPlacement(epoch=5, relax=True), trace,
            CostModel.paper_default(), seed=0,
        )
        assert relaxed.policy_name == "LP"

    def test_window_spanning_epochs_changes_decisions(self):
        substrate = line(4, seed=2, **_LINE_PARAMS)
        # demand alternates ends; a long window sees both, a short one only
        # the most recent end
        rounds = [[0], [0], [3], [3]] * 2
        short = _drive(IlpPlacement(epoch=2, start_node=1), substrate, rounds)
        long = _drive(
            IlpPlacement(epoch=2, window=8, start_node=1), substrate, rounds
        )
        assert short != long
