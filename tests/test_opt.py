"""Tests for the optimal offline dynamic program (repro.algorithms.opt).

The heavyweight checks: OPT's DP value equals its own simulated ledger,
matches exhaustive search over all configuration paths on tiny instances,
and lower-bounds every other policy (online or offline).
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.onbr import OnBR
from repro.algorithms.onth import OnTH
from repro.algorithms.opt import Opt, per_round_access_costs
from repro.algorithms.static import StaticPolicy
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.routing import route_requests
from repro.core.simulator import simulate
from repro.core.transitions import price_transition
from repro.topology.generators import line, star
from repro.workload.base import Trace, generate_trace
from repro.workload.commuter import CommuterScenario


def trace_of(*rounds):
    return Trace(tuple(np.asarray(r, dtype=np.int64) for r in rounds))


def brute_force_optimum(substrate, trace, costs, start_node):
    """Exhaustive search over all active-only configuration paths.

    Enumerates every sequence of non-empty active sets (no inactive servers)
    and prices it with the simulator's accounting. OPT searches a *larger*
    space (it may also use inactive servers), so OPT ≤ brute force must hold,
    and with Ri > 0 caching only helps when reuse is possible — on these
    tiny instances we can also assert near-equality when expected.
    """
    n = substrate.n
    states = [
        tuple(sorted(s))
        for size in range(1, n + 1)
        for s in _subsets(range(n), size)
    ]
    best = np.inf
    start = Configuration.single(start_node)
    for path in product(states, repeat=len(trace)):
        cost = 0.0
        prev = start
        for t, active in enumerate(path):
            cfg = Configuration(active)
            cost += route_requests(
                substrate, np.asarray(prev.active), trace[t], costs
            ).access_cost
            cost += price_transition(prev, cfg, costs).cost
            cost += costs.running_cost(cfg)
            prev = cfg
            if cost >= best:
                break
        best = min(best, cost)
    return best


def _subsets(items, size):
    from itertools import combinations

    return combinations(items, size)


class TestDpConsistency:
    def test_dp_value_equals_simulated_ledger(self, line5, costs, commuter_trace_line5):
        opt = Opt()
        result = simulate(line5, opt, commuter_trace_line5, costs)
        assert result.total_cost == pytest.approx(opt.optimal_cost)

    def test_dp_value_equals_ledger_beta_greater_c(
        self, line5, costs_expensive, commuter_trace_line5
    ):
        opt = Opt()
        result = simulate(line5, opt, commuter_trace_line5, costs_expensive)
        assert result.total_cost == pytest.approx(opt.optimal_cost)

    def test_plan_length_matches_trace(self, line5, costs, commuter_trace_line5):
        opt = Opt()
        simulate(line5, opt, commuter_trace_line5, costs)
        assert len(opt.plan) == len(commuter_trace_line5)

    def test_solve_classmethod_matches_policy(self, line5, costs, commuter_trace_line5):
        cost_a, plan_a = Opt.solve(line5, commuter_trace_line5, costs)
        opt = Opt()
        simulate(line5, opt, commuter_trace_line5, costs)
        assert cost_a == pytest.approx(opt.optimal_cost)
        assert plan_a == opt.plan


class TestExhaustiveCrossCheck:
    """OPT vs brute force on instances small enough to enumerate fully."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_three_nodes_three_rounds(self, seed):
        sub = line(3, seed=0, unit_latency=False, latency_range=(5, 20))
        rng = np.random.default_rng(seed)
        trace = trace_of(*[rng.integers(0, 3, size=3) for _ in range(3)])
        cm = CostModel(migration=10, creation=30, run_active=2, run_inactive=0.5)
        opt_cost, _plan = Opt.solve(sub, trace, cm, start_node=1)
        brute = brute_force_optimum(sub, trace, cm, start_node=1)
        assert opt_cost <= brute + 1e-9
        # with these costs caching is never cheaper than dropping + creating
        # within 3 rounds, so the active-only brute force is attainable
        assert opt_cost == pytest.approx(brute)

    def test_star_with_cheap_migration(self):
        sub = star(4, seed=0)
        trace = trace_of([1], [2], [3], [1])
        cm = CostModel(migration=1, creation=100, run_active=0.1, run_inactive=0.05)
        opt_cost, plan = Opt.solve(sub, trace, cm, start_node=0)
        brute = brute_force_optimum(sub, trace, cm, start_node=0)
        assert opt_cost <= brute + 1e-9


class TestOptimality:
    """OPT lower-bounds every policy on the same instance."""

    @pytest.mark.parametrize(
        "policy_factory",
        [
            lambda: OnTH(),
            lambda: OnBR(),
            lambda: OnBR(dynamic_threshold=True),
            lambda: StaticPolicy(Configuration((0, 4))),
            lambda: StaticPolicy(Configuration.single(2)),
        ],
    )
    def test_opt_leq_policy(self, line5_latency, costs, policy_factory):
        scenario = CommuterScenario(
            line5_latency, period=4, sojourn=5, dynamic_load=True
        )
        trace = generate_trace(scenario, 40, seed=9)
        policy_cost = simulate(
            line5_latency, policy_factory(), trace, costs, seed=0
        ).total_cost
        opt_cost, _ = Opt.solve(line5_latency, trace, costs)
        assert opt_cost <= policy_cost + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_opt_leq_random_static_policies(self, seed):
        sub = line(4, seed=0, unit_latency=False, latency_range=(5, 20))
        rng = np.random.default_rng(seed)
        trace = trace_of(*[rng.integers(0, 4, size=2) for _ in range(6)])
        cm = CostModel.paper_default()
        node = int(rng.integers(0, 4))
        static_cost = simulate(
            sub, StaticPolicy(Configuration.single(node)), trace, cm
        ).total_cost
        opt_cost, _ = Opt.solve(sub, trace, cm)
        assert opt_cost <= static_cost + 1e-9


class TestConstraints:
    def test_max_servers_respected(self, line5, costs, commuter_trace_line5):
        opt = Opt(max_servers=1)
        simulate(line5, opt, commuter_trace_line5, costs)
        assert all(cfg.n_servers <= 1 for cfg in opt.plan)

    def test_max_servers_increases_cost(self, line5_latency, costs):
        scenario = CommuterScenario(
            line5_latency, period=4, sojourn=3, dynamic_load=True
        )
        trace = generate_trace(scenario, 30, seed=2)
        unconstrained, _ = Opt.solve(line5_latency, trace, costs)
        constrained, _ = Opt.solve(line5_latency, trace, costs, max_servers=1)
        assert unconstrained <= constrained + 1e-9

    def test_state_space_guard(self):
        sub = line(12, seed=0)
        opt = Opt(max_states=100)
        opt.prepare(trace_of([0]))
        with pytest.raises(ValueError, match="state space"):
            simulate(sub, opt, trace_of([0]), CostModel.paper_default())

    def test_active_only_mode(self, line5, costs, commuter_trace_line5):
        full = Opt()
        restricted = Opt(allow_inactive=False)
        simulate(line5, full, commuter_trace_line5, costs)
        simulate(line5, restricted, commuter_trace_line5, costs)
        assert full.optimal_cost <= restricted.optimal_cost + 1e-9
        assert all(cfg.n_inactive == 0 for cfg in restricted.plan)

    def test_requires_prepare(self, line5, costs, rng):
        with pytest.raises(RuntimeError, match="prepare"):
            Opt().reset(line5, costs, rng)

    def test_migration_matrix_unsupported(self, line5, commuter_trace_line5, rng):
        cm = CostModel(migration_matrix=np.ones((5, 5)) - np.eye(5))
        opt = Opt()
        opt.prepare(commuter_trace_line5)
        with pytest.raises(NotImplementedError):
            opt.reset(line5, cm, rng)

    def test_unsolved_access_raises(self):
        opt = Opt()
        with pytest.raises(RuntimeError, match="not been solved"):
            opt.optimal_cost
        with pytest.raises(RuntimeError, match="not been solved"):
            opt.plan


class TestPerRoundAccessCosts:
    def test_matches_routing(self, line5, costs, commuter_trace_line5):
        active = np.asarray([1, 3])
        vector = per_round_access_costs(line5, costs, commuter_trace_line5, active)
        for t, requests in enumerate(commuter_trace_line5):
            expected = route_requests(line5, active, requests, costs).access_cost
            assert vector[t] == pytest.approx(expected)

    def test_empty_active_set_is_infeasible(self, line5, costs, tiny_trace):
        vector = per_round_access_costs(
            line5, costs, tiny_trace, np.zeros(0, dtype=np.int64)
        )
        sizes = tiny_trace.requests_per_round()
        assert np.isinf(vector[sizes > 0]).all()
        assert (vector[sizes == 0] == 0).all()


class TestPlanQuality:
    def test_tracks_moving_hotspot_when_cheap(self):
        """With tiny β, OPT follows the demand around the line."""
        sub = line(5, seed=0, unit_latency=False, latency_range=(10, 10))
        cm = CostModel(migration=1, creation=5, run_active=0.1, run_inactive=0.1)
        rounds = [[0]] * 5 + [[4]] * 5
        trace = trace_of(*rounds)
        cost, plan = Opt.solve(sub, trace, cm, start_node=0)
        assert plan[0].active == (0,)
        # the configuration serving the final round is plan[-2]
        assert plan[-2].hosts_active(4)

    def test_stays_put_when_migration_dear(self):
        sub = line(5, seed=0)
        cm = CostModel(migration=1000, creation=2000, run_active=0.1, run_inactive=0.1)
        trace = trace_of([2], [3], [2], [1], [2])
        cost, plan = Opt.solve(sub, trace, cm, start_node=2)
        assert all(cfg.active == (2,) for cfg in plan)


def _reference_forward_pass(value, access, transition_to, run):
    """The recurrence over the ``[from, to]`` matrix, argmin down columns."""
    transition = transition_to.T
    n_rounds, n_states = access.shape
    parents = np.empty((n_rounds, n_states), dtype=np.int32)
    for t in range(n_rounds):
        served = value + access[t]
        reachable = served[:, None] + transition
        parents[t] = np.argmin(reachable, axis=0)
        value = reachable[parents[t], np.arange(n_states)] + run
    return value, parents


class TestForwardPassDifferential:
    """The contiguous ``[to, from]`` pass equals the column-wise recurrence."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_column_recurrence(self, seed, monkeypatch):
        import repro.algorithms.opt as opt_module

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        sub = line(n, seed=seed, unit_latency=False, latency_range=(5, 20))
        trace = trace_of(*[
            rng.integers(0, n, size=rng.integers(0, 4))
            for _ in range(int(rng.integers(1, 40)))
        ])
        beta, creation = rng.choice([1.0, 10.0, 40.0, 400.0], size=2)
        run_active = float(rng.uniform(0, 3))
        cm = CostModel(
            migration=beta, creation=creation, run_active=run_active,
            run_inactive=float(rng.uniform(0, run_active)),
        )
        options = dict(
            start_node=int(rng.integers(0, n)),
            max_servers=[None, 1, 2][seed % 3],
            allow_inactive=bool(seed % 2),
            require_active=seed % 4 != 3,  # states with no server: rows of inf
        )
        passes = []
        real_pass = opt_module._forward_pass

        def recording(*args):
            passes.append((real_pass(*args), _reference_forward_pass(*args)))
            return passes[-1][0]

        monkeypatch.setattr(opt_module, "_forward_pass", recording)
        cost, plan = Opt.solve(sub, trace, cm, **options)
        monkeypatch.setattr(opt_module, "_forward_pass", _reference_forward_pass)
        reference_cost, reference_plan = Opt.solve(sub, trace, cm, **options)

        [((value, parents), (reference_value, reference_parents))] = passes
        assert np.array_equal(value, reference_value)
        assert np.array_equal(parents, reference_parents)
        assert cost == reference_cost
        assert plan == reference_plan
