"""Differential tests: the time-expanded MILP against OPT and the heuristics.

:class:`~repro.algorithms.optim.MilpOpt` is the harness's *second*
independent optimum — it shares no code with OPT's dynamic program (LP
matrices vs bitmask tables) and none with the brute-force enumeration of
``test_differential.py``.  On tiny instances all three must coincide
**bit-for-bit**: the MILP replays its plan through the simulator's scalar
pricing primitives in the exact summation order of the enumeration, so the
comparison is ``==`` on floats, not an approx.

With binding per-node capacities the MILP replays its plan through the
game's capacity rule, so it equals a capacity-aware brute force too, and
the chain of bounds holds:

    uncapacitated OPT  ≤  capacitated MILP  ≤  every heuristic run the
                                               capacitated game can play

Examples are derandomised: hypothesis draws the same instances on every
run, so the bit-for-bit assertions cannot flake on a fresh near-tie.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.opt import Opt
from repro.algorithms.optim import MilpOpt
from repro.algorithms.static import StaticPolicy
from repro.api.registry import resolve_policy
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.policy import AllocationPolicy
from repro.core.simulator import simulate
from repro.topology.generators import line
from repro.workload.base import Trace

from test_differential import (
    _LINE_PARAMS,
    _ONLINE_POLICY_KINDS,
    brute_force_optimal,
    random_trace,
)

#: Same examples every run — bit-for-bit float equality must not flake.
EXACT = dict(deadline=None, derandomize=True)


class TestMilpAgainstBruteForce:
    @settings(max_examples=10, **EXACT)
    @given(
        seed=st.integers(0, 10_000),
        rounds=st.integers(1, 5),
        beta=st.sampled_from([40.0, 400.0]),
        creation=st.sampled_from([40.0, 400.0]),
    )
    def test_two_node_line_bit_for_bit(self, seed, rounds, beta, creation):
        substrate = line(2, seed=seed, **_LINE_PARAMS)
        rng = np.random.default_rng(seed)
        trace = random_trace(rng, 2, rounds)
        costs = CostModel(migration=beta, creation=creation,
                          run_active=2.5, run_inactive=0.5)
        expected = brute_force_optimal(substrate, trace, costs)
        milp_cost, plan = MilpOpt.solve(substrate, trace, costs)
        assert milp_cost == expected  # bit-for-bit: shared scalar pricing
        assert len(plan) == len(trace)

    @settings(max_examples=8, **EXACT)
    @given(
        seed=st.integers(0, 10_000),
        rounds=st.integers(1, 3),
        beta=st.sampled_from([40.0, 400.0]),
    )
    def test_three_node_line_bit_for_bit(self, seed, rounds, beta):
        substrate = line(3, seed=seed, **_LINE_PARAMS)
        rng = np.random.default_rng(seed)
        trace = random_trace(rng, 3, rounds)
        costs = CostModel(migration=beta, creation=440.0 - beta,
                          run_active=2.5, run_inactive=0.5)
        expected = brute_force_optimal(substrate, trace, costs)
        milp_cost, _plan = MilpOpt.solve(substrate, trace, costs)
        assert milp_cost == expected

    @settings(max_examples=10, **EXACT)
    @given(
        seed=st.integers(0, 10_000),
        rounds=st.integers(1, 5),
        expensive=st.booleans(),
    )
    def test_milp_equals_opt_dp(self, seed, rounds, expensive):
        """The two independent optima agree.

        Up to float associativity only: the DP folds its vectorised cost
        tables in a different summation order than the scalar replay, so
        this is an approx — the **bit-for-bit** guarantee is against the
        brute-force enumeration, which shares the replay's exact order.
        """
        substrate = line(3, seed=seed, **_LINE_PARAMS)
        rng = np.random.default_rng(seed)
        trace = random_trace(rng, 3, rounds)
        costs = (
            CostModel.migration_expensive() if expensive
            else CostModel.paper_default()
        )
        milp_cost, _ = MilpOpt.solve(substrate, trace, costs)
        opt_cost, _ = Opt.solve(substrate, trace, costs)
        assert milp_cost == pytest.approx(opt_cost, rel=1e-9)

    def test_simulated_milp_ledger_matches_solve(self):
        """Replaying the plan as an OfflinePolicy reproduces the solve cost."""
        substrate = line(3, seed=4, **_LINE_PARAMS)
        rng = np.random.default_rng(4)
        trace = random_trace(rng, 3, 5)
        costs = CostModel.paper_default()
        milp_cost, _ = MilpOpt.solve(substrate, trace, costs)
        result = simulate(substrate, MilpOpt(), trace, costs, seed=0)
        assert result.total_cost == pytest.approx(milp_cost, rel=1e-9)
        assert result.policy_name == "MILP-OPT"


def capacitated_trace(rng, n_nodes, rounds) -> Trace:
    """Rounds that are always packable under unit capacities on ``n`` nodes.

    Round 0 carries exactly one request (it is served by the single start
    server alone, so it must fit that node's capacity of 1); later rounds
    carry 1..n requests at *distinct* access points — so opening every node
    absorbs any round, yet unit capacities bind whenever a round carries
    more requests than there are active servers.
    """
    first = rng.integers(0, n_nodes, size=1)
    rest = (
        rng.permutation(n_nodes)[: rng.integers(1, n_nodes + 1)]
        for _ in range(rounds - 1)
    )
    return Trace((first, *rest))


class _RecordingPolicy(AllocationPolicy):
    """Wrap an online policy and record the configuration it starts from."""

    def __init__(self, inner: AllocationPolicy) -> None:
        self._inner = inner
        self.start: "Configuration | None" = None

    @property
    def name(self) -> str:
        return self._inner.name

    def reset(self, substrate, costs, rng):
        self.start = self._inner.reset(substrate, costs, rng)
        return self.start

    def decide(self, t, requests, routing):
        return self._inner.decide(t, requests, routing)


class TestCapacitatedBounds:
    @settings(max_examples=10, **EXACT)
    @given(
        seed=st.integers(0, 10_000),
        rounds=st.integers(2, 3),
        expensive=st.booleans(),
    )
    def test_capacitated_milp_equals_brute_force(self, seed, rounds, expensive):
        """The replayed MILP plan is the capacitated optimum of the game.

        To rel 1e-9, not bit for bit: the solver's plan may tie with
        another plan whose replay sums in a different order. ``simulate``
        plays the same plan for the same cost.
        """
        substrate = line(3, seed=seed, capacity=1.0, **_LINE_PARAMS)
        rng = np.random.default_rng(seed)
        trace = capacitated_trace(rng, 3, rounds)
        costs = (
            CostModel.migration_expensive() if expensive
            else CostModel.paper_default()
        )
        expected = brute_force_optimal(substrate, trace, costs)
        milp_cost, _ = MilpOpt.solve(substrate, trace, costs)
        assert milp_cost == pytest.approx(expected, rel=1e-9)
        played = simulate(substrate, MilpOpt(), trace, costs, seed=0)
        assert played.total_cost == pytest.approx(milp_cost, rel=1e-9)

    @settings(max_examples=10, **EXACT)
    @given(
        seed=st.integers(0, 10_000),
        rounds=st.integers(2, 5),
        expensive=st.booleans(),
    )
    def test_capacitated_milp_bounds_uncapacitated_opt(
        self, seed, rounds, expensive
    ):
        """Adding a packing constraint can only raise the optimum."""
        substrate = line(3, seed=seed, capacity=1.0, **_LINE_PARAMS)
        rng = np.random.default_rng(seed)
        trace = capacitated_trace(rng, 3, rounds)
        costs = (
            CostModel.migration_expensive() if expensive
            else CostModel.paper_default()
        )
        uncap_cost, _ = Opt.solve(substrate.with_capacities(None), trace, costs)
        cap_cost, plan = MilpOpt.solve(substrate, trace, costs)
        assert cap_cost >= uncap_cost - 1e-6
        # the capacitated plan really spreads servers: with unit capacities
        # a k-request round needs >= k active servers the round before
        for t in range(1, len(trace)):
            assert plan[t - 1].n_active >= len(trace[t])

    @settings(max_examples=8, **EXACT)
    @given(seed=st.integers(0, 10_000), rounds=st.integers(2, 5))
    def test_feasible_heuristics_dominate_capacitated_milp(self, seed, rounds):
        """Every heuristic run of the capacitated game costs >= the MILP.

        The MILP (``require_active=False`` — the weakest feasible set, so
        the bound holds for any heuristic plan) minimises over exactly the
        plans a policy could play. ``simulate`` prices each heuristic under
        the same capacities; a run that meets an unpackable round raises
        and is no strategy, so it is skipped.
        """
        substrate = line(3, seed=seed, capacity=1.0, **_LINE_PARAMS)
        rng = np.random.default_rng(seed)
        trace = capacitated_trace(rng, 3, rounds)
        costs = CostModel.paper_default()
        milp_cost, _ = MilpOpt.solve(
            substrate, trace, costs, require_active=False,
        )
        start = substrate.center
        checked = 0
        # the no-arg online heuristics, plus an all-active static fleet —
        # the latter always packs distinct-point rounds (every request is
        # served at its own node), so the invariant below is guaranteed to
        # be exercised at least once per example.
        policies = [resolve_policy(kind)() for kind in _ONLINE_POLICY_KINDS]
        policies.append(
            StaticPolicy(Configuration(tuple(range(substrate.n))))
        )
        for policy in policies:
            kind = policy.name
            recorder = _RecordingPolicy(policy)
            try:
                result = simulate(substrate, recorder, trace, costs, seed=0)
            except ValueError as error:
                assert "at capacity" in str(error), kind
                continue  # an unpackable round: not a play of the game
            if recorder.start != Configuration.single(start):
                continue  # different γ0: not comparable to this MILP
            assert result.total_cost >= milp_cost - 1e-6, kind
            checked += 1
        assert checked >= 1  # the invariant is exercised, not vacuous
