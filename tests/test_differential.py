"""Differential tests: OPT against exhaustive brute force on tiny instances.

The OPT dynamic program is the reference every competitive-ratio figure and
every paired comparison divides by, so it gets an *independent* check: on
instances small enough to enumerate (≤ 3 nodes, ≤ 5 rounds), the cheapest
of **all** configuration sequences — priced with the simulator's own
primitives (:func:`route_requests`, :func:`price_transition`,
:meth:`CostModel.running_cost`), not OPT's vectorised tables — must equal
the DP's optimum, which must equal the simulated OPT ledger total.

On top of that, optimality itself is pinned through the paired-comparison
machinery: every no-arg online policy's per-replicate paired difference
against OPT is non-negative on hypothesis-randomised tiny instances — OPT
never loses a single shared-trace replicate, not just the average.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.opt import Opt
from repro.api.experiment import run_replicate, run_sweep
from repro.api.specs import (
    ComparisonSpec,
    CostSpec,
    ExperimentSpec,
    PolicySpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
)
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.routing import route_capacitated, route_requests
from repro.core.simulator import simulate
from repro.core.transitions import price_transition
from repro.topology.generators import line
from repro.workload.base import Trace

SLOW = dict(deadline=None)

#: Every registered online policy with a no-argument construction.
_ONLINE_POLICY_KINDS = ("onth", "onbr", "onbr-dyn", "onconf", "wfa")

#: The OPT line substrate of the paper's §V-A, at differential-test size.
_LINE_PARAMS = {"unit_latency": False, "latency_range": (5.0, 20.0)}


def brute_force_optimal(substrate, trace, costs) -> float:
    """The cheapest cost of *any* configuration sequence, by enumeration.

    Mirrors the simulator's §II-E accounting exactly — round ``t``'s
    requests are served by the configuration left after round ``t - 1``,
    then the transition and the new configuration's running costs are paid
    — starting from one active server at the network center (OPT's γ0).
    Every state keeps at least one active server (OPT's ``require_active``
    default). Deliberately priced with the simulator's scalar primitives,
    sharing no code with OPT's vectorised transition/access tables. On a
    capacitated substrate a round is routed by the game's capacity rule,
    and a configuration that cannot pack it is no strategy (infinite cost).
    """
    n = substrate.n
    configs = []
    for assignment in product((0, 1, 2), repeat=n):
        active = tuple(i for i, s in enumerate(assignment) if s == 2)
        inactive = tuple(i for i, s in enumerate(assignment) if s == 1)
        if active:
            configs.append(Configuration(active, inactive))
    start = configs.index(Configuration.single(substrate.center))

    def access_cost(config, t):
        servers = np.asarray(config.active, dtype=np.int64)
        if not substrate.capacitated:
            return route_requests(substrate, servers, trace[t], costs).access_cost
        try:
            return route_capacitated(
                substrate, servers, trace[t], costs,
                substrate.capacities.copy(), t,
            ).access_cost
        except ValueError:
            return float("inf")

    access = [
        [access_cost(config, t) for config in configs]
        for t in range(len(trace))
    ]
    transition = [
        [
            price_transition(old, new, costs).migration_cost
            + price_transition(old, new, costs).creation_cost
            for new in configs
        ]
        for old in configs
    ]
    running = [costs.running_cost(config) for config in configs]

    best = float("inf")
    for sequence in product(range(len(configs)), repeat=len(trace)):
        previous = start
        total = 0.0
        for t, state in enumerate(sequence):
            total += access[t][previous] + transition[previous][state] \
                + running[state]
            previous = state
        best = min(best, total)
    return best


def random_trace(rng, n_nodes, rounds, max_requests=3) -> Trace:
    return Trace(
        tuple(
            rng.integers(0, n_nodes, size=rng.integers(0, max_requests + 1))
            for _ in range(rounds)
        )
    )


class TestBruteForceDifferential:
    @settings(max_examples=12, **SLOW)
    @given(
        seed=st.integers(0, 10_000),
        rounds=st.integers(1, 5),
        beta=st.sampled_from([40.0, 400.0]),
        creation=st.sampled_from([40.0, 400.0]),
    )
    def test_two_node_line_all_sequences(self, seed, rounds, beta, creation):
        substrate = line(2, seed=seed, **_LINE_PARAMS)
        rng = np.random.default_rng(seed)
        trace = random_trace(rng, 2, rounds)
        costs = CostModel(migration=beta, creation=creation,
                          run_active=2.5, run_inactive=0.5)
        expected = brute_force_optimal(substrate, trace, costs)
        opt_cost, _plan = Opt.solve(substrate, trace, costs)
        assert opt_cost == pytest.approx(expected, rel=1e-9)

    @settings(max_examples=8, **SLOW)
    @given(
        seed=st.integers(0, 10_000),
        rounds=st.integers(1, 3),
        beta=st.sampled_from([40.0, 400.0]),
    )
    def test_three_node_line_all_sequences(self, seed, rounds, beta):
        """3 nodes → 19 feasible states; ≤ 3 rounds keeps 19^T enumerable."""
        substrate = line(3, seed=seed, **_LINE_PARAMS)
        rng = np.random.default_rng(seed)
        trace = random_trace(rng, 3, rounds)
        costs = CostModel(migration=beta, creation=440.0 - beta,
                          run_active=2.5, run_inactive=0.5)
        expected = brute_force_optimal(substrate, trace, costs)
        opt_cost, _plan = Opt.solve(substrate, trace, costs)
        assert opt_cost == pytest.approx(expected, rel=1e-9)

    def test_dp_value_equals_simulated_opt_ledger(self):
        substrate = line(3, seed=4, **_LINE_PARAMS)
        rng = np.random.default_rng(4)
        trace = random_trace(rng, 3, 5)
        costs = CostModel.paper_default()
        opt_cost, _plan = Opt.solve(substrate, trace, costs)
        policy = Opt()
        result = simulate(substrate, policy, trace, costs, seed=0)
        assert result.total_cost == pytest.approx(opt_cost, rel=1e-9)
        assert result.total_cost == pytest.approx(
            brute_force_optimal(substrate, trace, costs), rel=1e-9
        )


def _tiny_opt_experiment(sojourn, costs) -> ExperimentSpec:
    return ExperimentSpec(
        topology=TopologySpec("line", {"n": 3, **_LINE_PARAMS}),
        scenario=ScenarioSpec(
            "commuter", {"period": 2, "sojourn": sojourn}
        ),
        policies=(
            PolicySpec("opt", label="OPT"),
            *(PolicySpec(kind) for kind in _ONLINE_POLICY_KINDS),
        ),
        costs=costs,
        horizon=5,
    )


class TestOnlinePairedAgainstOpt:
    @settings(max_examples=10, **SLOW)
    @given(
        seed=st.integers(0, 10_000),
        sojourn=st.integers(1, 4),
        expensive=st.booleans(),
    )
    def test_every_replicate_diff_vs_opt_is_nonnegative(
        self, seed, sojourn, expensive
    ):
        """OPT lower-bounds every online policy *per shared-trace replicate*."""
        costs = (
            CostSpec.migration_expensive() if expensive
            else CostSpec.paper_default()
        )
        sample = run_replicate(
            _tiny_opt_experiment(sojourn, costs), np.random.default_rng(seed)
        )
        for label, total in sample.items():
            if label != "OPT":
                assert total - sample["OPT"] >= -1e-6, label

    def test_sweep_comparison_vs_opt_baseline_is_nonnegative(self):
        """The ComparisonSpec path reports the same invariant: every paired
        mean difference against the OPT baseline is >= 0."""
        sweep = SweepSpec(
            experiment=_tiny_opt_experiment(2, CostSpec.paper_default()),
            parameter="scenario.sojourn",
            values=(1, 3),
            runs=3,
            seed=11,
            figure="diff-opt",
            comparison=ComparisonSpec(baseline="OPT"),
        )
        result = run_sweep(sweep)
        assert len(result.comparisons) == len(_ONLINE_POLICY_KINDS)
        for comparison in result.comparisons:
            assert comparison.baseline == "OPT"
            for value in comparison.values:
                assert value >= -1e-6, comparison.contrast
