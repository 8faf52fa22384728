"""Integration tests: every algorithm on every scenario on several topologies.

These are end-to-end matrix tests through the public API: build a substrate,
generate a trace, run the policy through the simulator, and check the ledger
invariants that must hold regardless of algorithm or workload:

* the run completes with one record per round;
* total cost equals the component sum;
* at least one server stays active whenever demand exists;
* OPT lower-bounds everything on the small topologies.
"""

import importlib

import numpy as np
import pytest

import repro
from repro import (
    CommuterScenario,
    CostModel,
    MobilityScenario,
    OffBR,
    OffStat,
    OffTH,
    OnBR,
    OnConf,
    OnTH,
    Opt,
    TimeZoneScenario,
    generate_trace,
    simulate,
)
from repro.topology.generators import grid, line, ring, star

HORIZON = 50

POLICY_FACTORIES = {
    "ONTH": lambda: OnTH(),
    "ONBR": lambda: OnBR(),
    "ONBR-dyn": lambda: OnBR(dynamic_threshold=True),
    "ONCONF": lambda: OnConf(max_servers=2),
    "OPT": lambda: Opt(),
    "OFFBR": lambda: OffBR(),
    "OFFTH": lambda: OffTH(),
    "OFFSTAT": lambda: OffStat(),
}


def scenarios_for(substrate):
    return {
        "commuter-dynamic": CommuterScenario(
            substrate, period=4, sojourn=4, dynamic_load=True
        ),
        "commuter-static": CommuterScenario(
            substrate, period=4, sojourn=4, dynamic_load=False
        ),
        "timezones": TimeZoneScenario(
            substrate, period=4, sojourn=4, requests_per_round=4
        ),
        "mobility": MobilityScenario(substrate, n_users=4, mean_sojourn=5.0),
    }


@pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
@pytest.mark.parametrize(
    "scenario_name", ["commuter-dynamic", "commuter-static", "timezones", "mobility"]
)
def test_policy_scenario_matrix(policy_name, scenario_name, line5_latency, costs):
    scenario = scenarios_for(line5_latency)[scenario_name]
    trace = generate_trace(scenario, HORIZON, seed=17)
    policy = POLICY_FACTORIES[policy_name]()
    result = simulate(line5_latency, policy, trace, costs, seed=3)

    assert result.rounds == HORIZON
    assert result.total_cost == pytest.approx(result.breakdown.total)
    assert (result.n_active >= 1).all()
    assert result.total_cost > 0


@pytest.mark.parametrize("make_substrate", [
    lambda: line(7, seed=1),
    lambda: ring(7, seed=1),
    lambda: star(7, seed=1),
    lambda: grid(3, 3, seed=1),
])
def test_online_algorithms_across_topologies(make_substrate, costs):
    substrate = make_substrate()
    scenario = TimeZoneScenario(substrate, period=3, sojourn=4, requests_per_round=5)
    trace = generate_trace(scenario, HORIZON, seed=23)
    for factory in (OnTH, OnBR):
        result = simulate(substrate, factory(), trace, costs, seed=1)
        assert result.rounds == HORIZON
        assert np.isfinite(result.total_cost)


def test_opt_lower_bounds_all_policies(line5_latency, costs):
    scenario = CommuterScenario(line5_latency, period=4, sojourn=4)
    trace = generate_trace(scenario, HORIZON, seed=31)
    opt_cost, _ = Opt.solve(line5_latency, trace, costs)
    for name, factory in POLICY_FACTORIES.items():
        if name == "OPT":
            continue
        result = simulate(line5_latency, factory(), trace, costs, seed=5)
        assert opt_cost <= result.total_cost + 1e-9, name


def test_shared_trace_makes_algorithms_comparable(line5_latency, costs):
    """Two policies simulated on one trace see identical demand series."""
    scenario = CommuterScenario(line5_latency, period=4, sojourn=4)
    trace = generate_trace(scenario, HORIZON, seed=37)
    a = simulate(line5_latency, OnTH(), trace, costs, seed=0)
    b = simulate(line5_latency, OnBR(), trace, costs, seed=0)
    np.testing.assert_array_equal(a.n_requests, b.n_requests)


def test_expensive_migration_regime_end_to_end(line5_latency, costs_expensive):
    scenario = CommuterScenario(line5_latency, period=4, sojourn=4)
    trace = generate_trace(scenario, HORIZON, seed=41)
    for factory in (OnTH, OnBR, OffStat):
        result = simulate(line5_latency, factory(), trace, costs_expensive, seed=2)
        # β > c: the pricer must never emit a migration
        assert result.total_migrations == 0


def test_public_api_surface():
    """Everything each package advertises in __all__ is importable and real,
    so an export left behind by a deleted name fails here."""
    for package in ("repro", "repro.api", "repro.analysis", "repro.experiments",
                    "repro.core", "repro.workload", "repro.util"):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name}"


def test_quickstart_docstring_example_runs():
    substrate = repro.erdos_renyi(50, seed=1)
    scenario = repro.CommuterScenario(substrate, sojourn=5)
    trace = repro.generate_trace(scenario, horizon=60, seed=2)
    result = repro.simulate(
        substrate, repro.OnTH(), trace, repro.CostModel.paper_default()
    )
    assert result.total_cost > 0
    assert result.breakdown.total == pytest.approx(result.total_cost)
