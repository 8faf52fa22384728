"""Differential test of the two round sources of ``simulate``.

``simulate`` runs a materialised :class:`~repro.workload.base.Trace` over a
:class:`~repro.core.batch.DistanceGather` (span routing, gather windows)
and any other round-iterable round by round (``route_requests``, plain
``RequestBatch`` windows). The streamed source is the reference: for every
registered policy, both must produce the same ledger bit for bit, under
nearest and load-aware routing, linear loads of several strengths, the
quadratic load, a wireless hop and a migration matrix. Offline policies
materialise streamed input first, so both of their sides run gathered.
"""

import numpy as np
import pytest

import repro.core.simulator as simulator
from repro.api.registry import list_policies, resolve_policy
from repro.core.batch import DistanceGather
from repro.core.config import Configuration
from repro.core.costs import CostModel, bandwidth_migration_matrix
from repro.core.load import LinearLoad, QuadraticLoad
from repro.core.policy import OfflinePolicy
from repro.core.routing import RoutingStrategy
from repro.core.simulator import simulate
from repro.topology.generators import erdos_renyi, line
from repro.topology.substrate import Substrate
from repro.workload.base import generate_trace
from repro.workload.commuter import CommuterScenario
from repro.workload.timezones import TimeZoneScenario

LEDGER_FIELDS = (
    "latency_cost", "load_cost", "running_cost", "migration_cost",
    "creation_cost", "migrations", "creations", "n_active",
    "n_inactive", "n_requests",
)

#: name -> (builder taking the substrate, runs on the tiny line only).
POLICIES = {
    "onth": (lambda sub: resolve_policy("onth")(), False),
    "onbr": (lambda sub: resolve_policy("onbr")(), False),
    "onbr-dyn": (lambda sub: resolve_policy("onbr-dyn")(), False),
    "onconf": (lambda sub: resolve_policy("onconf")(max_servers=2), False),
    "wfa": (lambda sub: resolve_policy("wfa")(max_servers=2), False),
    "static": (
        lambda sub: resolve_policy("static")(Configuration((0, sub.n - 1), ())),
        False,
    ),
    "offbr": (lambda sub: resolve_policy("offbr")(), False),
    "offth": (lambda sub: resolve_policy("offth")(), False),
    "offstat": (lambda sub: resolve_policy("offstat")(), False),
    "beamopt": (lambda sub: resolve_policy("beamopt")(beam_width=8), False),
    "opt": (lambda sub: resolve_policy("opt")(), True),
    "ilp": (lambda sub: resolve_policy("ilp")(epoch=4), True),
    "lp": (lambda sub: resolve_policy("lp")(epoch=4, relax=True), True),
    "milp-opt": (lambda sub: resolve_policy("milp-opt")(), True),
}

#: name -> (strength, load, wireless hop, routing, migration matrix?, scenario).
CASES = {
    "nearest-linear-s1": (1.0, LinearLoad(), 0.0, "nearest", False, "commuter"),
    "nearest-linear-s2-hop": (2.0, LinearLoad(), 1.5, "nearest", False, "commuter"),
    "nearest-linear-s3": (3.0, LinearLoad(), 0.0, "nearest", False, "commuter"),
    "nearest-quadratic": (1.0, QuadraticLoad(), 0.5, "nearest", False, "commuter"),
    "nearest-timezones": (1.0, LinearLoad(), 0.0, "nearest", False, "timezones"),
    "load-aware-quadratic": (1.0, QuadraticLoad(), 0.0, "load_aware", False, "commuter"),
    "load-aware-linear-s3": (3.0, LinearLoad(), 0.0, "load_aware", False, "commuter"),
    "migration-matrix": (1.0, LinearLoad(), 0.0, "nearest", True, "commuter"),
}

#: Policies whose planning model supports only a constant migration cost β.
CONSTANT_BETA_ONLY = {"opt", "ilp", "lp", "milp-opt"}

#: milp-opt solves one MILP per run (about a second here), so it runs the
#: cases that cover both routings, both load models and the hop.
MILP_CASES = {"nearest-linear-s2-hop", "load-aware-quadratic", "nearest-quadratic"}

PAIRS = [
    (name, case)
    for name in sorted(POLICIES)
    for case in sorted(CASES)
    if not (CASES[case][4] and name in CONSTANT_BETA_ONLY)
    and (name != "milp-opt" or case in MILP_CASES)
]


def build_case(case, tiny):
    """Substrate, costs, routing and trace of ``case``.

    Migration and creation are cheap, so every policy reconfigures within
    the short horizons. The tiny line carries time-zone demand, which
    moves across it; the random graph carries commuter demand.
    """
    strength, load, hop, routing, matrix, scenario = CASES[case]
    rng = np.random.default_rng(7)
    base = line(5, seed=rng) if tiny else erdos_renyi(n=24, p=0.1, seed=rng)
    substrate = Substrate(base.n, base.links, strengths=strength)
    costs = CostModel(
        migration=1.0,
        creation=8.0,
        run_active=1.0,
        run_inactive=0.2,
        load=load,
        wireless_hop=hop,
        migration_matrix=(
            bandwidth_migration_matrix(substrate) if matrix else None
        ),
    )
    if tiny or scenario == "timezones":
        generator = TimeZoneScenario(
            substrate, sojourn=3, requests_per_round=4, period=4
        )
    else:
        generator = CommuterScenario(substrate, period=4, sojourn=3)
    trace = generate_trace(generator, 8 if tiny else 48, rng)
    return substrate, costs, RoutingStrategy(routing), trace


@pytest.fixture
def gathers(monkeypatch):
    """Every DistanceGather simulate builds during the test."""
    built = []

    class CountingGather(DistanceGather):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(simulator, "DistanceGather", CountingGather)
    return built


def test_every_registered_policy_is_covered():
    registered = {resolve_policy(name) for name in list_policies()}
    covered = {resolve_policy(name) for name in POLICIES}
    assert registered == covered


@pytest.mark.parametrize("name,case", PAIRS)
def test_gathered_ledger_equals_streamed(name, case, gathers):
    build, tiny = POLICIES[name]
    substrate, costs, routing, trace = build_case(case, tiny)

    def run(rounds):
        return simulate(
            substrate, build(substrate), rounds, costs, routing=routing,
            seed=np.random.default_rng(3),
        )

    gathered = run(trace)
    assert len(gathers) == 1
    streamed = run(r for r in trace.rounds)
    offline = isinstance(build(substrate), OfflinePolicy)
    # Streamed input reaches an offline policy materialised, hence gathered.
    assert len(gathers) == (2 if offline else 1)

    assert gathered.policy_name == streamed.policy_name
    for field in LEDGER_FIELDS:
        a, b = getattr(gathered, field), getattr(streamed, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert np.array_equal(a, b), (
            f"{name}/{case}: {field} diverged at rounds "
            f"{np.nonzero(a != b)[0][:5]}"
        )


def test_unsized_stream_grows_its_ledger():
    # Longer than the first ledger allocation, so the columns double.
    substrate, costs, _, _ = build_case("nearest-linear-s1", True)
    long_trace = generate_trace(
        CommuterScenario(substrate, period=4), 2500, np.random.default_rng(1)
    )
    gathered = simulate(substrate, resolve_policy("onth")(), long_trace, costs)
    streamed = simulate(
        substrate, resolve_policy("onth")(), (r for r in long_trace.rounds), costs
    )
    sized = simulate(
        substrate, resolve_policy("onth")(), list(long_trace.rounds), costs
    )
    for run in (streamed, sized):
        assert run.rounds == 2500
        for field in LEDGER_FIELDS:
            column = getattr(run, field)
            assert not column.flags.writeable
            assert np.array_equal(column, getattr(gathered, field)), field


def test_empty_stream_gives_empty_ledger():
    substrate, costs, _, _ = build_case("nearest-linear-s1", True)
    run = simulate(substrate, resolve_policy("onbr")(), iter(()), costs)
    assert run.rounds == 0
    assert all(getattr(run, field).size == 0 for field in LEDGER_FIELDS)


def test_policy_windows_follow_the_source():
    substrate, costs, _, trace = build_case("nearest-linear-s1", False)
    policy = resolve_policy("onbr")()
    seen = []
    decide = policy.decide

    def spy(t, requests, routed):
        seen.append(type(policy._batch).__name__)
        return decide(t, requests, routed)

    policy.decide = spy
    simulate(substrate, policy, trace, costs)
    gathered = len(seen)  # fewer than the horizon when a day recurs
    simulate(substrate, policy, iter(trace.rounds), costs)
    horizon = len(trace)
    assert seen == ["GatherWindow"] * gathered + ["RequestBatch"] * horizon
    # The binding ends with the run: a direct reset gets a plain window.
    policy.reset(substrate, costs, np.random.default_rng(0))
    assert type(policy._batch).__name__ == "RequestBatch"


def test_failed_run_unbinds_the_gather():
    substrate, costs, _, trace = build_case("nearest-linear-s1", False)
    policy = resolve_policy("static")(Configuration((0, 1, 2), ()))
    with pytest.raises(ValueError, match="k=2 cap"):
        simulate(substrate, policy, trace, costs, max_servers=2)
    assert policy._run_gather is None
