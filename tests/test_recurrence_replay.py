"""Replaying a periodic trace's recurring days (``simulate``'s day boundaries).

Over a gathered trace that repeats every ``P`` rounds, ``simulate`` reads a
keyed policy's :meth:`~repro.core.policy.AllocationPolicy.recurrence_key`
at each day boundary and, once the state recurs, copies the ledger rows of
the days in between instead of playing them. A streamed run of the same
rounds never replays, so it is the reference: every ledger column must
match it bit for bit. The spy tests pin when replay happens and when it
must not, and the key guard fails when a policy gains an attribute that is
neither in its key nor declared outside the state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import resolve_policy
from repro.core.batch import DistanceGather
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.simulator import simulate
from repro.topology.generators import erdos_renyi, line
from repro.traces.arrivals import GammaArrivalScenario
from repro.workload.base import Trace
from repro.workload.commuter import CommuterScenario

LEDGER_FIELDS = (
    "latency_cost", "load_cost", "running_cost", "migration_cost",
    "creation_cost", "migrations", "creations", "n_active",
    "n_inactive", "n_requests",
)

COSTS = CostModel.paper_default()
#: Thresholds ten and twenty times lower than the paper's, so epochs end
#: within a day of these small cases and states recur within a few days.
CHEAP = (CostModel(migration=4.0, creation=40.0), CostModel(migration=2.0, creation=20.0))


def trio(cache_size=3, cache_expiry=20, max_servers=None):
    """ONTH, ONBR and ONBR-dyn with the given cache and (ONTH's) server cap."""
    cache = {"cache_size": cache_size, "cache_expiry": cache_expiry}
    return (
        lambda: resolve_policy("onth")(max_servers=max_servers, **cache),
        lambda: resolve_policy("onbr")(**cache),
        lambda: resolve_policy("onbr-dyn")(**cache),
    )


def counted(policy):
    """``policy`` with its ``decide`` calls counted in ``policy.calls``."""
    decide = policy.decide
    policy.calls = 0

    def spy(t, requests, routed):
        policy.calls += 1
        return decide(t, requests, routed)

    policy.decide = spy
    return policy


def assert_same_ledger(a, b):
    for field in LEDGER_FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def commuter_case(n=30, period=4, sojourn=2, days=6, extra=0, dynamic=True, seed=7):
    rng = np.random.default_rng(seed)
    substrate = erdos_renyi(n=n, p=4.0 / n, seed=rng)
    scenario = CommuterScenario(
        substrate, period=period, sojourn=sojourn, dynamic_load=dynamic
    )
    return substrate, scenario.generate(days * period * sojourn + extra, rng)


# -- the differential: gathered (replays) == streamed (never replays) -----------


@st.composite
def periodic_cases(draw):
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        substrate = line(n=draw(st.integers(2, 8)), seed=seed)
    else:
        n = draw(st.integers(20, 60))
        substrate = erdos_renyi(n=n, p=4.0 / n, seed=seed)
    period = draw(st.sampled_from([2, 4, 6, 8]))
    sojourn = draw(st.integers(1, 5))
    day = period * sojourn
    horizon = draw(st.integers(2, 6)) * day + draw(st.integers(0, day - 1))
    scenario = CommuterScenario(
        substrate, period=period, sojourn=sojourn, dynamic_load=draw(st.booleans())
    )
    trace = scenario.generate(horizon, np.random.default_rng(seed))
    policies = trio(
        cache_size=draw(st.integers(1, 3)),
        cache_expiry=draw(st.sampled_from([1, 2, 20])),
        max_servers=draw(st.sampled_from([None, 1, 2])),
    )
    return substrate, trace, policies, draw(st.sampled_from((COSTS, *CHEAP)))


@settings(max_examples=80, deadline=None)
@given(periodic_cases())
def test_replayed_ledgers_equal_streamed_ones(case):
    substrate, trace, policies, costs = case
    gather = DistanceGather(substrate, costs, trace)
    for build in policies:
        gathered = simulate(substrate, build(), trace, costs, gather=gather)
        streamed = simulate(substrate, build(), iter(trace.rounds), costs)
        assert gathered.rounds == len(trace)
        assert_same_ledger(gathered, streamed)


# -- when a run replays, and when it must not -------------------------------------


def test_recurring_days_are_not_played():
    substrate, trace = commuter_case(period=6, days=6, extra=3)
    costs = CHEAP[0]
    for build in trio():
        policy = counted(build())
        gathered = simulate(substrate, policy, trace, costs)
        assert policy.calls < len(trace), policy.name
        # The object keeps its state at the recurrence round; reset drops it.
        assert policy._current_round == policy.calls - 1
        streamed = counted(build())
        assert_same_ledger(gathered, simulate(substrate, streamed, iter(trace.rounds), costs))
        assert streamed.calls == len(trace)


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("offbr", {}),
        ("offth", {}),
        ("onconf", {"max_servers": 1}),
        ("wfa", {"max_servers": 1}),
    ],
)
def test_offline_and_randomised_policies_play_every_round(name, kwargs):
    substrate, trace = commuter_case(n=20, days=5)
    assert DistanceGather(substrate, COSTS, trace).period == 8
    policy = counted(resolve_policy(name)(**kwargs))
    simulate(substrate, policy, trace, COSTS, seed=0)
    assert policy.calls == len(trace)


def test_aperiodic_trace_plays_every_round():
    rng = np.random.default_rng(3)
    substrate = erdos_renyi(n=30, p=4.0 / 30, seed=rng)
    trace = GammaArrivalScenario(substrate, rate=5.0).generate(200, rng)
    assert DistanceGather(substrate, COSTS, trace).period is None
    for build in trio():
        policy = counted(build())
        simulate(substrate, policy, trace, COSTS)
        assert policy.calls == len(trace)


def test_a_broken_first_round_breaks_the_period():
    substrate, periodic = commuter_case(days=6)
    rounds = list(periodic.rounds)
    rounds[0] = np.array([substrate.n - 1 if rounds[0][0] == 0 else 0])
    trace = Trace(tuple(rounds))
    assert DistanceGather(substrate, COSTS, trace).period is None
    for build in trio():
        policy = counted(build())
        gathered = simulate(substrate, policy, trace, COSTS)
        assert policy.calls == len(trace)
        assert_same_ledger(gathered, simulate(substrate, build(), iter(rounds), COSTS))


def test_keyless_policy_never_computes_the_period():
    substrate, trace = commuter_case(days=3)
    gather = DistanceGather(substrate, COSTS, trace)
    static = resolve_policy("static")(Configuration((substrate.center,), ()))
    simulate(substrate, static, trace, COSTS, gather=gather)
    assert gather._period == -1  # never computed
    simulate(substrate, resolve_policy("onbr")(), trace, COSTS, gather=gather)
    assert gather.period == 8


@pytest.mark.parametrize(
    "ids, period",
    [
        ([], None),
        ([4], None),
        ([1, 1], 1),
        ([1, 2, 1, 2, 1], 2),
        ([1, 2, 1, 2, 1, 3], None),
        ([1, 1, 2, 1, 1, 2, 1], 3),
        ([1, 1, 2, 1, 1], None),  # 2P would exceed the horizon
    ],
)
def test_smallest_period(ids, period):
    substrate = line(n=5)
    trace = Trace(tuple(np.array([node]) for node in ids))
    assert DistanceGather(substrate, COSTS, trace).period == period


# -- the key guard: every attribute is in the key or declared outside it --------

#: Attributes outside the state a recurrence key must hold, with the reason.
NOT_STATE = {
    # Constructor parameters and the run's bindings: fixed for a whole run.
    "_small_factor", "_threshold_factor", "_dynamic", "_cache_size",
    "_cache_expiry", "_start_node", "_max_servers", "_substrate", "_costs",
    "_run_gather",
    # Derived caches: the running cost of _config.
    "_run_config", "_run_cost",
    # The absolute round: only OFFBR/OFFTH's lookahead reads it.
    "_current_round",
}


def _bump(name):
    def perturb(policy):
        value = getattr(policy, name)
        setattr(policy, name, 3 if value is None else value + 1)

    return perturb


def _feed(name):
    # Round 0 of the gathered trace: its first request.
    return lambda policy: getattr(policy, name).add_round(policy._run_gather.flat[:1])


#: Keyed attribute -> a change the key must see.
PERTURB = {
    "_config": lambda policy: setattr(
        policy, "_config", Configuration((policy._config.active[0] + 1,))
    ),
    "_cache": lambda policy: policy._cache.push(policy._config.active[0] + 2),
    "_batch": _feed("_batch"),
    "_small_batch": _feed("_small_batch"),
    "_large_batch": _feed("_large_batch"),
    **{
        name: _bump(name)
        for name in (
            "_epoch_cost", "_epoch_rounds", "_previous_epoch_rounds",
            "_epoch_threshold", "_small_cost", "_large_access",
            "_large_running", "_small_threshold",
        )
    },
}


def _bound(name):
    """A fresh ``name`` policy reset over a gathered line trace."""
    substrate = line(n=6)
    trace = Trace(tuple(np.array([t % 6]) for t in range(8)))
    policy = resolve_policy(name)()
    policy._run_gather = DistanceGather(substrate, COSTS, trace)
    policy.reset(substrate, COSTS, np.random.default_rng(0))
    return policy


@pytest.mark.parametrize("name", ["onth", "onbr", "onbr-dyn"])
def test_every_attribute_is_keyed_or_declared(name):
    attributes = set(vars(_bound(name)))
    assert attributes - NOT_STATE - set(PERTURB) == set()
    for attribute in sorted(attributes & set(PERTURB)):
        policy = _bound(name)
        before = policy.recurrence_key()
        PERTURB[attribute](policy)
        assert policy.recurrence_key() != before, attribute


@pytest.mark.parametrize("name", ["onth", "onbr", "onbr-dyn"])
def test_key_holds_cache_ages_not_ticks(name):
    policy = _bound(name)
    policy._cache.push(5)
    young = policy.recurrence_key()
    policy._cache.tick_epoch()
    assert policy.recurrence_key() != young  # same nodes, older entry
    # The same ages after more ticks give the same key.
    policy._cache.remove(5)
    policy._cache.push(5)
    assert policy.recurrence_key() == young


@pytest.mark.parametrize("name", ["offbr", "offth", "onconf", "wfa", "opt"])
def test_lookahead_rng_and_planned_policies_have_no_key(name):
    assert resolve_policy(name)().recurrence_key() is None
