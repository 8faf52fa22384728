"""The memoised epoch decision, :func:`repro.algorithms._families.choose`.

ONBR and ONTH ask ``choose`` for the one family representative they act
on, and a gather window memoises it under its content key. These tests pin
what makes that safe and what makes it pay:

* on gathered windows, the memoised decision is the selection the policies
  made before from a fresh family list on a plain
  :class:`~repro.core.evaluation.RequestBatch`, for ONBR, ONTH's small
  epochs and ONTH's large epochs, at several substrate sizes;
* a window that recurs elsewhere in the trace is served from the memo,
  without assembling its family list;
* the key names every input: a state that differs from a primed one in a
  single input must miss.
"""

from dataclasses import astuple

import numpy as np
import pytest

from repro.algorithms import _families
from repro.algorithms._families import (
    best_addition,
    best_choice,
    choose,
    enumerate_choices,
)
from repro.algorithms.onth import OnTH
from repro.core.batch import DistanceGather
from repro.core.config import Configuration
from repro.core.costs import CostModel, bandwidth_migration_matrix
from repro.core.evaluation import RequestBatch
from repro.core.load import LinearLoad, QuadraticLoad
from repro.core.servercache import InactiveServerCache
from repro.core.simulator import simulate
from repro.topology.generators import erdos_renyi, line
from repro.topology.substrate import Substrate
from repro.workload.base import Trace


def select_onth_large(choices, n_rounds):
    """ONTH's large-epoch pick as it was written inline before ``choose``."""
    additions = [ch for ch in choices if ch.kind in ("activate", "create")]
    if not additions:
        return None
    return min(additions, key=lambda ch: (ch.access, ch.priority, ch.target))


#: name -> (rule handed to choose, family flags, the reference selection).
DECISIONS = {
    "onbr": (best_choice, (True, True, True), best_choice),
    "onth-small": (best_choice, (True, True, False), best_choice),
    "onth-large": (best_addition, (False, False, True), select_onth_large),
}


def choice_bits(choice):
    """A Choice with its floats as hex strings, so equality is bitwise."""
    if choice is None:
        return None
    return tuple(v.hex() if isinstance(v, float) else v for v in astuple(choice))


def window_over(gather, t0, t1):
    """A window holding rounds [t0, t1), built through the public API."""
    window = gather.new_window()
    rounds = gather.offset_list
    for t in range(t1):
        if t == t0:
            window.clear()
        window.add_round(np.zeros(rounds[t + 1] - rounds[t], dtype=np.int64))
    return window


def pooled_trace(n, rng, rounds=24, pool=5):
    """Rounds drawn from a small pool of request arrays, so windows recur."""
    arrays = [rng.integers(0, n, size=int(rng.integers(0, 9))) for _ in range(pool)]
    return Trace(tuple(arrays[int(i)] for i in rng.integers(0, pool, size=rounds)))


def random_state(n, rng, max_cached=2):
    """A configuration whose inactive tuple is also the cache's FIFO order."""
    nodes = rng.permutation(n).tolist()
    k = int(rng.integers(1, min(3, n - 1) + 1))
    cached = int(rng.integers(0, min(max_cached, n - k) + 1))
    config = Configuration(tuple(nodes[:k]), tuple(nodes[k : k + cached]))
    return config, make_cache(config.inactive, 3)


def make_cache(nodes, max_size):
    cache = InactiveServerCache(max_size=max_size)
    for node in nodes:
        cache.push(node)
    return cache


@pytest.fixture(scope="module", params=(5, 50, 200))
def network(request):
    n = request.param
    substrate = erdos_renyi(n=n, p=min(1.0, 4.0 / n), seed=np.random.default_rng(n))
    return substrate


@pytest.mark.parametrize("load", ("dyadic", "quadratic"))
@pytest.mark.parametrize("decision", sorted(DECISIONS))
def test_memoised_decision_equals_plain_selection(network, decision, load):
    substrate = network
    if load == "quadratic":
        costs = CostModel.paper_default(load=QuadraticLoad(), wireless_hop=0.25)
    else:
        costs = CostModel.paper_default(load=LinearLoad())
    rule, flags, select = DECISIONS[decision]
    rng = np.random.default_rng([substrate.n, len(decision), len(load)])
    trace = pooled_trace(substrate.n, rng)
    gather = DistanceGather(substrate, costs, trace)
    decided = 0
    for _ in range(30):
        t0 = int(rng.integers(0, len(trace)))
        t1 = min(t0 + int(rng.integers(1, 5)), len(trace))
        config, cache = random_state(substrate.n, rng)
        plain = RequestBatch(substrate, costs, trace.rounds[t0:t1])
        expected = select(enumerate_choices(plain, config, cache, costs, *flags), t1 - t0)
        window = window_over(gather, t0, t1)
        for _attempt in range(2):  # a miss, then (for non-None) a hit
            got = choose(window, config, cache, costs, rule, *flags)
            assert choice_bits(got) == choice_bits(expected), (t0, t1, config)
        decided += expected is not None
    assert decided >= 20


def periodic_trace(period=5, days=3, n=12, seed=4):
    rng = np.random.default_rng(seed)
    day = tuple(rng.integers(0, n, size=int(rng.integers(1, 6))) for _ in range(period))
    return Trace(day * days)


def test_recurring_window_is_one_memo_hit(monkeypatch):
    substrate = line(12, seed=0)
    costs = CostModel.paper_default()
    trace = periodic_trace()
    gather = DistanceGather(substrate, costs, trace)
    config = Configuration((3, 8), (5,))
    cache = make_cache(config.inactive, 3)
    first = choose(window_over(gather, 1, 4), config, cache, costs, best_choice)

    lookups, assembled = [], []
    memo_get = gather.memo_get

    def counting_get(key):
        value = memo_get(key)
        lookups.append((key[0], value is not None))
        return value

    assemble = _families._assemble_choices

    def counting_assemble(*args):
        assembled.append(args)
        return assemble(*args)

    monkeypatch.setattr(gather, "memo_get", counting_get)
    monkeypatch.setattr(_families, "_assemble_choices", counting_assemble)
    # The same three rounds a period later, and two periods later.
    for t0 in (6, 11):
        again = choose(window_over(gather, t0, t0 + 3), config, cache, costs, best_choice)
        assert again is first
    assert lookups == [("choice", True), ("choice", True)]
    assert assembled == []


def test_policy_run_hits_the_decision_memo(monkeypatch):
    """ONTH over a periodic trace decides recurring epochs from the memo."""
    substrate = line(21, seed=0)
    spread = np.repeat(np.array([0, 10, 20, 5, 15], dtype=np.int64), 4)
    quiet = np.array([10, 10], dtype=np.int64)
    trace = Trace(((spread,) * 40 + (quiet,) * 300) * 4)
    costs = CostModel.paper_default()
    gather = DistanceGather(substrate, costs, trace)
    hits = []
    memo_get = gather.memo_get

    def counting_get(key):
        value = memo_get(key)
        if key[0] == "choice" and value is not None:
            hits.append(key)
        return value

    monkeypatch.setattr(gather, "memo_get", counting_get)
    together = simulate(substrate, OnTH(), trace, costs, seed=0, gather=gather)
    alone = simulate(substrate, OnTH(), iter(trace.rounds), costs, seed=0)
    assert hits
    assert together.total_cost == alone.total_cost
    assert np.array_equal(together.n_active, alone.n_active)


# -- key completeness ------------------------------------------------------------------

N = 12


def _other_inactive(state):
    config, nodes, max_size, flags, costs, rule = state
    if not config.inactive:
        return None
    free = sorted(set(range(N)) - set(config.occupied))
    inactive = (free[0],) + config.inactive[1:]
    return Configuration(config.active, inactive), nodes, max_size, flags, costs, rule


def _flip(i):
    def vary(state):
        config, nodes, max_size, flags, costs, rule = state
        flipped = tuple(not f if j == i else f for j, f in enumerate(flags))
        return config, nodes, max_size, flipped, costs, rule
    return vary


def _other_costs(state):
    config, nodes, max_size, flags, costs, rule = state
    other = CostModel(creation=250.0, migration_matrix=costs.migration_matrix)
    return config, nodes, max_size, flags, other, rule


def _other_rule(state):
    config, nodes, max_size, flags, costs, rule = state
    other = best_addition if rule is best_choice else best_choice
    return config, nodes, max_size, flags, costs, other


#: One input of choose changed at a time.
VARIATIONS = {
    "cache-order": lambda s: (s[0], s[1][::-1], *s[2:]),
    "cache-size": lambda s: (s[0], s[1], max(len(s[1]), 1), *s[3:]),
    "config-inactive": _other_inactive,
    "allow-migrate": _flip(0),
    "allow-deactivate": _flip(1),
    "allow-add": _flip(2),
    "costs": _other_costs,
    "rule": _other_rule,
}


def decide(batch, state):
    config, nodes, max_size, flags, costs, rule = state
    return choose(batch, config, make_cache(nodes, max_size), costs, rule, *flags)


@pytest.mark.parametrize("name", sorted(VARIATIONS))
def test_one_changed_input_misses(name):
    """Prime the memo with one state, then ask for a state that differs in
    one input only: the window must answer like a plain batch. Draws go on
    until the input really changes the decision, so dropping it from the
    key fails here."""
    er = erdos_renyi(n=N, p=0.3, seed=3)
    substrate = Substrate(N, er.links)
    # Cheap creation and migration, so that every family gets chosen.
    costs = CostModel(
        migration=40.0, creation=60.0,
        migration_matrix=bandwidth_migration_matrix(
            substrate, state_size_mbit=80.0, overhead=2.0
        ),
    )
    rng = np.random.default_rng(sorted(VARIATIONS).index(name))
    # Sparse and dense rounds: a few requests favour parking a server, many
    # make a migration pay off, so every input can decide the choice.
    sizes = [int(rng.integers(0, 8)) if i % 2 else int(rng.integers(8, 60)) for i in range(12)]
    trace = Trace(tuple(rng.integers(0, N, size=size) for size in sizes))
    sensitive = 0
    for _ in range(600):
        t0 = int(rng.integers(0, 8))
        t1 = t0 + int(rng.integers(1, 5))
        nodes = rng.permutation(N).tolist()
        k, n_cached = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        config = Configuration(tuple(nodes[:k]), tuple(nodes[k : k + n_cached]))
        base = (config, config.inactive, 3, (True, True, True), costs, best_choice)
        variant = VARIATIONS[name](base)
        if variant is None:
            continue
        plain = RequestBatch(substrate, costs, trace.rounds[t0:t1])
        expected = decide(plain, variant)
        if choice_bits(expected) == choice_bits(decide(plain, base)):
            continue
        sensitive += 1
        window = window_over(DistanceGather(substrate, costs, trace), t0, t1)
        decide(window, base)
        assert choice_bits(decide(window, variant)) == choice_bits(expected)
        if sensitive >= 3:
            break
    assert sensitive >= 3
