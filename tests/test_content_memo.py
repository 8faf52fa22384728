"""The distance gather's content-keyed memo.

:class:`DistanceGather` interns every round, and a window's memo key is the
run of content ids it holds, not its position. A scan, a choice list or a
round's routing computed at one position is therefore served at every other
position holding the same rounds, and to every policy run over the gather.
These tests pin the three things that make that sharing safe:

* a value served from the memo at position B is byte for byte what a plain
  :class:`RequestBatch` over the same rounds computes (hypothesis);
* the choice memo's key names every input: policies that differ only in a
  parameter the choices read produce, on one shared gather, the ledgers
  they produce on private gathers;
* shared routing results cannot be written to.
"""

import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms._families import enumerate_choices
from repro.algorithms.offline_br import OffBR, OffTH
from repro.algorithms.onbr import OnBR
from repro.algorithms.onth import OnTH
from repro.core.batch import DistanceGather
from repro.core.config import Configuration
from repro.core.costs import CostModel, bandwidth_migration_matrix
from repro.core.evaluation import RequestBatch
from repro.core.load import LinearLoad, QuadraticLoad
from repro.core.results import LEDGER_COLUMNS
from repro.core.routing import route_requests
from repro.core.servercache import InactiveServerCache
from repro.core.simulator import _SpanRouter, simulate
from repro.topology.generators import erdos_renyi, line
from repro.topology.substrate import Substrate
from repro.workload.base import Trace

N = 12
FLAGS = list(itertools.product((False, True), repeat=3))
#: name -> (uniform strength, load). "dyadic" takes the scan's dyadic
#: shortcut, "s3" counts summed loads, "quadratic" refines its lower
#: bounds with exact re-scores.
LOADS = {
    "dyadic": (1.0, LinearLoad()),
    "s3": (3.0, LinearLoad()),
    "quadratic": (1.0, QuadraticLoad()),
}


@lru_cache(maxsize=None)
def setting(name):
    strength, load = LOADS[name]
    er = erdos_renyi(n=N, p=0.3, seed=3)
    substrate = Substrate(N, er.links, strengths=strength)
    return substrate, CostModel.paper_default(load=load, wireless_hop=0.25)


def window_over(gather, t0, t1):
    """A window holding rounds [t0, t1), built through the public API."""
    window = gather.new_window()
    rounds = gather.offset_list
    for t in range(t1):
        if t == t0:
            window.clear()
        window.add_round(np.zeros(rounds[t + 1] - rounds[t], dtype=np.int64))
    return window


def scan_bytes(scan):
    """Every field of an EpochScan as bytes (None stays None)."""
    return tuple(
        None if field is None else np.asarray(field).tobytes() for field in scan
    )


# -- interning -------------------------------------------------------------------


def test_round_ids_intern_equal_content():
    rounds = ([1, 2], [], [1, 2], [2, 1], [], [5], [1, 2])
    trace = Trace(tuple(np.asarray(r, dtype=np.int64) for r in rounds))
    substrate, costs = setting("dyadic")
    gather = DistanceGather(substrate, costs, trace)
    ids = gather.round_ids.tolist()
    for (i, a), (j, b) in itertools.combinations(enumerate(rounds), 2):
        assert (ids[i] == ids[j]) == (a == b), (i, j)
    # [1, 2] and [] recur, [2, 1] and [5] do not.
    assert gather.repeated_ids == 2
    assert {ids[0], ids[1]} == {0, 1}
    assert min(ids[3], ids[5]) >= gather.repeated_ids


def test_content_key_ignores_position():
    rounds = ([3], [4, 4], [3], [4, 4], [0])
    trace = Trace(tuple(np.asarray(r, dtype=np.int64) for r in rounds))
    substrate, costs = setting("dyadic")
    gather = DistanceGather(substrate, costs, trace)
    assert window_over(gather, 0, 2).content_key == window_over(gather, 2, 4).content_key
    assert window_over(gather, 0, 2).content_key != window_over(gather, 1, 3).content_key
    assert window_over(gather, 0, 2).content_key != window_over(gather, 3, 5).content_key


# -- content-memo differential --------------------------------------------------------


@st.composite
def recurring_windows(draw):
    """A trace holding one window of rounds twice, at positions a < b.

    Rounds come from a pool of a few random arrays (empty ones included),
    so other windows of the trace recur as well.
    """
    pool = draw(
        st.lists(
            st.lists(st.integers(0, N - 1), min_size=0, max_size=9),
            min_size=1, max_size=4,
        )
    )
    pick = st.integers(0, len(pool) - 1)
    window = draw(st.lists(pick, min_size=1, max_size=4))
    prefix = draw(st.lists(pick, max_size=4))
    middle = draw(st.lists(pick, max_size=4))
    suffix = draw(st.lists(pick, max_size=3))
    order = prefix + window + middle + window + suffix
    trace = Trace(tuple(np.asarray(pool[i], dtype=np.int64) for i in order))
    a = len(prefix)
    b = a + len(window) + len(middle)
    return trace, a, b, len(window)


@st.composite
def placements(draw):
    """A sorted active set of 1–3 nodes and its occupied nodes."""
    nodes = draw(st.permutations(range(N)))
    k = draw(st.integers(1, 3))
    cached = draw(st.integers(0, 2))
    active = tuple(sorted(nodes[:k]))
    occupied = sorted(nodes[: k + cached])
    return active, occupied


@settings(max_examples=60, deadline=None)
@given(
    recurring_windows(),
    placements(),
    st.sampled_from(sorted(LOADS)),
    st.sampled_from(FLAGS),
)
def test_scan_primed_elsewhere_equals_plain_batch(case, placement, load, flags):
    trace, a, b, length = case
    active, occupied = placement
    substrate, costs = setting(load)
    gather = DistanceGather(substrate, costs, trace)

    primed = window_over(gather, a, a + length).epoch_scan(active, occupied, *flags)
    served = window_over(gather, b, b + length).epoch_scan(active, occupied, *flags)

    plain = RequestBatch(substrate, costs, trace.rounds[b : b + length])
    assert scan_bytes(served) == scan_bytes(plain.epoch_scan(active, occupied, *flags))


@settings(max_examples=60, deadline=None)
@given(recurring_windows(), placements(), st.sampled_from(["s3", "quadratic"]))
def test_exact_cost_primed_elsewhere_equals_plain_batch(case, placement, load):
    trace, a, b, length = case
    active, _ = placement
    substrate, costs = setting(load)
    gather = DistanceGather(substrate, costs, trace)
    assert gather.exact_strength is None  # the summed, non-fused load path

    window_over(gather, a, a + length).exact_access_cost(active)
    served = window_over(gather, b, b + length).exact_access_cost(active)
    plain = RequestBatch(substrate, costs, trace.rounds[b : b + length])
    assert np.float64(served).tobytes() == np.float64(
        plain.exact_access_cost(active)
    ).tobytes()


# -- choice-memo key completeness ------------------------------------------------------


def _other_inactive(config, nodes, max_size, flags, costs):
    free = sorted(set(range(N)) - set(config.occupied))
    if not config.inactive:
        return None
    inactive = (free[0],) + config.inactive[1:]
    return Configuration(config.active, inactive), nodes, max_size, flags, costs


def _flip(i):
    def vary(config, nodes, max_size, flags, costs):
        flipped = tuple(not f if j == i else f for j, f in enumerate(flags))
        return config, nodes, max_size, flipped, costs
    return vary


#: One input of enumerate_choices changed at a time.
VARIATIONS = {
    "cache-max-size": lambda c, q, m, f, k: (c, q, max(len(q), 1), f, k),
    "cache-order": lambda c, q, m, f, k: (c, q[::-1], m, f, k),
    "config-inactive": _other_inactive,
    "allow-migrate": _flip(0),
    "allow-deactivate": _flip(1),
    "allow-add": _flip(2),
    "costs": lambda c, q, m, f, k: (c, q, m, f, CostModel(
        creation=250.0, migration_matrix=k.migration_matrix,
    )),
}


def choices_for(batch, config, nodes, max_size, flags, costs):
    cache = InactiveServerCache(max_size=max_size)
    for node in nodes:
        cache.push(node)
    return enumerate_choices(batch, config, cache, costs, *flags)


@pytest.mark.parametrize("name", sorted(VARIATIONS))
def test_choice_memo_key_names_every_input(name):
    """Prime the memo with one state, then ask for a state that differs in
    one input only: the window must answer like a plain batch. Draws
    continue until the input really changes the choices, so dropping it
    from the key fails here."""
    substrate, _ = setting("dyadic")
    costs = CostModel.paper_default(
        migration_matrix=bandwidth_migration_matrix(substrate)
    )
    rng = np.random.default_rng(sorted(VARIATIONS).index(name))
    rounds = tuple(rng.integers(0, N, size=int(rng.integers(0, 8))) for _ in range(10))
    trace = Trace(rounds)
    sensitive = 0
    for _ in range(300):
        t0 = int(rng.integers(0, 8))
        t1 = t0 + int(rng.integers(1, 3))
        nodes = rng.permutation(N).tolist()
        k, n_cached = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        config = Configuration(tuple(nodes[:k]), tuple(nodes[k : k + n_cached]))
        base = (config, config.inactive, 3, (True, True, True), costs)
        variant = VARIATIONS[name](*base)
        if variant is None:
            continue
        plain = RequestBatch(substrate, costs, trace.rounds[t0:t1])
        expected = choices_for(plain, *variant)
        if expected == choices_for(plain, *base):
            continue
        sensitive += 1
        window = window_over(DistanceGather(substrate, costs, trace), t0, t1)
        choices_for(window, *base)
        assert choices_for(window, *variant) == expected
    assert sensitive >= 3


def periodic_case(days=4):
    """A day of spread demand (ONBR/ONTH add servers) then a long quiet spell
    at the center (they deactivate into the cache), repeated."""
    substrate = line(21, seed=0)
    spread = np.repeat(np.array([0, 10, 20, 5, 15], dtype=np.int64), 4)
    quiet = np.array([10, 10], dtype=np.int64)
    trace = Trace(((spread,) * 40 + (quiet,) * 300) * days)
    return substrate, CostModel.paper_default(), trace


#: Policies that differ only in an input the epoch choices read. ONBR's
#: threshold factor is raised so that it adds (and later parks) servers.
SIBLINGS = {
    "onbr-cache-size": (
        lambda: OnBR(4.0, cache_size=3), lambda: OnBR(4.0, cache_size=1),
    ),
    "onth-cache-size": (lambda: OnTH(cache_size=3), lambda: OnTH(cache_size=1)),
    "onth-small-epoch": (
        lambda: OnTH(small_epoch_factor=2.0), lambda: OnTH(small_epoch_factor=3.0),
    ),
    "onbr-cache-expiry": (
        lambda: OnBR(4.0, cache_expiry=20), lambda: OnBR(4.0, cache_expiry=2),
    ),
    "onth-cache-expiry": (lambda: OnTH(cache_expiry=20), lambda: OnTH(cache_expiry=2)),
    "offline-beside-online": (
        OnTH, OffTH, lambda: OnBR(4.0), lambda: OffBR(4.0),
    ),
}


def ledger_bytes(result):
    return {name: getattr(result, name).tobytes() for name in LEDGER_COLUMNS}


@pytest.mark.parametrize("name", sorted(SIBLINGS))
def test_shared_gather_ledgers_equal_private(name):
    substrate, costs, trace = periodic_case()
    shared = DistanceGather(substrate, costs, trace)
    for make in SIBLINGS[name]:
        together = simulate(substrate, make(), trace, costs, seed=0, gather=shared)
        alone = simulate(substrate, make(), trace, costs, seed=0)
        assert ledger_bytes(together) == ledger_bytes(alone), make
    # The memo served the later runs: content recurs across runs and days.
    assert shared._memo


def test_siblings_decide_differently():
    """Each sibling pair really reaches different choice states."""
    substrate, costs, trace = periodic_case()
    for name, makers in SIBLINGS.items():
        ledgers = [
            simulate(substrate, make(), trace, costs, seed=0).total_cost
            for make in makers[:2]
        ]
        assert ledgers[0] != ledgers[1], name


# -- routing --------------------------------------------------------------------------


def test_recurring_round_routes_once_and_exactly():
    rounds = ([1, 5, 5, 7], [2], [1, 5, 5, 7], [9, 0])
    trace = Trace(tuple(np.asarray(r, dtype=np.int64) for r in rounds))
    substrate, costs = setting("s3")
    router = _SpanRouter(substrate, costs, DistanceGather(substrate, costs, trace))
    config = Configuration((0, 6))
    first = router.route(0, config)
    assert router.route(2, config) is first
    reference = route_requests(substrate, config.active_array, trace.rounds[2], costs)
    assert first.latency_cost == reference.latency_cost
    assert first.load_cost == reference.load_cost
    assert np.array_equal(first.counts, reference.counts)
    assert np.array_equal(first.assignment, reference.assignment)
    # The round that never recurs is routed without a memo entry.
    router.route(3, config)
    assert all(key[1] != int(router._gather.round_ids[3]) for key in router._gather._memo)


@pytest.mark.parametrize("t", [0, 1, 3])
def test_span_routing_arrays_are_read_only(t):
    rounds = ([1, 5, 5, 7], [2], [1, 5, 5, 7], [9, 0])
    trace = Trace(tuple(np.asarray(r, dtype=np.int64) for r in rounds))
    substrate, costs = setting("dyadic")
    router = _SpanRouter(substrate, costs, DistanceGather(substrate, costs, trace))
    routed = router.route(t, Configuration((0, 6)))
    with pytest.raises(ValueError, match="read-only"):
        routed.counts[0] = 99
    with pytest.raises(ValueError, match="read-only"):
        routed.assignment[0] = 1
