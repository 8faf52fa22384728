"""The epoch scan against brute force, and plain windows against gathered ones.

:meth:`RequestBatch.epoch_scan` scores the five single-change families of
an epoch boundary in one pass. Its fields are checked against an
enumeration of every candidate placement's ``exact_access_cost``. The
vectorised sums may differ from that enumeration in ULPs, so values agree
to a relative 1e-12. A :class:`GatherWindow` runs the same scan over its
gathered distance slices; policies argmin over these floats, so there the
contract is exact equality — of the raw scan arrays and of the ``Choice``
lists ``enumerate_choices`` assembles from them — on both sides of the
exact-load gate.
"""

import itertools

import numpy as np
import pytest

from repro.algorithms._families import Choice, apply_choice, enumerate_choices
from repro.core.batch import DistanceGather
from repro.core.config import Configuration
from repro.core.costs import CostModel, bandwidth_migration_matrix
from repro.core.evaluation import RequestBatch
from repro.core.load import PowerLoad, QuadraticLoad
from repro.core.servercache import InactiveServerCache
from repro.topology.generators import erdos_renyi
from repro.topology.substrate import Substrate
from repro.workload.base import Trace

N = 24
FLAGS = list(itertools.product((False, True), repeat=3))
#: Strength settings; the first three pass the exact-load gate under
#: LinearLoad, the last two do not.
STRENGTHS = {
    "s1.0": 1.0,
    "s0.5": 0.5,
    "s2.0": 2.0,
    "s3.0": 3.0,
    "nonuniform": "nonuniform",
}
COSTS = ("linear", "hop", "quadratic", "matrix", "power1.5")
#: Loads whose total depends on the split: scan entries may be lower bounds.
CONVEX = ("quadratic", "power1.5")
#: Every load model, for the plain-vs-gathered identity.
LOADS = ("linear", "quadratic", "power2.5")
REL = 1e-12


def build_substrate(strength, rng):
    er = erdos_renyi(n=N, p=0.15, seed=rng)
    if strength == "nonuniform":
        strength = rng.uniform(0.5, 2.0, N)
    return Substrate(N, er.links, strengths=strength)


def build_costs(kind, substrate):
    if kind == "linear":
        return CostModel.paper_default()
    if kind == "hop":
        return CostModel.paper_default(wireless_hop=0.7)
    if kind == "quadratic":
        return CostModel.paper_default(load=QuadraticLoad())
    if kind.startswith("power"):
        return CostModel.paper_default(load=PowerLoad(float(kind[len("power"):])))
    return CostModel.paper_default(
        migration_matrix=bandwidth_migration_matrix(substrate)
    )


def random_trace(rng, n_rounds):
    """Rounds of 0–11 requests; half the rounds draw from a few hot nodes so
    candidate costs tie, and some rounds are empty."""
    rounds = []
    for _ in range(n_rounds):
        high = N if rng.random() < 0.5 else 4
        rounds.append(rng.integers(0, high, size=int(rng.integers(0, 12))))
    return Trace(tuple(np.asarray(r, dtype=np.int64) for r in rounds), "test")


def window_over(gather, trace, t0, t1):
    """A GatherWindow holding rounds [t0, t1), built through the public API."""
    window = gather.new_window()
    for t in range(t0):
        window.add_round(trace.rounds[t])
    window.clear()
    for t in range(t0, t1):
        window.add_round(trace.rounds[t])
    return window


def random_state(rng, k):
    """A configuration with k active servers and a 0–3 entry cache."""
    nodes = rng.choice(N, size=k + 3, replace=False).tolist()
    cached = nodes[k : k + int(rng.integers(0, 4))]
    cache = InactiveServerCache(max_size=3)
    for node in cached:
        cache.push(node)
    return Configuration(tuple(nodes[:k]), cache.nodes), cache


def assert_scans_equal(reference, fused):
    assert reference.stay == fused.stay
    for field in ("migrate_target", "migrate_access", "removal", "addition"):
        a, b = getattr(reference, field), getattr(fused, field)
        if a is None or b is None:
            assert a is None and b is None, field
        else:
            assert np.array_equal(a, b), f"{field} not bit-identical"


def close(value, expected):
    return value == pytest.approx(expected, rel=REL, abs=REL)


def assert_scan_matches_brute_force(batch, active, occupied, flags, invariant):
    """Check every field of one scan against exact costs of its placements.

    Representatives are exact and optimal among free nodes. Other entries
    are exact under an invariant load and lower bounds otherwise.
    """
    migrate, deactivate, add = flags
    scan = batch.epoch_scan(active, occupied, migrate, deactivate, add)
    active = np.asarray(active, dtype=np.int64)
    k, n = active.size, N

    def exact(placement):
        return batch.exact_access_cost(np.asarray(placement))

    free = [u for u in range(n) if u not in set(occupied)]
    assert close(scan.stay, exact(active) if k else 0.0)

    if deactivate and k >= 2:
        expected = [exact(np.delete(active, i)) for i in range(k)]
        assert all(map(close, scan.removal, expected))
    else:
        assert scan.removal is None

    if migrate and k:
        assert scan.migrate_target.shape == scan.migrate_access.shape == (k,)
        for i, (target, access) in enumerate(
            zip(scan.migrate_target.tolist(), scan.migrate_access.tolist())
        ):
            if not free:
                assert access == np.inf
                continue
            rest = np.delete(active, i)
            moves = {u: exact(np.append(rest, u)) for u in free}
            assert target in moves
            assert close(access, moves[target])
            assert close(access, min(moves.values()))
    else:
        assert scan.migrate_target.size == scan.migrate_access.size == 0

    if add:
        assert scan.addition.shape == (n,)
        expected = np.array([
            exact(active if u in set(active.tolist()) else np.append(active, u))
            for u in range(n)
        ])
        if free:
            create = free[int(np.argmin(scan.addition[free]))]
            assert close(scan.addition[create], expected[create])
            assert close(scan.addition[create], expected[free].min())
        for u in range(n):
            if invariant or u in set(occupied):
                assert close(scan.addition[u], expected[u]), f"addition at {u}"
            else:
                assert scan.addition[u] <= expected[u] * (1 + REL) + REL
    else:
        assert scan.addition is None


@pytest.mark.parametrize("costs_kind", COSTS)
@pytest.mark.parametrize("strength", STRENGTHS.values(), ids=STRENGTHS.keys())
@pytest.mark.parametrize("trial", range(3))
def test_fused_scan_matches_reference(strength, costs_kind, trial):
    rng = np.random.default_rng([71, trial, COSTS.index(costs_kind)])
    substrate = build_substrate(strength, rng)
    costs = build_costs(costs_kind, substrate)
    trace = random_trace(rng, 16)
    invariant = costs_kind not in CONVEX and strength != "nonuniform"

    for k in range(0, 5):
        t0 = int(rng.integers(0, 12))
        t1 = t0 + int(rng.integers(1, 5))
        batch = RequestBatch(substrate, costs, trace.rounds[t0:t1])
        config, _ = random_state(rng, k)
        occupied = sorted(config.occupied)
        for flags in FLAGS:
            assert_scan_matches_brute_force(
                batch, config.active, occupied, flags, invariant
            )


@pytest.mark.parametrize("load", LOADS)
@pytest.mark.parametrize("strength_name", STRENGTHS)
def test_plain_window_equals_gathered_window(strength_name, load):
    rng = np.random.default_rng([73, LOADS.index(load), list(STRENGTHS).index(strength_name)])
    substrate = build_substrate(STRENGTHS[strength_name], rng)
    costs = build_costs(load, substrate)
    rounds = list(random_trace(rng, 16).rounds)
    rounds[3] = rounds[4] = np.zeros(0, dtype=np.int64)
    trace = Trace(tuple(rounds), "test")
    gather = DistanceGather(substrate, costs, trace)
    # Random windows for k = 0..6, then the empty window [3, 5).
    cases = [(k, int(rng.integers(0, 12)), int(rng.integers(1, 5))) for k in range(7)]
    cases += [(k, 3, 2) for k in (0, 1, 3)]

    for k, t0, length in cases:
        window = window_over(gather, trace, t0, t0 + length)
        plain = RequestBatch(substrate, costs, trace.rounds[t0 : t0 + length])
        config, cache = random_state(rng, k)
        occupied = sorted(config.occupied)
        for migrate, deactivate, add in FLAGS:
            assert_scans_equal(
                plain.epoch_scan(config.active, occupied, migrate, deactivate, add),
                window.epoch_scan(config.active, occupied, migrate, deactivate, add),
            )
            assert enumerate_choices(
                plain, config, cache, costs, migrate, deactivate, add
            ) == enumerate_choices(
                window, config, cache, costs, migrate, deactivate, add
            )


def test_empty_window_and_empty_placement_fall_back():
    rng = np.random.default_rng(6)
    substrate = build_substrate(1.0, rng)
    costs = CostModel.paper_default()
    rounds = (np.zeros(0, dtype=np.int64), np.array([1, 5, 5], dtype=np.int64))
    trace = Trace(rounds, "test")
    gather = DistanceGather(substrate, costs, trace)
    empty = window_over(gather, trace, 0, 1)
    assert_scans_equal(
        RequestBatch(substrate, costs, rounds[:1]).epoch_scan((2, 7), (2, 7, 8)),
        empty.epoch_scan((2, 7), (2, 7, 8)),
    )
    full = window_over(gather, trace, 0, 2)
    assert_scans_equal(
        RequestBatch(substrate, costs, rounds).epoch_scan((), (4,)),
        full.epoch_scan((), (4,)),
    )


def test_stay_keeps_the_configuration_object():
    config = Configuration((2, 5), (7,))
    cache = InactiveServerCache(max_size=3)
    cache.push(7)
    stay = Choice("stay", 0.0, 0.0, 0.0)
    assert apply_choice(stay, config, cache) is config
    # A cache that moved on (an expiry, say) still yields a new object.
    cache.pop_oldest()
    moved = apply_choice(stay, config, cache)
    assert moved is not config and moved == Configuration((2, 5))
