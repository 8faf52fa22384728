"""Tests for vectorised candidate evaluation (repro.core.evaluation).

The key contract: exact access costs agree with brute-force round-by-round
routing through ``route_requests``, and every family of the epoch scan
agrees with those exact costs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import CostModel
from repro.core.evaluation import RequestBatch
from repro.core.load import QuadraticLoad
from repro.core.routing import route_requests
from repro.topology.generators import erdos_renyi, line


def brute_force_access(substrate, costs, rounds, active):
    total = 0.0
    for requests in rounds:
        total += route_requests(substrate, active, requests, costs).access_cost
    return total


@pytest.fixture
def sub():
    return erdos_renyi(15, p=0.3, seed=11)


@pytest.fixture
def rounds():
    rng = np.random.default_rng(5)
    return [rng.integers(0, 15, size=rng.integers(1, 8)) for _ in range(6)]


class TestAccumulation:
    def test_counts(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        assert batch.n_rounds == 6
        assert batch.total_requests == sum(len(r) for r in rounds)

    def test_clear(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        batch.clear()
        assert batch.n_rounds == 0
        assert batch.total_requests == 0

    def test_round_ids_align(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        ids = batch.round_ids
        assert ids.size == batch.total_requests
        for t, requests in enumerate(rounds):
            assert (ids == t).sum() == len(requests)


class TestExactAccessCost:
    def test_matches_brute_force_linear(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        for active in ([0], [3, 7], [1, 5, 9]):
            fast = batch.exact_access_cost(np.asarray(active))
            slow = brute_force_access(sub, costs, rounds, active)
            assert fast == pytest.approx(slow)

    def test_matches_brute_force_quadratic(self, sub, rounds):
        cm = CostModel.paper_default(load=QuadraticLoad())
        batch = RequestBatch(sub, cm, rounds)
        for active in ([2], [0, 8], [4, 6, 12]):
            fast = batch.exact_access_cost(np.asarray(active))
            slow = brute_force_access(sub, cm, rounds, active)
            assert fast == pytest.approx(slow)

    def test_includes_wireless_hop(self, sub, rounds):
        cm = CostModel.paper_default(wireless_hop=2.0)
        batch = RequestBatch(sub, cm, rounds)
        base = CostModel.paper_default()
        plain = RequestBatch(sub, base, rounds)
        diff = batch.exact_access_cost([0]) - plain.exact_access_cost([0])
        assert diff == pytest.approx(2.0 * batch.total_requests)

    def test_empty_batch_is_zero(self, sub, costs):
        assert RequestBatch(sub, costs).exact_access_cost([1]) == 0.0

    def test_no_servers_raises(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        with pytest.raises(ValueError, match="zero active servers"):
            batch.exact_access_cost(np.zeros(0, dtype=np.int64))


def addition(batch, active):
    """The scan's addition row: access cost of ``active + {u}`` per node."""
    return batch.epoch_scan(active, active, migrate=False, deactivate=False).addition


def removal(batch, active):
    """The scan's removal family: access cost without each active server."""
    return batch.epoch_scan(active, active, migrate=False, add=False).removal


class TestAdditionCosts:
    def test_entries_match_exact_linear(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        active = np.asarray([3, 7])
        vector = addition(batch, active)
        for u in range(sub.n):
            if u in (3, 7):
                expected = batch.exact_access_cost(active)
            else:
                expected = batch.exact_access_cost(np.append(active, u))
            assert vector[u] == pytest.approx(expected), f"node {u}"

    def test_argmin_valid_for_quadratic_shortlist(self, sub, rounds):
        """For convex load the argmin must match exhaustive search."""
        cm = CostModel.paper_default(load=QuadraticLoad())
        batch = RequestBatch(sub, cm, rounds)
        active = np.asarray([3, 7])
        vector = addition(batch, active)
        best = int(np.argmin(vector))
        exhaustive = {
            u: batch.exact_access_cost(np.append(active, u))
            for u in range(sub.n)
            if u not in (3, 7)
        }
        true_best = min(exhaustive, key=exhaustive.get)
        assert exhaustive[best] == pytest.approx(exhaustive[true_best])

    def test_from_empty_active_set(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        vector = addition(batch, np.zeros(0, dtype=np.int64))
        for u in (0, 5, 11):
            assert vector[u] == pytest.approx(batch.exact_access_cost([u]))

    def test_empty_batch_returns_zeros(self, sub, costs):
        vector = addition(RequestBatch(sub, costs), np.asarray([1]))
        np.testing.assert_array_equal(vector, np.zeros(sub.n))


class TestRemovalCosts:
    def test_matches_exact(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        active = np.asarray([1, 6, 10])
        vector = removal(batch, active)
        for i in range(3):
            expected = batch.exact_access_cost(np.delete(active, i))
            assert vector[i] == pytest.approx(expected)

    def test_singleton_returns_inf(self, sub, costs, rounds):
        """A singleton placement cannot shrink: the scan has no removal family."""
        batch = RequestBatch(sub, costs, rounds)
        assert removal(batch, np.asarray([4])) is None


class TestMigrationCosts:
    @staticmethod
    def best_moves(batch, active, occupied):
        """Per server, the cheapest exact cost of moving it to a free node."""
        free = [u for u in range(batch._substrate.n) if u not in set(occupied)]
        return [
            min(
                batch.exact_access_cost(np.append(np.delete(active, i), u))
                for u in free
            )
            for i in range(active.size)
        ]

    def test_matches_exact_linear(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        active = np.asarray([2, 9])
        scan = batch.epoch_scan(active, active, deactivate=False, add=False)
        for i, (target, access) in enumerate(
            zip(scan.migrate_target.tolist(), scan.migrate_access.tolist())
        ):
            assert target not in (2, 9)
            rest = np.delete(active, i)
            expected = batch.exact_access_cost(np.append(rest, target))
            assert access == pytest.approx(expected), f"server {i}->node {target}"
        expected = self.best_moves(batch, active, (2, 9))
        assert scan.migrate_access.tolist() == pytest.approx(expected)

    def test_single_server_migration(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        scan = batch.epoch_scan([5], [5, 8], deactivate=False, add=False)
        assert scan.migrate_target[0] not in (5, 8)
        expected = self.best_moves(batch, np.asarray([5]), (5, 8))
        assert scan.migrate_access.tolist() == pytest.approx(expected)


@settings(max_examples=25, deadline=None)
@given(
    active=st.sets(st.integers(0, 9), min_size=1, max_size=4),
    seed=st.integers(0, 100),
    n_rounds=st.integers(1, 5),
)
def test_addition_never_increases_access(active, seed, n_rounds):
    """Adding any server can only reduce (or keep) nearest-latency access cost."""
    sub = line(10, seed=0)
    cm = CostModel.paper_default()
    rng = np.random.default_rng(seed)
    rounds = [rng.integers(0, 10, size=4) for _ in range(n_rounds)]
    batch = RequestBatch(sub, cm, rounds)
    active_arr = np.asarray(sorted(active))
    base = batch.exact_access_cost(active_arr)
    vector = addition(batch, active_arr)
    assert (vector <= base + 1e-9).all()


@settings(max_examples=40, deadline=None)
@given(
    bounds=st.lists(
        st.floats(0.0, 1000.0, allow_nan=False), min_size=1, max_size=40
    ),
    gaps=st.lists(
        st.floats(0.0, 50.0, allow_nan=False), min_size=1, max_size=40
    ),
    masked=st.sets(st.integers(0, 39)),
)
def test_lazy_exact_argmin_bound_soundness(bounds, gaps, masked):
    """The argmin entry of _lazy_exact_argmin is the true exact minimum.

    Sound whenever bound[u] <= exact(u): the returned array's argmin must be
    exactly scored and no candidate's exact value may undercut it, even when
    the bounds order candidates very differently from their exact values.
    Infinite entries (masked candidates) must never be scored.
    """
    size = min(len(bounds), len(gaps))
    bound = np.asarray(bounds[:size], dtype=np.float64)
    exact_values = bound + np.asarray(gaps[:size], dtype=np.float64)
    mask = np.asarray([i in masked for i in range(size)])
    if mask.all():
        mask[0] = False
    bound[mask] = np.inf
    calls = []

    def exact(u):
        calls.append(u)
        assert not mask[u], "scored a masked (infinite-bound) candidate"
        return float(exact_values[u])

    batch = RequestBatch(line(3, seed=0), CostModel.paper_default(), [])
    result = batch._lazy_exact_argmin(bound.copy(), exact)

    best = int(np.argmin(result))
    assert best in calls  # the winner was exactly scored
    assert result[best] == exact_values[best]
    finite = ~mask
    assert result[best] <= exact_values[finite].min() + 1e-12


@settings(max_examples=25, deadline=None)
@given(
    active=st.sets(st.integers(0, 14), min_size=1, max_size=4),
    seed=st.integers(0, 50),
)
def test_addition_argmin_exact_for_convex_load(active, seed):
    """For the non-invariant QuadraticLoad, the addition row's argmin entry
    must equal the exact access cost of that candidate and undercut all
    others — the lazy refinement may leave other entries as lower bounds."""
    sub = erdos_renyi(15, p=0.3, seed=11)
    cm = CostModel.paper_default(load=QuadraticLoad())
    rng = np.random.default_rng(seed)
    rounds = [rng.integers(0, 15, size=rng.integers(1, 6)) for _ in range(4)]
    batch = RequestBatch(sub, cm, rounds)
    active_arr = np.asarray(sorted(active), dtype=np.int64)
    vector = addition(batch, active_arr)
    best = int(np.argmin(vector))

    def exact_with(u):
        if u in set(active_arr.tolist()):
            return batch.exact_access_cost(active_arr)
        return batch.exact_access_cost(np.append(active_arr, u))

    assert vector[best] == pytest.approx(exact_with(best))
    brute_best = min(exact_with(u) for u in range(15))
    assert vector[best] == pytest.approx(brute_best)
