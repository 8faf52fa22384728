"""Tests for server configurations (repro.core.config)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Configuration


class TestConstruction:
    def test_active_is_sorted(self):
        cfg = Configuration((3, 1, 2))
        assert cfg.active == (1, 2, 3)

    def test_inactive_order_preserved(self):
        cfg = Configuration((), (5, 3, 9))
        assert cfg.inactive == (5, 3, 9)

    def test_rejects_duplicate_active(self):
        with pytest.raises(ValueError, match="duplicate active"):
            Configuration((1, 1))

    def test_rejects_duplicate_inactive(self):
        with pytest.raises(ValueError, match="duplicate inactive"):
            Configuration((), (2, 2))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="both"):
            Configuration((1, 2), (2,))

    def test_rejects_negative_nodes(self):
        with pytest.raises(ValueError, match="non-negative"):
            Configuration((-1,))

    def test_of_accepts_iterables(self):
        cfg = Configuration.of({3, 1}, [7])
        assert cfg.active == (1, 3)
        assert cfg.inactive == (7,)

    def test_single(self):
        cfg = Configuration.single(4)
        assert cfg.active == (4,)
        assert cfg.n_servers == 1

    def test_empty(self):
        cfg = Configuration.empty()
        assert cfg.n_servers == 0


class TestQueries:
    def test_counts(self):
        cfg = Configuration((1, 2), (3, 4, 5))
        assert cfg.n_active == 2
        assert cfg.n_inactive == 3
        assert cfg.n_servers == 5

    def test_occupied(self):
        cfg = Configuration((1,), (2,))
        assert cfg.occupied == frozenset({1, 2})

    def test_hosts_checks(self):
        cfg = Configuration((1,), (2,))
        assert cfg.hosts_active(1) and not cfg.hosts_active(2)

    def test_hashable_and_equal(self):
        a = Configuration((2, 1), (3,))
        b = Configuration((1, 2), (3,))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_inactive_order_distinguishes(self):
        """FIFO order is semantic: different order, different configuration."""
        a = Configuration((), (1, 2))
        b = Configuration((), (2, 1))
        assert a != b


class TestFunctionalUpdates:
    def test_move_active(self):
        cfg = Configuration((1, 2), (5,)).move_active(2, 7)
        assert cfg.active == (1, 7)
        assert cfg.inactive == (5,)

    def test_move_active_to_same_node_is_noop(self):
        cfg = Configuration((1,))
        assert cfg.move_active(1, 1) is cfg

    def test_move_active_rejects_occupied_target(self):
        with pytest.raises(ValueError, match="already hosts"):
            Configuration((1, 2)).move_active(1, 2)

    def test_move_active_rejects_missing_source(self):
        with pytest.raises(ValueError, match="no active"):
            Configuration((1,)).move_active(5, 6)

    def test_replace_inactive(self):
        cfg = Configuration((1,), (2,)).replace_inactive((8, 9))
        assert cfg.inactive == (8, 9)

    def test_updates_do_not_mutate_original(self):
        cfg = Configuration((1,), (2,))
        cfg.move_active(1, 5)
        cfg.replace_inactive(())
        assert cfg == Configuration((1,), (2,))


@settings(max_examples=50, deadline=None)
@given(
    active=st.sets(st.integers(0, 20), max_size=6),
    inactive=st.sets(st.integers(21, 40), max_size=6),
)
def test_invariants_hold_for_arbitrary_disjoint_sets(active, inactive):
    cfg = Configuration.of(active, inactive)
    assert set(cfg.active) == active
    assert set(cfg.inactive) == inactive
    assert cfg.n_servers == len(active) + len(inactive)
    assert cfg.occupied == frozenset(active) | frozenset(inactive)
    assert cfg == Configuration.of(sorted(active, reverse=True), cfg.inactive)
