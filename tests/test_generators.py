"""Tests for the topology generators, including hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.generators import (
    erdos_renyi,
    grid,
    line,
    random_bandwidth,
    random_latencies,
    random_tree,
    ring,
    star,
)
from repro.topology.substrate import T1_MBPS, T2_MBPS


class TestErdosRenyi:
    def test_connected_even_when_sparse(self):
        sub = erdos_renyi(60, p=0.01, seed=0)
        assert np.isfinite(sub.distances).all()

    def test_deterministic_given_seed(self):
        a = erdos_renyi(40, p=0.1, seed=5)
        b = erdos_renyi(40, p=0.1, seed=5)
        assert a.links == b.links

    def test_different_seeds_differ(self):
        a = erdos_renyi(40, p=0.1, seed=1)
        b = erdos_renyi(40, p=0.1, seed=2)
        assert a.links != b.links

    def test_p_zero_yields_spanning_chain(self):
        sub = erdos_renyi(10, p=0.0, seed=0)
        assert sub.n_links == 9  # exactly the repair edges

    def test_p_one_yields_complete_graph(self):
        sub = erdos_renyi(8, p=1.0, seed=0)
        assert sub.n_links == 8 * 7 // 2

    def test_bandwidths_are_t1_or_t2(self):
        sub = erdos_renyi(30, p=0.2, seed=3)
        for link in sub.links:
            assert link.bandwidth in (T1_MBPS, T2_MBPS)

    def test_unit_latency_flag(self):
        sub = erdos_renyi(20, p=0.3, seed=1, unit_latency=True)
        assert all(link.latency == 1.0 for link in sub.links)

    def test_latency_range_respected(self):
        sub = erdos_renyi(20, p=0.3, seed=1, latency_range=(2.0, 3.0))
        assert all(2.0 <= link.latency <= 3.0 for link in sub.links)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="p"):
            erdos_renyi(10, p=1.5)

    def test_default_name(self):
        assert "erdos-renyi" in erdos_renyi(5, seed=0).name

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 40), p=st.floats(0.0, 0.5), seed=st.integers(0, 99))
    def test_always_connected_property(self, n, p, seed):
        sub = erdos_renyi(n, p=p, seed=seed)
        assert np.isfinite(sub.distances).all()


class TestLine:
    def test_structure(self):
        sub = line(5, seed=0)
        assert sub.n_links == 4
        assert sub.distance(0, 4) == 4.0

    def test_unit_latency_default(self):
        assert all(link.latency == 1.0 for link in line(4, seed=0).links)

    def test_single_node(self):
        assert line(1, seed=0).n == 1

    def test_random_latencies_option(self):
        sub = line(5, seed=0, unit_latency=False, latency_range=(5, 20))
        assert all(5 <= link.latency <= 20 for link in sub.links)


class TestRing:
    def test_structure(self):
        sub = ring(6, seed=0)
        assert sub.n_links == 6
        assert sub.distance(0, 3) == 3.0  # half-way around
        assert sub.distance(0, 5) == 1.0  # wrap-around edge

    def test_rejects_too_small(self):
        with pytest.raises(ValueError, match="n >= 3"):
            ring(2)


class TestStar:
    def test_structure(self):
        sub = star(6, seed=0)
        assert sub.n_links == 5
        assert sub.degree(0) == 5
        assert sub.distance(1, 5) == 2.0

    def test_center_is_hub(self):
        assert star(7, seed=0).center == 0

    def test_rejects_too_small(self):
        with pytest.raises(ValueError, match="n >= 2"):
            star(1)


class TestGrid:
    def test_structure(self):
        sub = grid(3, 4, seed=0)
        assert sub.n == 12
        # 3 rows x 3 horizontal + 2 x 4 vertical = 9 + 8
        assert sub.n_links == 17
        assert sub.distance(0, 11) == 5.0  # manhattan distance

    def test_single_cell(self):
        assert grid(1, 1, seed=0).n == 1

    def test_row_vector(self):
        sub = grid(1, 5, seed=0)
        assert sub.n_links == 4


class TestRandomTree:
    def test_edge_count(self):
        sub = random_tree(20, seed=0)
        assert sub.n_links == 19

    def test_deterministic(self):
        assert random_tree(15, seed=4).links == random_tree(15, seed=4).links

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 50), seed=st.integers(0, 50))
    def test_always_a_connected_tree(self, n, seed):
        sub = random_tree(n, seed=seed)
        assert sub.n_links == n - 1
        assert np.isfinite(sub.distances).all()


class TestRandomDraws:
    def test_bandwidth_values(self, rng):
        draws = random_bandwidth(rng, 200)
        assert set(np.unique(draws)) <= {T1_MBPS, T2_MBPS}
        assert len(set(np.unique(draws))) == 2  # both appear in 200 draws

    def test_latency_bounds(self, rng):
        draws = random_latencies(rng, 100, (3.0, 4.0))
        assert draws.min() >= 3.0 and draws.max() <= 4.0

    def test_latency_rejects_inverted_range(self, rng):
        with pytest.raises(ValueError, match="lo <= hi"):
            random_latencies(rng, 10, (5.0, 2.0))


def _triu_pairs(n, p, rng):
    """The upper-triangle formulation the decoded sampling must equal."""
    if n < 2 or p == 0:
        return []
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    return list(zip(iu[mask].tolist(), ju[mask].tolist()))


class TestErdosRenyiPairDecoding:
    @pytest.mark.parametrize("n", [1, 2, 7, 100, 1000])
    @pytest.mark.parametrize("p", [0.0, 0.01, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_edges_equal_the_triu_formulation(self, n, p, seed):
        from repro.topology.generators import _sample_pairs

        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _sample_pairs(n, p, rng) == _triu_pairs(n, p, reference_rng)
        # The same draws were consumed, so the repair and latencies agree too.
        assert rng.random() == reference_rng.random()

    @pytest.mark.parametrize("seed", range(5))
    def test_substrate_equals_the_triu_formulation(self, seed):
        from repro.topology.generators import _connect_components, _links_from_edges

        rng = np.random.default_rng(seed)
        edges = _connect_components(200, _triu_pairs(200, 0.01, rng), rng)
        links = _links_from_edges(
            np.array(edges, dtype=np.int64).reshape(-1, 2), rng, (1.0, 10.0), False
        )
        sub = erdos_renyi(200, p=0.01, seed=seed, latency_range=(1.0, 10.0))
        assert sub.links == tuple(links)
