"""Tests for the substrate network model (repro.topology.substrate)."""

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from repro.topology.generators import erdos_renyi, line
from repro.topology.rocketfuel import att_like_topology
from repro.topology.substrate import Link, LinkArrays, Substrate


def make_path(n=4, latency=1.0):
    links = [Link(i, i + 1, latency, 1.544) for i in range(n - 1)]
    return Substrate(n, links)


class TestLink:
    def test_normalises_endpoint_order(self):
        link = Link(3, 1, 2.0, 1.544)
        assert link.endpoints == (1, 3)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Link(2, 2, 1.0, 1.0)

    def test_rejects_non_positive_latency(self):
        with pytest.raises(ValueError, match="latency"):
            Link(0, 1, 0.0, 1.0)

    def test_rejects_non_positive_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            Link(0, 1, 1.0, -2.0)

    def test_equality_after_normalisation(self):
        assert Link(3, 1, 2.0, 1.0) == Link(1, 3, 2.0, 1.0)


class TestConstruction:
    def test_basic_properties(self):
        sub = make_path(4)
        assert sub.n == 4
        assert sub.n_links == 3
        assert sub.name == "substrate"

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError, match="at least one node"):
            Substrate(0, [])

    def test_rejects_out_of_range_link(self):
        with pytest.raises(ValueError, match="outside"):
            Substrate(2, [Link(0, 5, 1.0, 1.0)])

    def test_rejects_duplicate_link(self):
        with pytest.raises(ValueError, match="duplicate"):
            Substrate(2, [Link(0, 1, 1.0, 1.0), Link(1, 0, 2.0, 1.0)])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            Substrate(4, [Link(0, 1, 1.0, 1.0), Link(2, 3, 1.0, 1.0)])

    def test_single_node_is_legal(self):
        sub = Substrate(1, [])
        assert sub.n == 1
        assert sub.diameter == 0.0

    def test_scalar_strength_broadcasts(self):
        sub = Substrate(3, [Link(0, 1, 1, 1), Link(1, 2, 1, 1)], strengths=2.5)
        np.testing.assert_array_equal(sub.strengths, [2.5, 2.5, 2.5])

    def test_vector_strengths(self):
        sub = Substrate(
            3, [Link(0, 1, 1, 1), Link(1, 2, 1, 1)], strengths=[1.0, 2.0, 3.0]
        )
        np.testing.assert_array_equal(sub.strengths, [1.0, 2.0, 3.0])

    def test_rejects_wrong_strength_shape(self):
        with pytest.raises(ValueError, match="strengths"):
            Substrate(3, [Link(0, 1, 1, 1), Link(1, 2, 1, 1)], strengths=[1.0, 2.0])

    def test_rejects_non_positive_strength(self):
        with pytest.raises(ValueError, match="strengths"):
            Substrate(
                2, [Link(0, 1, 1, 1)], strengths=[1.0, 0.0]
            )

    def test_strengths_read_only(self):
        sub = make_path(3)
        with pytest.raises(ValueError):
            sub.strengths[0] = 9.0


class TestAccessPoints:
    def test_default_all_nodes(self):
        sub = make_path(4)
        np.testing.assert_array_equal(sub.access_points, [0, 1, 2, 3])

    def test_subset(self):
        sub = Substrate(
            3, [Link(0, 1, 1, 1), Link(1, 2, 1, 1)], access_points=[2, 0]
        )
        np.testing.assert_array_equal(sub.access_points, [0, 2])

    def test_duplicates_removed(self):
        sub = Substrate(
            3, [Link(0, 1, 1, 1), Link(1, 2, 1, 1)], access_points=[1, 1, 2]
        )
        np.testing.assert_array_equal(sub.access_points, [1, 2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="access point"):
            Substrate(2, [Link(0, 1, 1, 1)], access_points=[])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="access points"):
            Substrate(2, [Link(0, 1, 1, 1)], access_points=[5])


class TestDistances:
    def test_path_distances(self):
        sub = make_path(4)
        expected = np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
        np.testing.assert_allclose(sub.distances, expected)

    def test_distances_cached_and_shared(self):
        sub = make_path(3)
        assert sub.distances is sub.distances

    def test_distances_read_only(self):
        sub = make_path(3)
        with pytest.raises(ValueError):
            sub.distances[0, 0] = 1.0

    def test_weighted_distances(self):
        links = [Link(0, 1, 5.0, 1.0), Link(1, 2, 7.0, 1.0), Link(0, 2, 20.0, 1.0)]
        sub = Substrate(3, links)
        assert sub.distance(0, 2) == 12.0  # via node 1, not the direct link

    def test_distance_symmetric(self):
        sub = make_path(5)
        assert sub.distance(1, 4) == sub.distance(4, 1) == 3.0

    def test_distance_checks_range(self):
        sub = make_path(3)
        with pytest.raises(ValueError, match="node"):
            sub.distance(0, 3)

    @pytest.mark.parametrize(
        "build",
        [
            lambda seed: erdos_renyi(60, p=0.05, seed=seed),
            lambda seed: erdos_renyi(40, p=0.3, seed=seed),
            lambda seed: line(25, seed=seed, unit_latency=False),
            lambda seed: att_like_topology(seed=seed),
        ],
        ids=["er-sparse", "er-dense", "line", "rocketfuel-style"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_directed_search_equals_undirected_bit_for_bit(self, build, seed):
        """The adjacency stores both directions of every link, so the
        directed search ``distances`` runs equals scipy's undirected one."""
        sub = build(seed)
        expected = dijkstra(sub._adjacency, directed=False)
        assert sub.distances.tobytes() == expected.tobytes()

    def test_matches_networkx(self):
        """Cross-check Dijkstra against networkx on a random weighted graph."""
        import networkx as nx

        rng = np.random.default_rng(0)
        g = nx.gnp_random_graph(12, 0.4, seed=1)
        assert nx.is_connected(g)
        links = [
            Link(u, v, float(rng.uniform(1, 10)), 1.0) for u, v in g.edges()
        ]
        sub = Substrate(12, links)
        for link in links:
            g[link.u][link.v]["weight"] = link.latency
        nx_dist = dict(nx.all_pairs_dijkstra_path_length(g))
        for u in range(12):
            for v in range(12):
                assert sub.distance(u, v) == pytest.approx(nx_dist[u][v])


class TestCenterAndTopologyQueries:
    def test_path_center_is_middle(self):
        assert make_path(5).center == 2

    def test_center_tie_breaks_to_lowest_index(self):
        assert make_path(4).center == 1  # nodes 1 and 2 tie

    def test_star_center_is_hub(self):
        links = [Link(0, i, 1.0, 1.0) for i in range(1, 6)]
        sub = Substrate(6, links)
        assert sub.center == 0

    def test_nodes_by_distance_starts_with_self(self):
        sub = make_path(5)
        order = sub.nodes_by_distance_from(3)
        assert order[0] == 3
        assert set(order.tolist()) == set(range(5))

    def test_nodes_by_distance_monotone(self):
        sub = make_path(6)
        order = sub.nodes_by_distance_from(2)
        dists = [sub.distance(2, int(v)) for v in order]
        assert dists == sorted(dists)

    def test_eccentricity_and_diameter(self):
        sub = make_path(5)
        assert sub.eccentricity(0) == 4.0
        assert sub.eccentricity(2) == 2.0
        assert sub.diameter == 4.0

    def test_degree_and_neighbors(self):
        sub = make_path(4)
        assert sub.degree(0) == 1
        assert sub.degree(1) == 2
        np.testing.assert_array_equal(sub.neighbors(1), [0, 2])

    def test_neighbors_checks_range(self):
        with pytest.raises(ValueError, match="node"):
            make_path(3).neighbors(9)


class TestCapacities:
    def test_default_is_uncapacitated(self):
        sub = make_path(4)
        assert sub.capacities is None
        assert not sub.capacitated

    def test_scalar_broadcasts(self):
        links = [Link(i, i + 1, 1.0, 1.544) for i in range(3)]
        sub = Substrate(4, links, capacities=3.0)
        assert sub.capacitated
        np.testing.assert_array_equal(sub.capacities, np.full(4, 3.0))

    def test_vector_shape_checked(self):
        links = [Link(0, 1, 1.0, 1.544)]
        with pytest.raises(ValueError, match="capacities"):
            Substrate(2, links, capacities=np.ones(3))

    def test_capacities_must_be_positive(self):
        links = [Link(0, 1, 1.0, 1.544)]
        with pytest.raises(ValueError, match="> 0"):
            Substrate(2, links, capacities=np.array([1.0, 0.0]))

    def test_capacities_view_is_read_only(self):
        links = [Link(0, 1, 1.0, 1.544)]
        sub = Substrate(2, links, capacities=1.0)
        with pytest.raises(ValueError):
            sub.capacities[0] = 9.0

    def test_with_capacities_clones_and_shares_distances(self):
        sub = make_path(5)
        base = sub.distances  # force the cache
        capped = sub.with_capacities(3.0)
        assert capped.capacitated
        assert not sub.capacitated  # the original is untouched
        assert capped.distances is base  # cache shared, not recomputed
        uncapped = capped.with_capacities(None)
        assert not uncapped.capacitated


def _link_error(u, v, latency, bandwidth) -> "str | None":
    """``Link``'s own message for one link, or ``None`` when it is valid."""
    try:
        Link(u, v, latency, bandwidth)
    except ValueError as error:
        return str(error)
    return None


class TestLinkArrays:
    """Array-built links are checked in bulk with the ``Link`` messages."""

    @pytest.mark.parametrize("bad", [
        (3, 3, 1.0, 1.0),
        (0, 2, 0.0, 1.0),
        (0, 2, -1.5, 1.0),
        (0, 2, float("nan"), 1.0),
        (2, 0, 1.0, 0.0),
        (1, 1, -1.0, -1.0),
    ])
    @pytest.mark.parametrize("position", [0, 1, 3])
    def test_first_bad_link_gives_links_message(self, bad, position):
        rows = [(0, 1, 1.0, 1.0), (1, 2, 2.0, 1.0), (2, 3, 1.0, 6.3), (3, 4, 1.0, 1.0)]
        rows[position] = bad
        rows.append((4, 4, -1.0, -1.0))  # a later bad link never wins
        u, v, lat, bw = map(list, zip(*rows))
        with pytest.raises(ValueError) as error:
            LinkArrays(u, v, lat, bw)
        assert str(error.value) == _link_error(*bad)

    def test_endpoints_are_normalised(self):
        links = LinkArrays([3, 0], [1, 2], [2.0, 1.0], [1.0, 1.0])
        assert links.u.tolist() == [1, 0] and links.v.tolist() == [3, 2]
        assert tuple(links) == (Link(3, 1, 2.0, 1.0), Link(0, 2, 1.0, 1.0))

    def test_arrays_are_read_only(self):
        links = LinkArrays([0], [1], [1.0], [1.0])
        for arr in (links.u, links.v, links.latency, links.bandwidth):
            with pytest.raises(ValueError):
                arr[0] = 2

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            LinkArrays([0, 1], [1, 2], [1.0], [1.0, 1.0])

    @pytest.mark.parametrize("rows, message", [
        ([(0, 1), (1, 2), (2, 1), (0, 7)], "duplicate link (1, 2)"),
        ([(0, 1), (0, 7), (1, 2), (2, 1)], "link (0, 7) references nodes outside 0..2"),
        ([(0, 1), (1, 0), (-1, 2)], "duplicate link (0, 1)"),
        ([(2, -1), (0, 1), (1, 0)], "link (-1, 2) references nodes outside 0..2"),
    ])
    def test_range_and_duplicates_name_the_first_bad_link(self, rows, message):
        u, v = map(list, zip(*rows))
        ones = [1.0] * len(rows)
        with pytest.raises(ValueError) as error:
            Substrate(3, LinkArrays(u, v, ones, ones))
        assert str(error.value) == message
        with pytest.raises(ValueError) as error:
            Substrate(3, [Link(a, b, 1.0, 1.0) for a, b in rows])
        assert str(error.value) == message

    def test_links_tuple_equals_a_link_built_substrate(self):
        rows = [(1, 0, 2.5, 1.544), (1, 2, 1.0, 6.312), (3, 2, 4.0, 1.544)]
        from_links = Substrate(4, [Link(*row) for row in rows])
        from_arrays = Substrate(4, LinkArrays(*map(list, zip(*rows))))
        assert from_arrays.links == from_links.links
        assert from_arrays.n_links == 3
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(
                getattr(from_arrays._adjacency, name),
                getattr(from_links._adjacency, name),
            )
        np.testing.assert_array_equal(from_arrays.distances, from_links.distances)

    def test_with_capacities_shares_links_and_adjacency(self):
        sub = make_path(5)
        capped = sub.with_capacities(2.0)
        assert capped.link_arrays is sub.link_arrays
        assert capped._adjacency is sub._adjacency
        assert capped.links == sub.links
