"""The substrate network ``G = (V, E)`` of the paper's model (§II-B).

A :class:`Substrate` is an undirected, connected graph whose nodes carry a
*strength* ``ω(v)`` (CPU/memory capability entering the load function) and
whose edges carry a *latency* ``λ(e)`` and a *bandwidth* ``ω(e)``.

The object is immutable after construction and caches the all-pairs
shortest-path latency matrix, which is the quantity every other subsystem
consumes: request access cost is the shortest-path latency from access point
to server (§II-B), and the commuter workload needs distances from the network
center (§V-A). The matrix is computed once with
:func:`scipy.sparse.csgraph.dijkstra` over a CSR adjacency. That is the
dominant setup cost of a large substrate: about 0.3 s for a 1000-node
Erdős–Rényi graph on a 2-vCPU machine, roughly half of a size sweep
(Fig. 3) up to n=1000, where every replicate draws its own graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

__all__ = ["Link", "Substrate"]

#: Bandwidth of a T1 line in Mbit/s (§V-A: links are random T1 or T2).
T1_MBPS = 1.544
#: Bandwidth of a T2 line in Mbit/s.
T2_MBPS = 6.312


@dataclass(frozen=True)
class Link:
    """An undirected substrate link ``e = (u, v)`` with latency and bandwidth.

    Attributes:
        u: first endpoint (node index, ``u < v`` is normalised).
        v: second endpoint.
        latency: per-traversal latency ``λ(e)`` (abstract time units;
            milliseconds for Rocketfuel-derived substrates).
        bandwidth: capacity ``ω(e)`` in Mbit/s. Unused by the constant-β
            migration model but consumed by the bandwidth-aware migration
            extension (:func:`repro.core.costs.bandwidth_migration_matrix`).
    """

    u: int
    v: int
    latency: float
    bandwidth: float

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError(f"self-loop on node {self.u} is not allowed")
        if self.u > self.v:  # normalise endpoint order for hashing/equality
            lo, hi = self.v, self.u
            object.__setattr__(self, "u", lo)
            object.__setattr__(self, "v", hi)
        if not self.latency > 0:
            raise ValueError(f"link latency must be > 0, got {self.latency!r}")
        if not self.bandwidth > 0:
            raise ValueError(f"link bandwidth must be > 0, got {self.bandwidth!r}")

    @property
    def endpoints(self) -> tuple[int, int]:
        """The normalised ``(u, v)`` pair."""
        return (self.u, self.v)


class Substrate:
    """Immutable substrate network with cached shortest-path latencies.

    Args:
        n: number of substrate nodes; nodes are indexed ``0 .. n-1``.
        links: iterable of :class:`Link`; the resulting graph must be
            connected (every access point must be able to reach every
            candidate server location).
        strengths: per-node strength ``ω(v)``; scalar broadcasts to all
            nodes. Defaults to 1.0 everywhere, the paper's implicit setting.
        access_points: node indices that terminals may attach to
            (``A ⊆ V``, §II-B). Defaults to all nodes.
        name: human-readable label used in reports.
        capacities: optional per-round per-node request capacity, a whole
            number of requests (the packing constraint every router of the
            game and the optimizer-backed policies enforce); scalar
            broadcasts to all nodes, ``None`` (the default) means
            uncapacitated — the paper's setting, where only the *load
            function* penalises contention.
    """

    def __init__(
        self,
        n: int,
        links: "list[Link] | tuple[Link, ...]",
        strengths: "float | np.ndarray | None" = None,
        access_points: "list[int] | np.ndarray | None" = None,
        name: str = "substrate",
        capacities: "float | np.ndarray | None" = None,
    ) -> None:
        if n < 1:
            raise ValueError(f"substrate needs at least one node, got n={n}")
        self._n = int(n)
        self._name = str(name)
        self._links = tuple(links)
        seen: set[tuple[int, int]] = set()
        for link in self._links:
            if not (0 <= link.u < n and 0 <= link.v < n):
                raise ValueError(
                    f"link {link.endpoints} references nodes outside 0..{n - 1}"
                )
            if link.endpoints in seen:
                raise ValueError(f"duplicate link {link.endpoints}")
            seen.add(link.endpoints)

        self._strengths = self._build_strengths(strengths)
        self._capacities = self._build_capacities(capacities)
        self._access_points = self._build_access_points(access_points)
        self._adjacency = self._build_adjacency()
        self._require_connected()
        self._distances: "np.ndarray | None" = None
        self._center: "int | None" = None

    # -- construction helpers -------------------------------------------------

    def _build_strengths(self, strengths) -> np.ndarray:
        if strengths is None:
            return np.ones(self._n, dtype=np.float64)
        arr = np.asarray(strengths, dtype=np.float64)
        if arr.ndim == 0:
            arr = np.full(self._n, float(arr), dtype=np.float64)
        if arr.shape != (self._n,):
            raise ValueError(
                f"strengths must be scalar or shape ({self._n},), got {arr.shape}"
            )
        if not np.all(arr > 0):
            raise ValueError("all node strengths must be > 0")
        return arr

    def _build_capacities(self, capacities) -> "np.ndarray | None":
        if capacities is None:
            return None
        arr = np.asarray(capacities, dtype=np.float64)
        if arr.ndim == 0:
            arr = np.full(self._n, float(arr), dtype=np.float64)
        if arr.shape != (self._n,):
            raise ValueError(
                f"capacities must be scalar or shape ({self._n},), got {arr.shape}"
            )
        bad = arr[~((arr > 0) & (arr == np.floor(arr)) & np.isfinite(arr))]
        if bad.size:
            raise ValueError(
                "node capacities count whole requests and must be whole "
                f"numbers > 0, got {bad[0]:g}"
            )
        return arr

    def _build_access_points(self, access_points) -> np.ndarray:
        if access_points is None:
            return np.arange(self._n, dtype=np.int64)
        arr = np.unique(np.asarray(access_points, dtype=np.int64))
        if arr.size == 0:
            raise ValueError("at least one access point is required")
        if arr.min() < 0 or arr.max() >= self._n:
            raise ValueError(f"access points must lie in 0..{self._n - 1}")
        return arr

    def _build_adjacency(self) -> csr_matrix:
        if not self._links:
            # single-node substrates are legal; scipy handles an empty matrix
            return csr_matrix((self._n, self._n), dtype=np.float64)
        rows, cols, vals = [], [], []
        for link in self._links:
            rows.extend((link.u, link.v))
            cols.extend((link.v, link.u))
            vals.extend((link.latency, link.latency))
        return csr_matrix((vals, (rows, cols)), shape=(self._n, self._n))

    def _require_connected(self) -> None:
        if self._n == 1:
            return
        n_components, _ = connected_components(self._adjacency, directed=False)
        if n_components != 1:
            raise ValueError(
                f"substrate must be connected, found {n_components} components"
            )

    # -- basic accessors -------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of substrate nodes ``n = |V|``."""
        return self._n

    @property
    def name(self) -> str:
        """Human-readable substrate label."""
        return self._name

    @property
    def links(self) -> tuple[Link, ...]:
        """The substrate links (normalised, deduplicated)."""
        return self._links

    @property
    def strengths(self) -> np.ndarray:
        """Read-only per-node strengths ``ω(v)``, shape ``(n,)``."""
        view = self._strengths.view()
        view.flags.writeable = False
        return view

    @property
    def capacities(self) -> "np.ndarray | None":
        """Read-only per-round per-node request capacities, or ``None``.

        ``None`` — the default — is the paper's uncapacitated model.
        """
        if self._capacities is None:
            return None
        view = self._capacities.view()
        view.flags.writeable = False
        return view

    @property
    def capacitated(self) -> bool:
        """Whether this substrate carries a per-node capacity vector."""
        return self._capacities is not None

    def with_capacities(
        self, capacities: "float | np.ndarray | None"
    ) -> "Substrate":
        """A copy of this substrate with ``capacities`` swapped in.

        The cached distance matrix is shared (it depends only on links), so
        deriving a capacitated variant of a large substrate is cheap.
        """
        clone = Substrate(
            self._n,
            self._links,
            strengths=self._strengths,
            access_points=self._access_points,
            name=self._name,
            capacities=capacities,
        )
        clone._distances = self._distances
        clone._center = self._center
        return clone

    @property
    def access_points(self) -> np.ndarray:
        """Read-only sorted array of access-point node indices ``A``."""
        view = self._access_points.view()
        view.flags.writeable = False
        return view

    @property
    def n_links(self) -> int:
        """Number of substrate links ``|E|``."""
        return len(self._links)

    def degree(self, node: int) -> int:
        """Number of links incident to ``node``."""
        self._check_node(node)
        return int(self._adjacency.indptr[node + 1] - self._adjacency.indptr[node])

    def neighbors(self, node: int) -> np.ndarray:
        """Node indices adjacent to ``node`` (sorted)."""
        self._check_node(node)
        start, stop = self._adjacency.indptr[node], self._adjacency.indptr[node + 1]
        return np.sort(self._adjacency.indices[start:stop].astype(np.int64))

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._n:
            raise ValueError(f"node {node} outside 0..{self._n - 1}")

    # -- shortest-path machinery ----------------------------------------------

    @property
    def distances(self) -> np.ndarray:
        """All-pairs shortest-path latency matrix, shape ``(n, n)``.

        Computed lazily once and cached; the returned array is read-only and
        shared (no copy) so routing and candidate evaluation can slice it
        freely.
        """
        if self._distances is None:
            if self._n == 1:
                dist = np.zeros((1, 1), dtype=np.float64)
            else:
                # The adjacency already holds both (u, v) and (v, u), so the
                # directed search gives the undirected distances without
                # scipy's undirected variant walking a transposed copy too.
                dist = dijkstra(self._adjacency, directed=True)
            dist.flags.writeable = False
            self._distances = dist
        return self._distances

    def distance(self, u: int, v: int) -> float:
        """Shortest-path latency between nodes ``u`` and ``v``."""
        self._check_node(u)
        self._check_node(v)
        return float(self.distances[u, v])

    @property
    def center(self) -> int:
        """The *network center*: node minimising total distance to all nodes.

        The commuter scenario (§V-A) fans requests out from "the network
        center"; we use the distance-sum minimiser (a graph 1-median), with
        the lowest index winning ties so the choice is deterministic.
        """
        if self._center is None:
            self._center = int(np.argmin(self.distances.sum(axis=1)))
        return self._center

    def nodes_by_distance_from(self, node: int) -> np.ndarray:
        """All node indices sorted by latency from ``node`` (stable ties).

        ``result[0] == node`` always, since the self-distance is zero.
        """
        self._check_node(node)
        return np.argsort(self.distances[node], kind="stable").astype(np.int64)

    def eccentricity(self, node: int) -> float:
        """Largest shortest-path latency from ``node`` to any other node."""
        self._check_node(node)
        return float(self.distances[node].max())

    @property
    def diameter(self) -> float:
        """Largest shortest-path latency between any node pair."""
        return float(self.distances.max())

    # -- misc -------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Substrate(name={self._name!r}, n={self._n}, links={self.n_links}, "
            f"access_points={self._access_points.size})"
        )
