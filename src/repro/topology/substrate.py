"""The substrate network ``G = (V, E)`` of the paper's model (§II-B).

A :class:`Substrate` is an undirected, connected graph whose nodes carry a
*strength* ``ω(v)`` (CPU/memory capability entering the load function) and
whose edges carry a *latency* ``λ(e)`` and a *bandwidth* ``ω(e)``.

The links are stored as arrays (:class:`LinkArrays`), checked in bulk;
the :class:`Link` objects are built only when :attr:`Substrate.links` is
read. The object is immutable after construction and caches the all-pairs
shortest-path latency matrix, which is the quantity every other subsystem
consumes: request access cost is the shortest-path latency from access point
to server (§II-B), and the commuter workload needs distances from the network
center (§V-A). The matrix is computed once with
:func:`scipy.sparse.csgraph.dijkstra` over a CSR adjacency. That is the
dominant setup cost of a large substrate: in a size sweep (Fig. 3, 25
Erdős–Rényi graphs of 100 to 1000 nodes, every replicate drawing its own)
it took 2.2 s on a shared 2-vCPU machine, against 0.12 s for building the
25 substrates (sampling, link checks, adjacency, connectivity).
scipy's sparse-graph modules (~0.45 s to import) load on the first
construction, not with the package, so a sweep's pre-flight loads them
before a process pool forks its workers, and a warm cache hit never does.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

if TYPE_CHECKING:  # imported lazily at runtime, on the first construction
    from scipy.sparse import csr_matrix

__all__ = ["Link", "LinkArrays", "Substrate"]

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


def _first(mask: np.ndarray) -> "int | None":
    """Index of the first true entry of ``mask``, or ``None``."""
    return int(mask.argmax()) if mask.any() else None


class LinkArrays:
    """Substrate links as four aligned read-only arrays.

    The storage behind :class:`Substrate`: endpoints ``u < v`` (``int64``),
    ``latency`` and ``bandwidth`` (``float64``), one entry per link in input
    order. Each link is checked as :class:`Link` checks it, in bulk: the
    first self-loop or non-positive latency or bandwidth, in input order,
    raises :class:`Link`'s message. Iterating yields the equal
    :class:`Link` objects, so the table stands in for a link list.
    """

    __slots__ = ("u", "v", "latency", "bandwidth")

    def __init__(self, u, v, latency, bandwidth) -> None:
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        latency = np.array(latency, dtype=np.float64)
        bandwidth = np.array(bandwidth, dtype=np.float64)
        if not u.ndim == v.ndim == latency.ndim == bandwidth.ndim == 1 or not (
            u.size == v.size == latency.size == bandwidth.size
        ):
            raise ValueError(
                "link arrays must be 1-D and of equal length, got shapes "
                f"{u.shape}, {v.shape}, {latency.shape}, {bandwidth.shape}"
            )
        bad = _first((u == v) | ~(latency > 0) | ~(bandwidth > 0))
        if bad is not None:
            if u[bad] == v[bad]:
                raise ValueError(f"self-loop on node {int(u[bad])} is not allowed")
            if not latency[bad] > 0:
                raise ValueError(
                    f"link latency must be > 0, got {float(latency[bad])!r}"
                )
            raise ValueError(
                f"link bandwidth must be > 0, got {float(bandwidth[bad])!r}"
            )
        self.u = np.minimum(u, v)
        self.v = np.maximum(u, v)
        self.latency = latency
        self.bandwidth = bandwidth
        for arr in (self.u, self.v, latency, bandwidth):
            arr.flags.writeable = False

    @classmethod
    def from_links(cls, links: "Iterable[Link]") -> "LinkArrays":
        """The table of a :class:`Link` sequence, in its order."""
        links = tuple(links)
        return cls(
            [link.u for link in links],
            [link.v for link in links],
            [link.latency for link in links],
            [link.bandwidth for link in links],
        )

    def __len__(self) -> int:
        return self.u.size

    def __iter__(self) -> Iterator[Link]:
        return map(
            Link,
            self.u.tolist(),
            self.v.tolist(),
            self.latency.tolist(),
            self.bandwidth.tolist(),
        )


class Substrate:
    """Immutable substrate network with cached shortest-path latencies.

    Args:
        n: number of substrate nodes; nodes are indexed ``0 .. n-1``.
        links: a :class:`LinkArrays` table (what the generators build) or
            an iterable of :class:`Link`, converted to one; the resulting
            graph must be connected (every access point must be able to
            reach every candidate server location).
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
        links: "LinkArrays | Iterable[Link]",
        strengths: "float | np.ndarray | None" = None,
        access_points: "list[int] | np.ndarray | None" = None,
        name: str = "substrate",
        capacities: "float | np.ndarray | None" = None,
    ) -> None:
        if n < 1:
            raise ValueError(f"substrate needs at least one node, got n={n}")
        self._n = int(n)
        self._name = str(name)
        #: The ``Link`` tuple, built on the first :attr:`links` access.
        self._links: "tuple[Link, ...] | None" = None
        if not isinstance(links, LinkArrays):
            self._links = tuple(links)
            links = LinkArrays.from_links(self._links)
        self._link_arrays = links
        self._check_links()
        self._strengths = self._build_strengths(strengths)
        self._capacities = self._build_capacities(capacities)
        self._access_points = self._build_access_points(access_points)
        self._adjacency = self._build_adjacency()
        self._require_connected()
        self._distances: "np.ndarray | None" = None
        self._center: "int | None" = None

    # -- construction helpers -------------------------------------------------

    def _check_links(self) -> None:
        """Range and duplicate checks, naming the first bad link in input order."""
        links, n = self._link_arrays, self._n
        out = _first((links.u < 0) | (links.v >= n))
        # Duplicates among the links before the first out-of-range one.
        stop = len(links) if out is None else out
        keys = links.u[:stop] * n + links.v[:stop]
        _, first_seen = np.unique(keys, return_index=True)
        repeated = np.ones(stop, dtype=bool)
        repeated[first_seen] = False
        dup = _first(repeated)
        if dup is not None:
            raise ValueError(
                f"duplicate link {(int(links.u[dup]), int(links.v[dup]))}"
            )
        if out is not None:
            raise ValueError(
                f"link {(int(links.u[out]), int(links.v[out]))} references "
                f"nodes outside 0..{n - 1}"
            )

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
        from scipy.sparse import csr_matrix

        links = self._link_arrays
        if not len(links):
            # single-node substrates are legal; scipy handles an empty matrix
            return csr_matrix((self._n, self._n), dtype=np.float64)
        # Each link enters as (u, v) then (v, u), interleaved in link order.
        rows = np.column_stack((links.u, links.v)).ravel()
        cols = np.column_stack((links.v, links.u)).ravel()
        vals = np.repeat(links.latency, 2)
        return csr_matrix((vals, (rows, cols)), shape=(self._n, self._n))

    def _require_connected(self) -> None:
        # Imported on every construction, even of one node, so the
        # calling process holds csgraph before a pool forks its workers.
        from scipy.sparse.csgraph import connected_components

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
        """The substrate links (normalised, deduplicated), built on first access."""
        if self._links is None:
            self._links = tuple(self._link_arrays)
        return self._links

    @property
    def link_arrays(self) -> LinkArrays:
        """The links as read-only ``u``/``v``/``latency``/``bandwidth`` arrays."""
        return self._link_arrays

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

        The links, adjacency and cached distance matrix are shared (none of
        them depends on capacities), so deriving a capacitated variant of a
        large substrate is cheap.
        """
        clone = copy.copy(self)
        clone._capacities = clone._build_capacities(capacities)
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
        return len(self._link_arrays)

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
                from scipy.sparse.csgraph import dijkstra

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
