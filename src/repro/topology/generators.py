"""Synthetic substrate topologies used in the paper's evaluation (§V-A).

The paper simulates on

* Erdős–Rényi random graphs with connection probability 1%
  (:func:`erdos_renyi`), with link bandwidths drawn uniformly from
  {T1, T2} lines, and
* line graphs for the experiments involving the exponential-state
  :class:`~repro.algorithms.opt.Opt` dynamic program (:func:`line`).

We additionally provide ring, star, grid and random-tree generators: they are
cheap, exercise qualitatively different distance structures (constant
diameter vs Θ(n) diameter), and are used by the test-suite and the ablation
benchmarks.

Every generator returns a connected :class:`~repro.topology.substrate.Substrate`
and is deterministic given its ``seed``.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_topology
from repro.topology.substrate import T1_MBPS, T2_MBPS, Link, Substrate
from repro.util.rng import ensure_rng
from repro.util.validation import check_positive, check_positive_int, check_probability

__all__ = [
    "erdos_renyi",
    "line",
    "ring",
    "star",
    "grid",
    "random_tree",
    "random_bandwidth",
    "random_latencies",
]

#: Default latency range for synthetic links, in abstract units. The paper
#: does not publish the latency scale of its Erdős–Rényi graphs; Rocketfuel
#: substrates carry measured latencies instead. Only the absolute cost scale
#: depends on this choice (see DESIGN.md §3).
DEFAULT_LATENCY_RANGE = (1.0, 10.0)


def random_bandwidth(rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` bandwidths uniformly from {T1, T2} lines (§V-A)."""
    return rng.choice(np.array([T1_MBPS, T2_MBPS]), size=size)


def random_latencies(
    rng: np.random.Generator,
    size: int,
    latency_range: tuple[float, float] = DEFAULT_LATENCY_RANGE,
) -> np.ndarray:
    """Draw ``size`` latencies uniformly from ``latency_range``."""
    lo, hi = latency_range
    lo = check_positive("latency_range[0]", lo)
    hi = check_positive("latency_range[1]", hi)
    if hi < lo:
        raise ValueError(f"latency_range must satisfy lo <= hi, got ({lo}, {hi})")
    return rng.uniform(lo, hi, size=size)


def _links_from_edges(
    edges: np.ndarray,
    rng: np.random.Generator,
    latency_range: tuple[float, float],
    unit_latency: bool,
) -> list[Link]:
    count = len(edges)
    if unit_latency:
        latencies = np.ones(count)
    else:
        latencies = random_latencies(rng, count, latency_range)
    bandwidths = random_bandwidth(rng, count)
    return [
        Link(int(u), int(v), float(lat), float(bw))
        for (u, v), lat, bw in zip(edges, latencies, bandwidths)
    ]


@register_topology("erdos_renyi", aliases=("er",))
def erdos_renyi(
    n: int,
    p: float = 0.01,
    seed: "int | np.random.Generator | None" = None,
    latency_range: tuple[float, float] = DEFAULT_LATENCY_RANGE,
    unit_latency: bool = False,
    name: "str | None" = None,
    capacity: "float | None" = None,
) -> Substrate:
    """Connected Erdős–Rényi substrate ``G(n, p)`` (§V-A default ``p = 1%``).

    Sparse G(n, 0.01) is disconnected for small ``n``; the paper still needs
    a usable network, so after sampling we connect the components with a
    random spanning chain of extra links (a standard repair that adds at most
    ``components - 1`` edges and leaves the degree distribution essentially
    untouched for the sizes used here).

    Args:
        n: number of nodes.
        p: connection probability for each of the ``n·(n-1)/2`` pairs.
        seed: RNG seed or generator.
        latency_range: uniform range for link latencies.
        unit_latency: if true, every link has latency 1 (hop-count metric).
        name: optional substrate label.
        capacity: uniform per-round per-node request capacity (``None`` =
            uncapacitated, the paper's model).
    """
    n = check_positive_int("n", n)
    p = check_probability("p", p)
    rng = ensure_rng(seed)

    edges = _connect_components(n, _sample_pairs(n, p, rng), rng)
    links = _links_from_edges(np.array(edges, dtype=np.int64).reshape(-1, 2), rng,
                              latency_range, unit_latency)
    return Substrate(
        n, links, name=name or f"erdos-renyi(n={n},p={p})", capacities=capacity
    )


def _sample_pairs(
    n: int, p: float, rng: np.random.Generator
) -> list[tuple[int, int]]:
    """The ``G(n, p)`` edges: one Bernoulli draw per pair ``i < j``.

    The draws run over the pairs in row-major order (``np.triu_indices``'s
    order), and only the hits' flat indices are decoded to ``(i, j)`` via
    each row's start offset, so no ``n·(n-1)/2`` index arrays are built.
    """
    if n < 2 or p == 0:
        return []
    hits = np.flatnonzero(rng.random(n * (n - 1) // 2) < p)
    row_len = np.arange(n - 1, 0, -1)
    row_start = np.cumsum(row_len) - row_len
    iu = np.searchsorted(row_start, hits, side="right") - 1
    ju = hits - row_start[iu] + iu + 1
    return list(zip(iu.tolist(), ju.tolist()))


def _connect_components(
    n: int, edges: list[tuple[int, int]], rng: np.random.Generator
) -> list[tuple[int, int]]:
    """Add random inter-component links until the graph is connected."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    for u, v in edges:
        union(u, v)

    roots = sorted({find(v) for v in range(n)})
    if len(roots) <= 1:
        return edges

    # Link each component to the next via a random representative pair.
    members: dict[int, list[int]] = {}
    for v in range(n):
        members.setdefault(find(v), []).append(v)
    component_lists = [members[r] for r in roots]
    existing = set(edges)
    for left, right in zip(component_lists, component_lists[1:]):
        u = int(rng.choice(left))
        v = int(rng.choice(right))
        edge = (min(u, v), max(u, v))
        if edge not in existing:
            edges.append(edge)
            existing.add(edge)
        union(u, v)
    return edges


@register_topology("line")
def line(
    n: int,
    seed: "int | np.random.Generator | None" = None,
    latency_range: tuple[float, float] = DEFAULT_LATENCY_RANGE,
    unit_latency: bool = True,
    name: "str | None" = None,
    capacity: "float | None" = None,
) -> Substrate:
    """Line (path) graph ``0 - 1 - ... - n-1``.

    The paper constrains the :class:`~repro.algorithms.opt.Opt` experiments
    to line graphs (§V-A); unit latencies are the default here so that the
    metric is the hop distance, matching the chain networks of the online
    function tracking reduction (§VI). ``capacity`` attaches a uniform
    per-round per-node request capacity (``None`` = uncapacitated).
    """
    n = check_positive_int("n", n)
    rng = ensure_rng(seed)
    edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    links = _links_from_edges(edges, rng, latency_range, unit_latency)
    return Substrate(
        n, links, name=name or f"line(n={n})", capacities=capacity
    )


@register_topology("ring")
def ring(
    n: int,
    seed: "int | np.random.Generator | None" = None,
    latency_range: tuple[float, float] = DEFAULT_LATENCY_RANGE,
    unit_latency: bool = True,
    name: "str | None" = None,
) -> Substrate:
    """Cycle graph on ``n >= 3`` nodes."""
    n = check_positive_int("n", n)
    if n < 3:
        raise ValueError(f"a ring needs n >= 3 nodes, got {n}")
    rng = ensure_rng(seed)
    heads = np.arange(n)
    edges = np.column_stack([heads, (heads + 1) % n])
    edges = np.sort(edges, axis=1)
    links = _links_from_edges(edges, rng, latency_range, unit_latency)
    return Substrate(n, links, name=name or f"ring(n={n})")


@register_topology("star")
def star(
    n: int,
    seed: "int | np.random.Generator | None" = None,
    latency_range: tuple[float, float] = DEFAULT_LATENCY_RANGE,
    unit_latency: bool = True,
    name: "str | None" = None,
) -> Substrate:
    """Star graph: node 0 is the hub, nodes ``1..n-1`` are leaves."""
    n = check_positive_int("n", n)
    if n < 2:
        raise ValueError(f"a star needs n >= 2 nodes, got {n}")
    rng = ensure_rng(seed)
    edges = np.column_stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)])
    links = _links_from_edges(edges, rng, latency_range, unit_latency)
    return Substrate(n, links, name=name or f"star(n={n})")


@register_topology("grid")
def grid(
    rows: int,
    cols: int,
    seed: "int | np.random.Generator | None" = None,
    latency_range: tuple[float, float] = DEFAULT_LATENCY_RANGE,
    unit_latency: bool = True,
    name: "str | None" = None,
) -> Substrate:
    """``rows × cols`` 4-neighbour mesh; node ``(r, c)`` has index ``r*cols + c``."""
    rows = check_positive_int("rows", rows)
    cols = check_positive_int("cols", cols)
    rng = ensure_rng(seed)
    edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            idx = r * cols + c
            if c + 1 < cols:
                edges.append((idx, idx + 1))
            if r + 1 < rows:
                edges.append((idx, idx + cols))
    edge_arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    links = _links_from_edges(edge_arr, rng, latency_range, unit_latency)
    return Substrate(rows * cols, links, name=name or f"grid({rows}x{cols})")


@register_topology("random_tree", aliases=("tree",))
def random_tree(
    n: int,
    seed: "int | np.random.Generator | None" = None,
    latency_range: tuple[float, float] = DEFAULT_LATENCY_RANGE,
    unit_latency: bool = False,
    name: "str | None" = None,
) -> Substrate:
    """Uniform random recursive tree: node ``i`` attaches to a random ``j < i``."""
    n = check_positive_int("n", n)
    rng = ensure_rng(seed)
    if n == 1:
        return Substrate(1, [], name=name or "tree(n=1)")
    parents = np.array([int(rng.integers(0, i)) for i in range(1, n)])
    edges = np.column_stack([parents, np.arange(1, n)])
    edges = np.sort(edges, axis=1)
    links = _links_from_edges(edges, rng, latency_range, unit_latency)
    return Substrate(n, links, name=name or f"tree(n={n})")
