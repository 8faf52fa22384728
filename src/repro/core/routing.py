"""Request routing: "requests are routed to the server of minimal access costs" (§II-B).

Given the active server locations and the round's request multiset (an array
of access-point node indices), routing produces

* an assignment of each request to a server,
* the latency part of the access cost: shortest-path latency per request
  (plus the constant first wireless hop), and
* the load part: ``Σ_v load(v, t)`` from the per-server request counts.

Two strategies are provided:

* :attr:`RoutingStrategy.NEAREST` sends every request to its
  latency-closest active server. For the paper's linear load model with
  uniform node strengths this is exactly optimal — the summed load is
  assignment-invariant there — and it vectorises to one ``argmin`` over a
  distance slice, which is what makes the 1000-node sweeps feasible.
* :attr:`RoutingStrategy.LOAD_AWARE` assigns requests sequentially, each to
  the server with the smallest *marginal* access cost (latency plus load
  increase). This matters for convex load functions (quadratic model of
  Figures 1–2), where piling requests on one server is super-linear.

A substrate with per-node ``capacities`` is routed by
:func:`route_capacitated` instead: nearest with spill, one whole capacity
unit per request. :func:`~repro.core.simulator.simulate`,
:func:`~repro.core.multiservice.simulate_services` and
:func:`~repro.algorithms.optim.exact.plan_cost` all use it there, so
capacity has one admission rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.core.costs import CostModel
from repro.topology.substrate import Substrate

__all__ = ["RoutingStrategy", "RoutingResult", "route_capacitated", "route_requests"]


class RoutingStrategy(Enum):
    """How requests pick their serving server."""

    NEAREST = "nearest"
    LOAD_AWARE = "load_aware"


@dataclass(frozen=True, slots=True)
class RoutingResult:
    """Outcome of routing one round's requests.

    Attributes:
        latency_cost: ``Σ delay(r)`` including the wireless first hop.
        load_cost: ``Σ_v load(v, t)`` under the cost model's load function.
        counts: per-server request counts, aligned with the ``servers``
            argument order of :func:`route_requests`.
        assignment: per-request index into the ``servers`` argument.
    """

    latency_cost: float
    load_cost: float
    counts: np.ndarray
    assignment: np.ndarray

    @property
    def access_cost(self) -> float:
        """Total access cost ``Costacc`` of the round (latency + load)."""
        return self.latency_cost + self.load_cost


def route_requests(
    substrate: Substrate,
    servers: "np.ndarray | tuple[int, ...]",
    requests: np.ndarray,
    costs: CostModel,
    strategy: RoutingStrategy = RoutingStrategy.NEAREST,
) -> RoutingResult:
    """Route ``requests`` (access-point indices) to active ``servers``.

    Args:
        substrate: the substrate network.
        servers: node indices of *active* servers (at least one unless the
            round is empty).
        requests: int array of access-point node indices, one per request;
            duplicates express the multiset σt.
        costs: cost model providing the load function and wireless hop.
        strategy: assignment strategy, see :class:`RoutingStrategy`.

    Returns:
        A :class:`RoutingResult`; zero-valued for an empty round.

    Raises:
        ValueError: when requests exist but no server is active, or when a
            request or server carries a negative node index (which would
            otherwise wrap via numpy fancy indexing and silently route to
            the substrate's last node).
    """
    servers = np.asarray(servers, dtype=np.int64)
    requests = np.asarray(requests, dtype=np.int64)

    if requests.size == 0:
        return RoutingResult(
            latency_cost=0.0,
            load_cost=0.0,
            counts=np.zeros(servers.size, dtype=np.int64),
            assignment=np.zeros(0, dtype=np.int64),
        )
    if servers.size == 0:
        raise ValueError("cannot route requests: no active servers")
    if int(requests.min()) < 0:
        raise ValueError(
            f"cannot route requests: negative node index {int(requests.min())}"
        )
    if servers.size and int(servers.min()) < 0:
        raise ValueError(
            f"cannot route requests: negative server node {int(servers.min())}"
        )

    if strategy is RoutingStrategy.NEAREST:
        return _route_nearest(substrate, servers, requests, costs)
    if strategy is RoutingStrategy.LOAD_AWARE:
        return _route_load_aware(substrate, servers, requests, costs)
    raise ValueError(f"unknown routing strategy: {strategy!r}")


def _route_nearest(
    substrate: Substrate,
    servers: np.ndarray,
    requests: np.ndarray,
    costs: CostModel,
) -> RoutingResult:
    distances = substrate.distances[np.ix_(servers, requests)]
    assignment = np.argmin(distances, axis=0)
    latency = distances[assignment, np.arange(requests.size)].sum()
    latency += costs.wireless_hop * requests.size
    counts = np.bincount(assignment, minlength=servers.size)
    load = costs.load(substrate.strengths[servers], counts).sum()
    return RoutingResult(float(latency), float(load), counts, assignment)


def _route_load_aware(
    substrate: Substrate,
    servers: np.ndarray,
    requests: np.ndarray,
    costs: CostModel,
) -> RoutingResult:
    strengths = substrate.strengths[servers]
    distances = substrate.distances[np.ix_(servers, requests)]
    counts = np.zeros(servers.size, dtype=np.int64)
    assignment = np.empty(requests.size, dtype=np.int64)
    latency = 0.0

    current_load = costs.load(strengths, counts)
    for i in range(requests.size):
        bumped = costs.load(strengths, counts + 1)
        marginal = distances[:, i] + (bumped - current_load)
        choice = int(np.argmin(marginal))
        assignment[i] = choice
        latency += float(distances[choice, i])
        counts[choice] += 1
        current_load[choice] = bumped[choice]

    latency += costs.wireless_hop * requests.size
    load = costs.load(strengths, counts).sum()
    return RoutingResult(float(latency), float(load), counts, assignment)


def route_capacitated(
    substrate: Substrate,
    servers: np.ndarray,
    requests: np.ndarray,
    costs: CostModel,
    remaining: np.ndarray,
    t: int,
) -> RoutingResult:
    """Route round ``t`` under per-node capacities: nearest with spill.

    The one capacity rule of the game. Each request, in round order, goes
    to its nearest active server with a whole unit of ``remaining``
    capacity (ties to the lower node index, via the stable preference
    sort) and consumes that unit; a full server spills the request to the
    next-nearest. ``remaining`` is the caller's per-node budget, consumed
    in place, so several services can share one round's budget.

    Raises:
        ValueError: when a request finds every active server full — the
            capacity vector is a hard packing constraint — or when requests
            exist but no server is active.
    """
    servers = np.asarray(servers, dtype=np.int64)
    requests = np.asarray(requests, dtype=np.int64)
    if requests.size == 0:
        return route_requests(substrate, servers, requests, costs)
    if servers.size == 0:
        raise ValueError("cannot route requests: no active servers")
    distances = substrate.distances[np.ix_(servers, requests)]
    preference = np.argsort(distances, axis=0, kind="stable")
    assignment = np.empty(requests.size, dtype=np.int64)
    latency = 0.0
    for j in range(requests.size):
        for rank in preference[:, j]:
            node = int(servers[rank])
            if remaining[node] >= 1.0:
                assignment[j] = rank
                latency += float(distances[rank, j])
                remaining[node] -= 1.0
                break
        else:
            raise ValueError(
                f"round {t}: the request at node {int(requests[j])} cannot be "
                "served, every active server is at capacity"
            )
    latency += costs.wireless_hop * requests.size
    counts = np.bincount(assignment, minlength=servers.size)
    load = costs.load(substrate.strengths[servers], counts).sum()
    return RoutingResult(latency, float(load), counts, assignment)
