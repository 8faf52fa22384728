"""Multiple services sharing one substrate (§II-B's full request model).

The paper's requests are tuples ``(a ∈ A, S ∈ S)`` — an access point *and a
service*: the substrate provider hosts several virtualised services, each
with its own server fleet and allocation policy. The evaluation section
only ever exercises one service, so the single-service
:func:`~repro.core.simulator.simulate` is the library's main entry point;
this module implements the general case as a documented extension.

Semantics:

* each service has its own trace, policy, configuration and ledger — the
  game of §II-E runs per service, in lockstep rounds. Each service is
  played by :func:`~repro.core.simulator.simulate`'s per-service stepper,
  so its checks, decisions, transition pricing and ledger are
  ``simulate``'s own; this module only shares the round's node load and
  capacity budget between the services;
* services couple through **shared node load**: the load latency of node
  ``v`` in round ``t`` is ``f(ω(v), η(v, t))`` with ``η`` counting requests
  of *all* services served at ``v``. Each service is charged its share of
  the node load in proportion to its requests there (for linear load this
  equals its stand-alone cost; for convex load, co-location hurts both —
  the contention is the point of the model);
* a node may host at most one server *per service* (different services
  may co-locate; they are distinct virtual machines);
* when the substrate carries a per-node **capacity vector**
  (``Substrate(..., capacities=...)``), each node serves at most
  ``capacities[v]`` requests per round *summed over all services*. Every
  service is routed by :func:`~repro.core.routing.route_capacitated`, the
  capacity rule :func:`~repro.core.simulator.simulate` applies too, against
  one per-round budget shared in declaration order: a request goes to its
  nearest active server with spare capacity and spills to the next-nearest
  when that one is full. A round whose demand cannot be packed raises
  :class:`ValueError`. Uncapacitated substrates route every service with
  :func:`~repro.core.routing.route_requests`.

The per-service ledgers are ordinary :class:`~repro.core.results.RunResult`
objects, so all analysis tooling applies unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from repro.core.costs import CostModel
from repro.core.policy import AllocationPolicy
from repro.core.results import RunResult
from repro.core.routing import RoutingResult, route_capacitated, route_requests
from repro.core.simulator import _Player
from repro.topology.substrate import Substrate
from repro.workload.base import Trace
from repro.util.rng import ensure_rng

__all__ = ["ServiceSpec", "simulate_services"]


@dataclass
class ServiceSpec:
    """One hosted service: its demand, policy and (optional) cost model."""

    name: str
    policy: AllocationPolicy
    trace: Trace
    costs: "CostModel | None" = None


def simulate_services(
    substrate: Substrate,
    services: "list[ServiceSpec]",
    default_costs: "CostModel | None" = None,
    seed: "int | np.random.Generator | None" = None,
) -> Mapping[str, RunResult]:
    """Run several services over one substrate with shared node load.

    Args:
        substrate: the shared substrate network; when it carries
            ``capacities``, routing enforces them as a per-round per-node
            packing constraint shared across services in declaration
            order (see :func:`~repro.core.routing.route_capacitated`).
        services: the hosted services; traces must have equal length
            (lockstep rounds) and unique names.
        default_costs: cost model for services without their own.
        seed: policy randomness (one child stream per service).

    Returns:
        Mapping service name → its :class:`RunResult` ledger.

    Raises:
        ValueError: invalid service set, a cost model or configuration that
            ``simulate`` would reject, a service with requests but no
            active server, or — on capacitated substrates — a round whose
            demand cannot be packed within the active servers' capacities.
    """
    if not services:
        raise ValueError("simulate_services needs at least one service")
    names = [spec.name for spec in services]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate service names in {names}")
    horizons = {len(spec.trace) for spec in services}
    if len(horizons) != 1:
        raise ValueError(
            f"all traces must have equal length, got {sorted(horizons)}"
        )
    horizon = horizons.pop()
    default_costs = default_costs if default_costs is not None else CostModel.paper_default()

    streams = ensure_rng(seed).spawn(len(services))
    players = []
    for spec, stream in zip(services, streams):
        if spec.trace.max_node >= substrate.n:
            raise ValueError(
                f"service {spec.name!r} references node {spec.trace.max_node} "
                f"outside the {substrate.n}-node substrate"
            )
        costs = spec.costs if spec.costs is not None else default_costs
        players.append(_Player(substrate, spec.policy, spec.trace, costs, stream))

    strengths = substrate.strengths
    for t in range(horizon):
        # Phase 1: route every service against its own servers; collect the
        # per-node demand each service induces. On capacitated substrates
        # the per-round budget is shared across services (placement order:
        # services as declared, requests in trace order).
        assignments: list[tuple[RoutingResult, np.ndarray, np.ndarray]] = []
        node_counts = np.zeros(substrate.n, dtype=np.int64)
        remaining = (
            substrate.capacities.copy() if substrate.capacitated else None
        )
        for spec, player in zip(services, players):
            requests = spec.trace[t]
            if requests.size and player.config.n_active == 0:
                raise ValueError(
                    f"service {spec.name!r} has no active server in round {t}"
                )
            servers = player.config.active_array
            if remaining is None:
                routed = route_requests(substrate, servers, requests, player.costs)
            else:
                routed = route_capacitated(
                    substrate, servers, requests, player.costs, remaining, t
                )
            served_at = servers[routed.assignment]
            assignments.append((routed, requests, served_at))
            node_counts += np.bincount(served_at, minlength=substrate.n)

        # Phase 2: shared node load, attributed proportionally to each
        # service's requests at the node.
        busy = np.flatnonzero(node_counts)
        node_load = np.zeros(substrate.n, dtype=np.float64)
        if busy.size:
            # One load function evaluation per service cost model is wrong —
            # load is a property of the *node*; use each service's own model
            # only for attribution weighting. The substrate-level load uses
            # the default model (services share the machine).
            node_load[busy] = default_costs.load(
                strengths[busy], node_counts[busy]
            )

        # Phase 3: each service's player decides and records the round.
        for player, (routed, requests, served_at) in zip(players, assignments):
            load = 0.0
            if served_at.size:
                mine = np.bincount(served_at, minlength=substrate.n)
                with np.errstate(invalid="ignore"):
                    share = np.divide(
                        mine, node_counts,
                        out=np.zeros(substrate.n, dtype=np.float64),
                        where=node_counts > 0,
                    )
                load = float((node_load * share).sum())
            player.step(t, requests, replace(routed, load_cost=load))

    return {spec.name: player.finish() for spec, player in zip(services, players)}
