"""The per-epoch server placement program of the ILP/LP policy family.

Given a demand window (how many requests each access point produced over the
last ``W`` rounds), the current configuration and the cost model, build one
mixed-integer program choosing the next active server set for the coming
epoch of ``R`` rounds:

* binaries ``x[n]`` — open an active server at node ``n``;
* continuous ``y[p, n] ∈ [0, 1]`` — the fraction of access point ``p``'s
  demand served at ``n`` (at most one server per node and per service, the
  packing constraint of the capacitated model, is inherited from
  :class:`~repro.core.config.Configuration`: ``x`` is per node);
* objective = expected access cost (latency + wireless hop + linearised
  per-request load) over the epoch + running cost ``R·Ra·Σx`` + switching
  cost for nodes not currently occupied;
* constraints: every point fully served (``Σₙ y[p,n] = 1``), service only at
  open nodes (``y[p,n] ≤ x[n]``), per-node capacity
  (``Σₚ rate_p·y[p,n] ≤ cap[n]``, per round, ``cap`` the substrate's
  ``capacities``), fleet bounds (``1 ≤ Σ x ≤ max_servers``). The
  capacity row bounds the window's *mean* rate; the simulator enforces
  ``cap`` on every actual round.

Two deliberate linearisations keep the model an (I)LP — both are *planning*
approximations; the adopted configuration is always re-priced exactly by the
simulator's :func:`~repro.core.transitions.price_transition`:

* the per-request load is the cost model's load at count one
  (exact for the paper's default :class:`~repro.core.load.LinearLoad`,
  optimistic for convex load);
* a node not currently occupied is charged ``min(β, c)`` to open — the
  cheapest realisation (a migration when a donor vanishes, else a
  creation); occupied nodes (active or cached inactive) reopen for free.

``relax=True`` solves the LP relaxation instead and rounds
deterministically (:func:`round_fractional`): largest fractional openings
win, ties to the lower node index, extended greedily until capacity covers
the windowed demand rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.optim.backends import Program
from repro.core.costs import CostModel
from repro.topology.substrate import Substrate

__all__ = ["PlacementModel", "build_placement", "round_fractional", "unit_loads"]


def unit_loads(substrate: Substrate, costs: CostModel) -> np.ndarray:
    """Per-node cost of serving a single request (the load linearisation)."""
    return np.asarray(
        costs.load(substrate.strengths, np.ones(substrate.n)), dtype=np.float64
    )


@dataclass(frozen=True)
class PlacementModel:
    """One built placement program plus what is needed to read it back."""

    program: Program
    #: column index of ``x[n]`` per substrate node
    x_index: np.ndarray
    #: distinct demand points (access-point node indices)
    points: np.ndarray
    #: per-round demand rate of each point over the window
    rates: np.ndarray
    #: effective per-round node capacities (``None`` = uncapacitated)
    capacities: "np.ndarray | None"
    max_servers: "int | None"

    def active_from(self, values: np.ndarray, relax: bool) -> "tuple[int, ...]":
        """The chosen active set: threshold (MILP) or round (LP) the ``x``."""
        x = values[self.x_index]
        if not relax:
            return tuple(int(n) for n in np.flatnonzero(x > 0.5))
        return round_fractional(
            x, self.capacities, float(self.rates.sum()), self.max_servers
        )


def build_placement(
    substrate: Substrate,
    costs: CostModel,
    demand: np.ndarray,
    window_rounds: int,
    epoch_rounds: int,
    occupied: "frozenset[int] | set[int]",
    capacities: "np.ndarray | None" = None,
    max_servers: "int | None" = None,
) -> PlacementModel:
    """Build the epoch placement program for a windowed demand histogram.

    Args:
        substrate: the substrate network.
        costs: cost model (β, c, Ra, load, wireless hop).
        demand: concatenated access-point indices of the window's requests.
        window_rounds: rounds the window spans (normalises demand to rates).
        epoch_rounds: rounds the plan will be held for (scales recurring
            costs so switching is weighed against a whole epoch's savings).
        occupied: nodes currently holding a server (active or cached
            inactive) — they reopen for free.
        capacities: per-round per-node capacities, or ``None``.
        max_servers: optional fleet-size bound ``Σ x ≤ k``.
    """
    n = substrate.n
    demand = np.asarray(demand, dtype=np.int64)
    points, counts = np.unique(demand, return_counts=True)
    rates = counts.astype(np.float64) / float(max(window_rounds, 1))

    program = Program()
    open_cost = min(costs.migration, costs.creation)
    x_index = np.empty(n, dtype=np.int64)
    for node in range(n):
        coefficient = costs.run_active * epoch_rounds
        if node not in occupied:
            coefficient += open_cost
        x_index[node] = program.variable(coefficient, integer=True)

    per_request = unit_loads(substrate, costs) + costs.wireless_hop
    y_index = np.empty((points.size, n), dtype=np.int64)
    for p, point in enumerate(points.tolist()):
        served_weight = rates[p] * epoch_rounds
        for node in range(n):
            cost = served_weight * (
                substrate.distances[point, node] + per_request[node]
            )
            y_index[p, node] = program.variable(cost)
        program.constrain(
            [(int(y_index[p, node]), 1.0) for node in range(n)], lo=1.0, hi=1.0
        )
        for node in range(n):
            # service only at open nodes (per-pair: tight LP relaxation)
            program.constrain(
                [(int(y_index[p, node]), 1.0), (int(x_index[node]), -1.0)],
                hi=0.0,
            )

    if capacities is not None:
        for node in range(n):
            terms = [
                (int(y_index[p, node]), float(rates[p]))
                for p in range(points.size)
            ]
            if terms:
                program.constrain(terms, hi=float(capacities[node]))

    fleet = [(int(x_index[node]), 1.0) for node in range(n)]
    program.constrain(fleet, lo=1.0)
    if max_servers is not None:
        program.constrain(fleet, hi=float(max_servers))

    return PlacementModel(
        program=program,
        x_index=x_index,
        points=points,
        rates=rates,
        capacities=capacities,
        max_servers=max_servers,
    )


def round_fractional(
    x: np.ndarray,
    capacities: "np.ndarray | None",
    total_rate: float,
    max_servers: "int | None",
) -> "tuple[int, ...]":
    """Deterministically round a fractional LP opening vector.

    Open ``k = clip(round(Σx), 1, max_servers)`` nodes, largest fractional
    value first (ties to the lower index), then keep extending in the same
    order until the opened per-round capacity covers the windowed demand
    rate.  Pure arithmetic on the LP solution — no RNG — so LP-relaxation
    policies stay bit-reproducible and CRN-safe.
    """
    n = x.size
    order = np.lexsort((np.arange(n), -x))
    k = int(np.clip(np.rint(x.sum()), 1, max_servers if max_servers else n))
    chosen = list(order[:k].tolist())
    if capacities is not None:
        while (
            sum(float(capacities[node]) for node in chosen) < total_rate
            and len(chosen) < n
        ):
            chosen.append(int(order[len(chosen)]))
    return tuple(sorted(int(node) for node in chosen))
