"""The cost model of §II: access, running, creation and migration costs.

Cost factors (all per the paper's model section):

* ``migration`` — the constant migration cost ``β`` charged when a server
  (or its state) moves to another node. The paper focuses on ``β < c``; the
  β > c experiments (Figures 6, 14, 16–19) swap the constants.
* ``creation`` — the fixed creation cost ``c`` for starting a server that is
  not in use (install the box, configure the template, …).
* ``run_active`` / ``run_inactive`` — per-round running costs ``Ra > Ri``
  of active respectively inactive (cached) servers. Servers *not in use*
  cost nothing.
* ``load`` — the server-load latency model entering the access cost.
* ``wireless_hop`` — constant first-hop latency from terminal to substrate
  (the paper folds it into Costacc; zero by default since it only shifts
  every algorithm's cost by the same amount).

Distance-dependent migration (an extension over the paper's constant-β
model) is supported through an optional ``migration_matrix`` giving
``β(u, v)`` per node pair; :func:`bandwidth_migration_matrix` derives one
from bulk-transfer time over the latency-shortest path, using the substrate's
T1/T2 link capacities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import Configuration
from repro.core.load import LinearLoad, LoadFunction
from repro.topology.substrate import Substrate
from repro.util.validation import check_non_negative, check_positive

__all__ = ["CostModel", "bandwidth_migration_matrix"]


@dataclass(frozen=True, eq=False)
class CostModel:
    """All cost constants of the model, with the paper's defaults.

    Defaults are the simulation defaults of §V-A: ``β = 40``, ``c = 400``,
    and the Rocketfuel experiment's running costs ``Ra = 2.5``,
    ``Ri = 0.5``. :meth:`paper_default` and :meth:`migration_expensive`
    build the two standard parameterisations.
    """

    migration: float = 40.0
    creation: float = 400.0
    run_active: float = 2.5
    run_inactive: float = 0.5
    load: LoadFunction = field(default_factory=LinearLoad)
    wireless_hop: float = 0.0
    migration_matrix: "np.ndarray | None" = None

    def __post_init__(self) -> None:
        check_non_negative("migration", self.migration)
        check_non_negative("creation", self.creation)
        check_non_negative("run_active", self.run_active)
        check_non_negative("run_inactive", self.run_inactive)
        check_non_negative("wireless_hop", self.wireless_hop)
        if self.run_inactive > self.run_active:
            raise ValueError(
                f"run_inactive ({self.run_inactive}) must not exceed "
                f"run_active ({self.run_active})"
            )
        if self.migration_matrix is not None:
            matrix = np.asarray(self.migration_matrix, dtype=np.float64)
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                raise ValueError(
                    f"migration_matrix must be square, got shape {matrix.shape}"
                )
            if np.any(matrix < 0):
                raise ValueError("migration_matrix entries must be >= 0")
            matrix = matrix.copy()
            matrix.flags.writeable = False
            object.__setattr__(self, "migration_matrix", matrix)

    # -- canonical parameterisations ---------------------------------------------

    @classmethod
    def paper_default(cls, **overrides) -> "CostModel":
        """β = 40 < c = 400: migration is cheap, the paper's main regime."""
        return cls(migration=40.0, creation=400.0, **overrides)

    @classmethod
    def migration_expensive(cls, **overrides) -> "CostModel":
        """β = 400 > c = 40: migration never pays off (Figures 6, 14, 16-19)."""
        return cls(migration=400.0, creation=40.0, **overrides)

    # -- derived quantities --------------------------------------------------------

    def migration_cost(self, src: int, dst: int) -> float:
        """Cost of migrating a server from ``src`` to ``dst``.

        Constant ``β`` unless a ``migration_matrix`` is configured.
        """
        if src == dst:
            return 0.0
        if self.migration_matrix is None:
            return self.migration
        return float(self.migration_matrix[src, dst])

    def running_cost(self, config: Configuration) -> float:
        """Per-round running cost ``Ra·#active + Ri·#inactive`` of a configuration."""
        return self.run_active * config.n_active + self.run_inactive * config.n_inactive

    def running_cost_counts(self, n_active: int, n_inactive: int = 0) -> float:
        """Per-round running cost from raw server counts."""
        return self.run_active * n_active + self.run_inactive * n_inactive


def bandwidth_migration_matrix(
    substrate: Substrate,
    state_size_mbit: float = 800.0,
    overhead: float = 5.0,
    time_unit_ms: float = 1000.0,
) -> np.ndarray:
    """Distance-dependent migration costs from bulk state transfer (extension).

    The paper notes that migration cost is "determined by network bandwidth"
    while keeping β constant for the analysis. This helper builds the
    ``β(u, v)`` matrix for the non-constant variant: migrating a server with
    ``state_size_mbit`` of state from ``u`` to ``v`` takes the transfer time
    over the *bottleneck* bandwidth along the latency-shortest path, plus a
    fixed ``overhead`` (service interruption, reconfiguration).

    Args:
        substrate: the substrate network (provides latencies + bandwidths).
        state_size_mbit: server RAM/state size to ship, in Mbit.
        overhead: fixed per-migration cost added to every pair.
        time_unit_ms: how many milliseconds one cost unit represents; transfer
            seconds are scaled by ``1000 / time_unit_ms``.

    Returns:
        A read-only ``(n, n)`` array with zeros on the diagonal.
    """
    check_positive("state_size_mbit", state_size_mbit)
    check_non_negative("overhead", overhead)
    check_positive("time_unit_ms", time_unit_ms)

    from scipy.sparse.csgraph import dijkstra

    n = substrate.n
    adjacency = _adjacency_with_bandwidth(substrate)
    _, predecessors = dijkstra(
        adjacency["latency"], directed=False, return_predecessors=True
    )

    matrix = np.zeros((n, n), dtype=np.float64)
    bandwidth = adjacency["bandwidth"]
    for src in range(n):
        for dst in range(src + 1, n):
            bottleneck = _path_bottleneck(predecessors, bandwidth, src, dst)
            transfer_s = state_size_mbit / bottleneck
            cost = overhead + transfer_s * (1000.0 / time_unit_ms)
            matrix[src, dst] = cost
            matrix[dst, src] = cost
    matrix.flags.writeable = False
    return matrix


def _adjacency_with_bandwidth(substrate: Substrate) -> dict:
    """Sparse latency adjacency plus a dense bandwidth lookup for path walking."""
    from scipy.sparse import csr_matrix

    n = substrate.n
    links = substrate.link_arrays
    rows = np.concatenate((links.u, links.v))
    cols = np.concatenate((links.v, links.u))
    bandwidth = np.zeros((n, n), dtype=np.float64)
    bandwidth[rows, cols] = np.concatenate((links.bandwidth, links.bandwidth))
    latency = csr_matrix(
        (np.concatenate((links.latency, links.latency)), (rows, cols)), shape=(n, n)
    )
    return {"latency": latency, "bandwidth": bandwidth}


def _path_bottleneck(
    predecessors: np.ndarray, bandwidth: np.ndarray, src: int, dst: int
) -> float:
    """Minimum link bandwidth along the shortest path ``src -> dst``."""
    bottleneck = np.inf
    node = dst
    while node != src:
        prev = int(predecessors[src, node])
        if prev < 0:
            raise ValueError(f"no path from {src} to {dst}")
        bottleneck = min(bottleneck, bandwidth[prev, node])
        node = prev
    return float(bottleneck)
