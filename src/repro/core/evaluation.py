"""Vectorised evaluation of candidate configurations over request batches.

The best-response steps of ONBR/ONTH (§III-A) and the greedy placement of
OFFSTAT (§V-B) all answer the same question: *given the requests of some
window (an epoch, or the whole trace), how much access cost would a
candidate server placement have incurred?* This module provides that
primitive, engineered so that scanning all ``O(n)`` single-change candidates
costs a handful of numpy broadcasts instead of ``O(n · |σ|)`` Python work:

* the window's requests are flattened into one index array with per-round
  offsets (:class:`RequestBatch`);
* per-request *base* latencies under the current placement are computed
  once; adding a candidate server ``u`` then costs one
  ``minimum(D[u], base)`` reduction, and the whole candidate family is a
  single ``(n × R)`` broadcast;
* the load term is added exactly. For assignment-invariant load models
  (linear load, uniform strengths — the paper's default) it is a constant
  across candidates; otherwise the family is ranked by latency and a
  shortlist is re-scored exactly, including per-round loads.

:meth:`RequestBatch.epoch_scan` bundles the five single-change families of
one epoch boundary into a single :class:`EpochScan`; the per-family methods
it is built from are the reference the batched window's fused scan is
tested against.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.costs import CostModel
from repro.topology.substrate import Substrate

__all__ = ["EpochScan", "RequestBatch"]

#: How many latency-best candidates are re-scored exactly when the load
#: model is not assignment-invariant.
_SHORTLIST_SIZE = 8


class EpochScan(NamedTuple):
    """Window access costs of every single-change family at one epoch boundary.

    Attributes:
        stay: access cost of the current placement.
        migrate_target: per active server, its cheapest unoccupied target
            node (empty when migrations were not scanned).
        migrate_access: access cost of each server's best migration
            (``+inf`` when no target is free).
        removal: access cost without each active server, or ``None`` when
            removals were not scanned (or fewer than two servers are active).
        addition: access cost of ``active + {u}`` for every node ``u``
            (see :meth:`RequestBatch.addition_costs`), or ``None`` when
            additions were not scanned.
    """

    stay: float
    migrate_target: np.ndarray
    migrate_access: np.ndarray
    removal: "np.ndarray | None"
    addition: "np.ndarray | None"


class RequestBatch:
    """A window of request rounds, flattened for vectorised evaluation.

    Args:
        substrate: the substrate network (provides distances/strengths).
        costs: the cost model (load function and wireless hop).
        rounds: list of per-round request arrays; may be empty.
    """

    def __init__(
        self,
        substrate: Substrate,
        costs: CostModel,
        rounds: "list[np.ndarray] | tuple[np.ndarray, ...]" = (),
    ) -> None:
        self._substrate = substrate
        self._costs = costs
        self._rounds: list[np.ndarray] = []
        self._flat: "np.ndarray | None" = None
        self._round_ids: "np.ndarray | None" = None
        self._sizes: "np.ndarray | None" = None
        self._invariant: "bool | None" = None
        self._inv_load: "float | None" = None
        for arr in rounds:
            self.add_round(arr)

    # -- accumulation -----------------------------------------------------------

    def add_round(self, requests: np.ndarray) -> None:
        """Append one round's request multiset to the window."""
        self._rounds.append(np.asarray(requests, dtype=np.int64))
        self._flat = None
        self._round_ids = None
        self._sizes = None
        self._inv_load = None

    def clear(self) -> None:
        """Empty the window (start of a new epoch)."""
        self._rounds.clear()
        self._flat = None
        self._round_ids = None
        self._sizes = None
        self._inv_load = None

    @property
    def n_rounds(self) -> int:
        """Number of rounds in the window."""
        return len(self._rounds)

    @property
    def total_requests(self) -> int:
        """Number of requests in the window."""
        return int(self.flat.size)

    @property
    def flat(self) -> np.ndarray:
        """All requests of the window, concatenated."""
        if self._flat is None:
            self._flat = (
                np.concatenate(self._rounds)
                if self._rounds
                else np.zeros(0, dtype=np.int64)
            )
        return self._flat

    @property
    def round_ids(self) -> np.ndarray:
        """Round index of each entry of :attr:`flat`."""
        if self._round_ids is None:
            sizes = [arr.size for arr in self._rounds]
            self._round_ids = np.repeat(
                np.arange(len(self._rounds), dtype=np.int64), sizes
            )
        return self._round_ids

    @property
    def round_sizes(self) -> np.ndarray:
        """Per-round request counts as float64 (memoised).

        Every candidate scan over a non-trivial load model consults the
        per-round sizes; rebuilding the array per candidate was measurable,
        so it is cached alongside :attr:`flat` and :attr:`round_ids`.
        """
        if self._sizes is None:
            self._sizes = np.asarray(
                [arr.size for arr in self._rounds], dtype=np.float64
            )
        return self._sizes

    def memoised(self, key: tuple, compute):
        """``compute()``, which must be a pure function of ``key`` and the
        window's requests. A plain batch has no content key and memoises
        nothing; a gather window caches the value on its gather."""
        return compute()

    # -- distance access (overridable by the batched gather window) -------------

    def _distance_block(self, rows: np.ndarray) -> np.ndarray:
        """Distances from ``rows`` to every window request, ``(len(rows), R)``."""
        return self._substrate.distances[np.ix_(rows, self.flat)]

    def _candidate_matrix(self) -> np.ndarray:
        """Distances from *every* node to every window request, ``(n, R)``."""
        return self._substrate.distances[:, self.flat]

    # -- exact costs -----------------------------------------------------------

    def exact_access_cost(self, active: "np.ndarray | tuple[int, ...]") -> float:
        """Access cost of serving the window with servers at ``active``.

        Latency uses nearest routing; load is computed per round from the
        induced request counts, exactly as the simulator would charge it.
        """
        active = np.asarray(active, dtype=np.int64)
        flat = self.flat
        if flat.size == 0:
            return 0.0
        if active.size == 0:
            raise ValueError("cannot evaluate a window against zero active servers")

        distances = self._distance_block(active)
        assignment = np.argmin(distances, axis=0)
        latency = float(distances[assignment, np.arange(flat.size)].sum())
        latency += self._costs.wireless_hop * flat.size

        # One bincount over combined (round, server) keys: the same integer
        # counts as a scatter-add, so the load floats are identical.
        k = active.size
        counts = np.bincount(
            self.round_ids * k + assignment, minlength=self.n_rounds * k
        ).reshape(self.n_rounds, k)
        strengths = self._substrate.strengths[active]
        load = float(self._costs.load(strengths, counts).sum())
        return latency + load

    def _load_is_invariant(self) -> bool:
        if self._invariant is None:
            uniform = bool(
                np.all(self._substrate.strengths == self._substrate.strengths[0])
            )
            self._invariant = (
                uniform and self._costs.load.assignment_invariant_for_uniform_strength
            )
        return self._invariant

    def _invariant_load(self) -> float:
        """Window load total when it does not depend on the assignment."""
        if self._inv_load is None:
            sizes = self.round_sizes
            strength = float(self._substrate.strengths[0])
            self._inv_load = float(
                self._costs.load(np.full(sizes.shape, strength), sizes).sum()
            )
        return self._inv_load

    # -- candidate families ---------------------------------------------------------

    def epoch_scan(
        self,
        active: "np.ndarray | tuple[int, ...]",
        occupied: "np.ndarray | tuple[int, ...]",
        migrate: bool = True,
        deactivate: bool = True,
        add: bool = True,
    ) -> EpochScan:
        """Scan the enabled single-change families of ``active`` in one call.

        ``occupied`` lists every node hosting a server (active or cached);
        no migration may target one. Built from the per-family methods
        below, which makes this the reference implementation the batched
        window's fused scan must reproduce bit for bit.
        """
        active = np.asarray(active, dtype=np.int64)
        k = active.size
        stay = float(self.exact_access_cost(active)) if k else 0.0
        targets = np.zeros(0, dtype=np.int64)
        access = np.zeros(0, dtype=np.float64)
        if migrate and k:
            access_all = self.migration_costs_all(active)
            access_all[:, np.asarray(occupied, dtype=np.int64)] = np.inf
            targets = np.argmin(access_all, axis=1)
            access = access_all[np.arange(k), targets]
        removal = self.removal_costs(active) if deactivate and k >= 2 else None
        addition = self.addition_costs(active) if add else None
        return EpochScan(stay, targets, access, removal, addition)

    def base_latency(self, active: "np.ndarray | tuple[int, ...]") -> np.ndarray:
        """Per-request nearest-server latency under ``active`` (no hop, no load)."""
        active = np.asarray(active, dtype=np.int64)
        if self.flat.size == 0:
            return np.zeros(0, dtype=np.float64)
        if active.size == 0:
            return np.full(self.flat.size, np.inf)
        return self._distance_block(active).min(axis=0)

    def addition_costs(self, active: "np.ndarray | tuple[int, ...]") -> np.ndarray:
        """Access cost of the window for ``active + {u}``, for every node ``u``.

        Entry ``u`` of the result is the exact window access cost of the
        placement ``active ∪ {u}`` (for ``u`` already in ``active`` this
        equals the unchanged cost). One ``(n × R)`` broadcast plus — for
        non-invariant load models — an exact re-score of the latency-best
        shortlist; other entries then carry the latency plus a lower bound
        of the load, which preserves the argmin.
        """
        active = np.asarray(active, dtype=np.int64)
        n = self._substrate.n
        flat = self.flat
        if flat.size == 0:
            return np.zeros(n, dtype=np.float64)

        base = self.base_latency(active)
        latency = np.minimum(self._candidate_matrix(), base).sum(axis=1)
        latency += self._costs.wireless_hop * flat.size

        if self._load_is_invariant():
            return latency + self._invariant_load()
        return self._with_exact_shortlist(latency, active)

    def _with_exact_shortlist(
        self, latency: np.ndarray, active: np.ndarray
    ) -> np.ndarray:
        """Exactly re-score the cheapest candidates for convex loads.

        For non-invariant loads the true access cost is latency + load with
        load depending on the split. We add a *lower bound* of the load
        (perfect balancing across all servers, by convexity the cheapest
        possible split) to every entry, score a latency-best shortlist
        exactly, then lazily keep scoring whichever entry is currently the
        argmin until the argmin itself is exact. The argmin of the returned
        array is therefore the true best candidate; non-argmin entries may
        remain lower bounds.
        """
        active_set = set(active.tolist())

        def exact(u: int) -> float:
            candidate = active if u in active_set else np.append(active, u)
            return self.exact_access_cost(candidate)

        bound = latency + self._balanced_load_bound(active.size + 1)
        return self._lazy_exact_argmin(bound, exact)

    def _lazy_exact_argmin(self, bound: np.ndarray, exact) -> np.ndarray:
        """Refine ``bound`` entries with ``exact`` until the argmin is exact.

        Sound whenever ``bound[u] <= exact(u)`` for all u (true for the
        convex built-in load models); terminates because each iteration
        fixes one more entry.
        """
        result = bound.copy()
        order = np.argsort(result, kind="stable")
        scored = np.zeros(result.size, dtype=bool)
        for u in order[: min(_SHORTLIST_SIZE, order.size)].tolist():
            if np.isfinite(result[u]):
                result[u] = exact(u)
                scored[u] = True
        while True:
            best = int(np.argmin(result))
            if scored[best] or not np.isfinite(result[best]):
                return result
            result[best] = exact(best)
            scored[best] = True

    def _balanced_load_bound(self, k: int) -> float:
        """Lower bound on window load: every round split evenly over k servers.

        Valid for convex, per-server load functions (all built-ins): by
        convexity the balanced split minimises the summed load.
        """
        sizes = self.round_sizes
        strength = float(self._substrate.strengths.max())
        even = sizes / k
        loads = self._costs.load(np.full(sizes.shape, strength), even)
        return float(loads.sum() * k) if sizes.size else 0.0

    def removal_costs(
        self, active: "np.ndarray | tuple[int, ...]"
    ) -> np.ndarray:
        """Window access cost of ``active − {active[i]}`` for each server index ``i``.

        Exact (there are only ``k`` candidates, so no shortlist is needed).
        A singleton placement cannot be reduced; its entry is ``+inf``.
        """
        active = np.asarray(active, dtype=np.int64)
        costs = np.full(active.size, np.inf)
        if active.size <= 1:
            return costs
        for i in range(active.size):
            remaining = np.delete(active, i)
            costs[i] = self.exact_access_cost(remaining)
        return costs

    def migration_costs(
        self, active: "np.ndarray | tuple[int, ...]", server_index: int
    ) -> np.ndarray:
        """Window access cost of moving server ``active[server_index]`` to each node.

        Entry ``u`` is the window access cost of
        ``active − {active[server_index]} + {u}``; entries for nodes already
        in ``active`` are ``+inf`` (no co-location). Uses the same
        broadcast-plus-shortlist scheme as :meth:`addition_costs`.
        """
        active = np.asarray(active, dtype=np.int64)
        if not 0 <= server_index < active.size:
            raise IndexError(f"server index {server_index} out of range")
        rest = np.delete(active, server_index)
        flat = self.flat
        n = self._substrate.n
        if flat.size == 0:
            return np.zeros(n, dtype=np.float64)

        if rest.size == 0:
            base = np.full(flat.size, np.inf)
        else:
            base = self.base_latency(rest)
        latency = np.minimum(self._candidate_matrix(), base).sum(axis=1)
        latency += self._costs.wireless_hop * flat.size

        if self._load_is_invariant():
            result = latency + self._invariant_load()
        else:
            result = self._migration_shortlist(latency, rest)
        result[active] = np.inf
        return result

    def migration_costs_all(
        self, active: "np.ndarray | tuple[int, ...]"
    ) -> np.ndarray:
        """All migration families at once: row ``i`` is ``migration_costs(active, i)``.

        The epoch scan asks for every server's family against the same
        window.
        """
        active = np.asarray(active, dtype=np.int64)
        result = np.empty((active.size, self._substrate.n), dtype=np.float64)
        for i in range(active.size):
            result[i] = self.migration_costs(active, i)
        return result

    def _migration_shortlist(self, latency: np.ndarray, rest: np.ndarray) -> np.ndarray:
        def exact(u: int) -> float:
            return self.exact_access_cost(np.append(rest, u))

        bound = latency + self._balanced_load_bound(rest.size + 1)
        return self._lazy_exact_argmin(bound, exact)
