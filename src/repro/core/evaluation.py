"""Vectorised evaluation of candidate configurations over request batches.

The best-response steps of ONBR/ONTH (§III-A) and the greedy placement of
OFFSTAT (§V-B) all answer the same question: *given the requests of some
window (an epoch, or the whole trace), how much access cost would a
candidate server placement have incurred?* This module provides that
primitive, engineered so that scanning all ``O(k·n)`` single-change
candidates costs a handful of numpy broadcasts instead of ``O(k·n·|σ|)``
Python work:

* the window's requests are flattened into one index array with per-round
  offsets (:class:`RequestBatch`);
* per-request latencies under the current placement and under each of its
  leave-one-out placements form one stack of rows, each summed pairwise
  like :meth:`RequestBatch.exact_access_cost`; adding a candidate server
  ``u`` to a row costs one ``minimum(D[u], row)`` reduction, and every
  family's candidate sums are one fold over chunks of the window's
  requests, a sequential sum in request order whose bits do not depend on
  the chunk size (memory O(chunk), not O(rows × n × R));
* the load term is added exactly. For assignment-invariant load models
  (linear load, uniform strengths — the paper's default) it is a constant
  across candidates; otherwise each candidate row carries a balanced-split
  lower bound, refined with exact scores until the row's cheapest free
  node is exact.

:meth:`RequestBatch.epoch_scan` is that one pass: the five single-change
families of an epoch boundary in a single :class:`EpochScan`, for a plain
window (streamed input, OFFBR/OFFTH lookahead, OFFSTAT's whole trace) and
for a :class:`~repro.core.batch.GatherWindow` alike. The gather window only
changes where the distances come from (its gather's columns of the trace's
distinct request nodes) and memoises the result.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from repro.core.costs import CostModel
from repro.topology.substrate import Substrate

__all__ = ["EpochScan", "RequestBatch"]

#: How many latency-best candidates are re-scored exactly when the load
#: model is not assignment-invariant.
_SHORTLIST_SIZE = 8

#: Bytes of the ``(rows, chunk, n)`` minima buffer the candidate fold
#: reuses for each chunk of a window's requests.
_FOLD_BYTES = 256 << 10

#: Fewest requests per chunk of the candidate fold, however large the
#: ``rows × n`` face: smaller chunks cost more in per-chunk overhead than
#: they save in memory.
_FOLD_MIN_REQUESTS = 64


def _fold_chunk(rows: int, n: int) -> int:
    """Requests per chunk of the candidate fold over a ``rows × n`` face."""
    return max(_FOLD_MIN_REQUESTS, _FOLD_BYTES // (8 * max(rows * n, 1)))


@functools.lru_cache(maxsize=None)
def _leave_one_out(k: int) -> np.ndarray:
    """Read-only ``(k, k-1)`` index whose row ``i`` is ``np.delete(arange(k), i)``."""
    slots = np.arange(k - 1, dtype=np.int64)
    index = slots + (slots >= np.arange(k)[:, None])
    index.flags.writeable = False
    return index


def _leave_one_out_minima(block: np.ndarray, out: np.ndarray) -> None:
    """``out[i] = min`` over every row of ``block`` but row ``i``.

    Equal to ``block[_leave_one_out(k)].min(axis=1)`` (``inf`` rows when
    ``k == 1``) without its ``(k, k-1, R)`` copy: row ``i`` is the minimum
    of the running minima before and after it. ``min`` is exact, so any
    grouping gives the same bits; the temporaries are O(k·R).
    """
    k = block.shape[0]
    if k == 1:
        out[0] = np.inf
        return
    # Suffix minima min(block[i+1:]) into out[i] for i < k-1, from the back.
    np.minimum.accumulate(block[:0:-1], axis=0, out=out[k - 2 :: -1])
    prefix = np.minimum.accumulate(block[:-1], axis=0)  # min(block[:i+1])
    np.minimum(prefix[:-1], out[1:-1], out=out[1:-1])
    out[-1] = prefix[-1]


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
            (the unchanged cost for ``u`` in ``active``), or ``None`` when
            additions were not scanned.

    Stay, removals and every family's representative are exact: each
    migration's cheapest free target, the addition row's cheapest free node
    and its entries at occupied nodes. Under a load that depends on the
    split, other migration and addition entries may be lower bounds of
    their exact cost.
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
        for arr in rounds:
            self.add_round(arr)

    # -- accumulation -----------------------------------------------------------

    def add_round(self, requests: np.ndarray) -> None:
        """Append one round's request multiset to the window."""
        self._rounds.append(np.asarray(requests, dtype=np.int64))
        self._flat = None
        self._round_ids = None
        self._sizes = None

    def clear(self) -> None:
        """Empty the window (start of a new epoch)."""
        self._rounds.clear()
        self._flat = None
        self._round_ids = None
        self._sizes = None

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
        """Distances from ``rows`` to every window request, ``(len(rows), R)``.

        Callers only take exact ``min``/``argmin`` of the block (the sums
        run over their fresh outputs), so its layout cannot change a bit.
        """
        return self._substrate.distances[rows[:, None], self.flat]

    def _candidate_rows(self, j0: int, j1: int) -> np.ndarray:
        """Distances from every node to window requests ``j0:j1``, as a
        C-contiguous ``(j1 - j0, n)`` block (row ``j`` is request ``j``'s
        distance column, never its row: Dijkstra from the request node
        rounds differently)."""
        return self._substrate.distances[:, self.flat[j0:j1]].T

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

        block = self._distance_block(active)
        latency = float(block.min(axis=0).sum()) + self._costs.wireless_hop * flat.size
        return latency + float(self._placement_loads(block[None], active[None])[0])

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
        sizes = self.round_sizes
        strength = float(self._substrate.strengths[0])
        return float(self._costs.load(np.full(sizes.shape, strength), sizes).sum())

    def _dyadic_load(self) -> "float | None":
        """The window load when every assignment sums to the same bits.

        ``None`` means the scan must count each placement's load. A plain
        batch always counts; a gather window answers from its gather's
        dyadic strength (:func:`~repro.core.load.dyadic_linear_strength`).
        """
        return None

    # -- the epoch scan ---------------------------------------------------------

    def epoch_scan(
        self,
        active: "np.ndarray | tuple[int, ...]",
        occupied: "np.ndarray | tuple[int, ...]",
        migrate: bool = True,
        deactivate: bool = True,
        add: bool = True,
    ) -> EpochScan:
        """Scan the enabled single-change families of ``active`` in one pass.

        ``occupied`` lists every node hosting a server (active or cached);
        no migration may target one.
        """
        active = np.asarray(active, dtype=np.int64)
        occupied = np.asarray(occupied, dtype=np.int64)
        n, k, m = self._substrate.n, active.size, self.flat.size
        migrate = migrate and k > 0
        deactivate = deactivate and k >= 2
        # Candidate rows: one per migrating server, then the addition row.
        first, stop = (0 if migrate else k), (k + 1 if add else k)
        stay, removal = 0.0, (np.zeros(k) if deactivate else None)
        if m == 0:
            # An empty window costs nothing under any placement.
            latency = np.zeros((stop - first, n))
        else:
            hop = self._costs.wireless_hop * m
            fixed = self._dyadic_load()
            # Per-request latency under each leave-one-out placement (rows
            # 0..k-1, when migrations or removals need them; a lone server
            # leaves none, so its row is inf) and under `active` itself
            # (row k). min is exact, so each contiguous row sums like
            # exact_access_cost's, in the same pairwise order.
            block = self._distance_block(active)
            rows = np.full((k + 1, m), np.inf)
            if k:
                block.min(axis=0, out=rows[k])
                if migrate or deactivate:
                    _leave_one_out_minima(block, rows[:k])
                sums = rows[(0 if deactivate else k) :].sum(axis=1)
                sums += hop
                if fixed is None:
                    stay = float(
                        sums[-1] + self._placement_loads(block[None], active[None])[0]
                    )
                    if deactivate:
                        # One leave-one-out block at a time: O(k·R) memory.
                        removal = sums[:k] + np.array([
                            self._placement_loads(block[rest][None], active[rest][None])[0]
                            for rest in _leave_one_out(k)
                        ])
                else:
                    # Dyadic loads: every assignment sums to the same load bits.
                    stay = float(sums[-1] + fixed)
                    if deactivate:
                        removal = sums[:k] + fixed
            latency = self._candidate_latencies(rows[first:stop])
            latency += hop
            if self._load_is_invariant():
                latency += self._invariant_load()
            else:
                self._refine_convex(latency, active, occupied, stay, migrate, add)

        targets = np.zeros(0, dtype=np.int64)
        access = np.zeros(0, dtype=np.float64)
        if migrate:
            moves = latency[:k]
            moves[:, active] = np.inf
            moves[:, occupied] = np.inf
            targets = np.argmin(moves, axis=1)
            access = moves[np.arange(k), targets]
        addition = latency[-1] if add else None
        return EpochScan(stay, targets, access, removal, addition)

    def _candidate_latencies(self, stack: np.ndarray) -> np.ndarray:
        """``latency[i, u] = Σ_j min(D[u, r_j], stack[i, j])`` over the window's
        requests ``r_j``, for every row ``i`` of ``stack`` and node ``u``.

        The sum is a sequential fold in request order: that is how numpy
        reduces a ``(rows, n, R)`` broadcast of ``distances[:, flat]``,
        whose request axis lies outside the contiguous node axis, so the
        fold can be carried across chunks of requests bit for bit. Each
        chunk's minima go into one reused C-ordered ``(rows, 1 + chunk,
        n)`` buffer behind the running sum in row 0, and one reduction
        over the chunk axis carries the sum on. A window that fits one
        chunk is one broadcast and one reduction; memory is
        O(rows · chunk · n) at any window length. (A 1-node substrate has
        no node axis and numpy sums pairwise, but there every minimum is 0.)
        """
        rows, m = stack.shape
        n = self._substrate.n
        chunk = _fold_chunk(rows, n)
        latency = np.zeros((rows, n), dtype=np.float64)
        buffer = np.empty((rows, min(chunk, m) + (m > chunk), n), dtype=np.float64)
        for j0 in range(0, m, chunk):
            j1 = min(j0 + chunk, m)
            lead = 1 if j0 else 0
            part = buffer[:, : lead + j1 - j0]
            if j0:
                part[:, 0] = latency
            np.minimum(
                self._candidate_rows(j0, j1)[None], stack[:, j0:j1, None],
                out=part[:, lead:],
            )
            np.add.reduce(part, axis=1, out=latency)
        return latency

    def _placement_loads(self, blocks: np.ndarray, placements: np.ndarray) -> np.ndarray:
        """Window load of each placement ``p`` serving nearest requests.

        ``blocks[p]`` is the ``(j, m)`` distance block of placement
        ``placements[p]``. One bincount over combined (placement, round,
        server) keys gives the same integer counts as a scatter-add, so
        the load floats are identical.
        """
        count, j, _ = blocks.shape
        n_rounds = self.n_rounds
        assignment = blocks.argmin(axis=1)
        keys = (
            np.arange(count, dtype=np.int64)[:, None] * (n_rounds * j)
            + self.round_ids[None, :] * j
            + assignment
        )
        counts = np.bincount(
            keys.ravel(), minlength=count * n_rounds * j
        ).reshape(count, n_rounds, j)
        strengths = self._substrate.strengths[placements]
        loads = self._costs.load(strengths[:, None, :], counts)
        return loads.reshape(count, -1).sum(axis=1)

    def _refine_convex(
        self,
        latency: np.ndarray,
        active: np.ndarray,
        occupied: np.ndarray,
        stay: float,
        migrate: bool,
        add: bool,
    ) -> None:
        """Add the load to candidate rows whose load depends on the split.

        Each row gets a balanced-split lower bound of the load, with
        occupied nodes out of the running, and :meth:`_lazy_exact_argmin`
        refines it until its cheapest free node is exact. The addition
        row's occupied entries are then scored exactly: ``stay`` at an
        active node, ``active + {u}`` at a cached one.
        """
        k = active.size
        if migrate:
            bound = self._balanced_load_bound(k)
            for i, rest in enumerate(active[_leave_one_out(k)]):
                row = latency[i] + bound
                row[active] = row[occupied] = np.inf
                latency[i] = self._lazy_exact_argmin(
                    row, lambda u, rest=rest: self.exact_access_cost(np.append(rest, u))
                )
        if add:
            row = latency[-1] + self._balanced_load_bound(k + 1)
            row[active] = row[occupied] = np.inf
            row = self._lazy_exact_argmin(
                row, lambda u: self.exact_access_cost(np.append(active, u))
            )
            for u in np.setdiff1d(occupied, active).tolist():
                row[u] = self.exact_access_cost(np.append(active, u))
            row[active] = stay
            latency[-1] = row

    def _lazy_exact_argmin(self, bound: np.ndarray, exact) -> np.ndarray:
        """Refine ``bound`` entries with ``exact`` until the argmin is exact.

        Sound whenever ``bound[u] <= exact(u)`` for all u (true for the
        convex built-in load models); terminates because each iteration
        fixes one more entry. A latency-best shortlist is scored first.
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
