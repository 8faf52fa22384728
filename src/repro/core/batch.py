"""Batched execution of the simulation core over a shared distance gather.

A sweep point runs the same (policy, scenario) pair over many replicates,
and the scalar round loop of :mod:`repro.core.simulator` re-gathers the
same distance columns over and over: once per round for routing, and once
per candidate family per epoch for the best-response scan. This module
removes that redundancy without changing a single ledger bit:

* :class:`DistanceGather` gathers the substrate's distance columns for a
  whole trace **once** (``distances[:, flat]``); every per-round routing
  block and every epoch-window candidate matrix is then a cheap slice of
  that gather instead of a fresh fancy-indexed copy;
* :class:`GatherWindow` is a drop-in :class:`~repro.core.evaluation.RequestBatch`
  whose ``add_round``/``clear`` just move window pointers over the gather.
  Policies opt in through
  :meth:`~repro.core.policy.AllocationPolicy.bind_batch_gather`; their
  epoch logic runs completely unchanged, which is what makes bit-identity
  to the scalar path hold *by construction* — the windows produce the same
  float values from the same reduction orders, only sourced from the
  shared gather;
* :func:`simulate_batched` drives the round loop against the gather
  (vectorised nearest routing from column slices, a column-preallocated
  ledger) and transparently falls back to the scalar
  :func:`~repro.core.simulator.simulate` for policies that do not opt in.

Bit-identity ground rules (why these transformations are safe): numpy's
pairwise summation is a pure function of the summand sequence, so every sum
here runs over the exact slice the scalar path sums (never padded, never
transposed); ``min``/``argmin``/gathers are exact, so leave-one-out bases
may be composed from prefix/suffix minima; integer ``bincount`` equals
``np.add.at`` counts, so derived load floats are identical. Algebraic
shortcuts that change float values in ULPs are deliberately avoided.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.costs import CostModel
from repro.core.evaluation import RequestBatch
from repro.core.policy import AllocationPolicy, OfflinePolicy
from repro.core.results import RunResult
from repro.core.routing import RoutingResult, RoutingStrategy, route_requests
from repro.core.simulator import _check_config, simulate
from repro.core.transitions import _NO_CHANGE, price_transition
from repro.topology.substrate import Substrate
from repro.workload.base import Trace
from repro.util.rng import ensure_rng

__all__ = [
    "DistanceGather",
    "GatherWindow",
    "simulate_batched",
]

#: Cap on the stacked ``(k, n, requests)`` candidate broadcast; above this
#: the memoised migration scan falls back to per-server rows (identical
#: values, lower peak memory).
_STACK_ELEMS_MAX = 1 << 24

#: How many rounds the batched round loop routes per argmin while the
#: active set is unchanged. Rebuilt early whenever the policy moves a
#: server, so larger spans only pay off across stable epochs.
_SPAN_ROUNDS = 16


# ---------------------------------------------------------------------------
# Distance gather


class DistanceGather:
    """Distance columns of one trace, gathered once and sliced thereafter.

    ``columns[v, j]`` is the distance from node ``v`` to the ``j``-th
    request of the flattened trace — so routing round ``t`` needs only the
    contiguous column range ``offsets[t]:offsets[t+1]``, and any epoch
    window of a policy is likewise a column range. The gather itself is
    lazy: a policy that declines the batched path never pays for it.
    """

    def __init__(
        self,
        substrate: Substrate,
        costs: CostModel,
        trace: "Trace | Sequence[np.ndarray]",
    ) -> None:
        self.substrate = substrate
        self.costs = costs
        rounds = trace.rounds if isinstance(trace, Trace) else tuple(
            np.asarray(r, dtype=np.int64) for r in trace
        )
        self._rounds = rounds
        self.sizes = np.asarray([r.size for r in rounds], dtype=np.int64)
        self.offsets = np.zeros(len(rounds) + 1, dtype=np.int64)
        np.cumsum(self.sizes, out=self.offsets[1:])
        self.flat = (
            np.concatenate(rounds)
            if self.offsets[-1]
            else np.zeros(0, dtype=np.int64)
        )
        if self.flat.size:
            lo, hi = int(self.flat.min()), int(self.flat.max())
            if lo < 0:
                raise ValueError(f"trace references negative node {lo}")
            if hi >= substrate.n:
                raise ValueError(
                    f"trace references node {hi} but substrate has "
                    f"{substrate.n} nodes"
                )
        self._columns: "np.ndarray | None" = None
        self._row_of: "np.ndarray | None" = None
        self._sizes_f64: "np.ndarray | None" = None
        self._arange: "np.ndarray | None" = None
        # Epoch-evaluation memo shared by every window over this gather:
        # keyed (kind, t0, t1, active-bytes). Policies running over the same
        # trace (ONBR fixed/dyn especially) evaluate many identical windows;
        # the cached latency arrays are pure functions of the key.
        self._memo: dict = {}

    def arange(self, size: int) -> np.ndarray:
        """``np.arange(size)`` served from one preallocated buffer."""
        if self._arange is None or self._arange.size < size:
            self._arange = np.arange(
                max(size, int(self.sizes.max(initial=0))), dtype=np.int64
            )
        return self._arange[:size]

    def memo_get(self, key):
        """Cached epoch-evaluation artefact for ``key`` (or ``None``)."""
        return self._memo.get(key)

    def memo_put(self, key, value) -> None:
        """Cache an epoch-evaluation artefact (bounded)."""
        if len(self._memo) >= 32768:
            self._memo.clear()
        self._memo[key] = value

    @property
    def n_rounds(self) -> int:
        """Number of rounds covered by the gather."""
        return len(self._rounds)

    @property
    def has_columns(self) -> bool:
        """Whether the full column gather has been materialised."""
        return self._columns is not None

    @property
    def columns(self) -> np.ndarray:
        """``(n, total_requests)`` distance gather (computed on first use)."""
        if self._columns is None:
            # Must be the same gather op the scalar RequestBatch uses: a
            # column fancy-index yields a Fortran-ordered array, and numpy's
            # axis-1 reductions are only bitwise-reproducible when the
            # operand layout matches (np.take would give C order and shift
            # the pairwise summation order by a ULP on fractional weights).
            self._columns = self.substrate.distances[:, self.flat]
        return self._columns

    @property
    def row_of(self) -> np.ndarray:
        """Round index of each flattened request."""
        if self._row_of is None:
            self._row_of = np.repeat(
                np.arange(len(self._rounds), dtype=np.int64), self.sizes
            )
        return self._row_of

    @property
    def sizes_f64(self) -> np.ndarray:
        """Per-round request counts as float64 (for load bounds)."""
        if self._sizes_f64 is None:
            self._sizes_f64 = self.sizes.astype(np.float64)
        return self._sizes_f64

    def matches(self, substrate: Substrate, costs: CostModel) -> bool:
        """Whether the gather was built for exactly this substrate/costs."""
        return substrate is self.substrate and costs is self.costs

    def new_window(self) -> "GatherWindow":
        """A fresh empty request window over this gather (at round 0)."""
        return GatherWindow(self)


class GatherWindow(RequestBatch):
    """A :class:`RequestBatch` served from a :class:`DistanceGather`.

    ``add_round``/``clear`` move ``[t0, t1)`` pointers instead of copying
    request arrays; ``flat``/``round_ids``/``round_sizes`` and the distance
    accessors are slices of the gather. All candidate-evaluation methods of
    the base class therefore see byte-identical inputs in the same shapes
    and reduction orders as a freshly built scalar window — the outputs are
    bit-identical, just cheaper to produce.
    """

    def __init__(self, gather: DistanceGather) -> None:
        self._substrate = gather.substrate
        self._costs = gather.costs
        self._gather = gather
        self._t0 = 0
        self._t1 = 0
        self._invariant: "bool | None" = None
        self._inv_key: "tuple[int, int] | None" = None
        self._inv_load_value = 0.0

    # -- window pointers --------------------------------------------------------

    def add_round(self, requests: np.ndarray) -> None:
        gather = self._gather
        t = self._t1
        if t >= gather.n_rounds or np.asarray(requests).size != int(
            gather.sizes[t]
        ):
            raise RuntimeError(
                "gather window out of sync: fed a round that does not match "
                "the gathered trace"
            )
        self._t1 = t + 1

    def clear(self) -> None:
        self._t0 = self._t1

    @property
    def n_rounds(self) -> int:
        return self._t1 - self._t0

    @property
    def _c0(self) -> int:
        return int(self._gather.offsets[self._t0])

    @property
    def _c1(self) -> int:
        return int(self._gather.offsets[self._t1])

    @property
    def flat(self) -> np.ndarray:
        return self._gather.flat[self._c0 : self._c1]

    @property
    def round_ids(self) -> np.ndarray:
        return self._gather.row_of[self._c0 : self._c1] - self._t0

    @property
    def round_sizes(self) -> np.ndarray:
        return self._gather.sizes_f64[self._t0 : self._t1]

    def _invariant_load(self) -> float:
        # The base-class memo invalidates in add_round/clear, which here
        # only move pointers — key the memo on the window range instead.
        key = (self._t0, self._t1)
        if self._inv_key != key:
            sizes = self.round_sizes
            strength = float(self._substrate.strengths[0])
            self._inv_load_value = float(
                self._costs.load(np.full(sizes.shape, strength), sizes).sum()
            )
            self._inv_key = key
        return self._inv_load_value

    # -- distance access --------------------------------------------------------

    def _distance_block(self, rows: np.ndarray) -> np.ndarray:
        return self._gather.columns[rows, self._c0 : self._c1]

    def _candidate_matrix(self) -> np.ndarray:
        return self._gather.columns[:, self._c0 : self._c1]

    def _active_block(self, active: np.ndarray) -> np.ndarray:
        """Memoised ``_distance_block(active)`` — several cost methods of one
        epoch evaluation (and sibling policies on shared windows) read the
        same block; consumers must treat it as read-only."""
        key = ("blk", self._t0, self._t1, active.tobytes())
        block = self._gather.memo_get(key)
        if block is None:
            block = self._gather.columns[active, self._c0 : self._c1]
            self._gather.memo_put(key, block)
        return block

    def base_latency(self, active: "np.ndarray | tuple[int, ...]") -> np.ndarray:
        active = np.asarray(active, dtype=np.int64)
        if self.flat.size == 0:
            return np.zeros(0, dtype=np.float64)
        if active.size == 0:
            return np.full(self.flat.size, np.inf)
        return self._active_block(active).min(axis=0)

    # -- fast exact costs -------------------------------------------------------
    #
    # Every override below produces the same floats as the base class from
    # the same reduction orders; the wins are (a) slicing the shared gather
    # instead of re-gathering distance columns, (b) fusing per-server scans
    # into stacked passes, and (c) memoising per-(window, placement)
    # artefacts on the gather so sibling policies over the same trace
    # (ONBR fixed vs dyn especially) reuse each other's epoch evaluations.

    def exact_access_cost(self, active: "np.ndarray | tuple[int, ...]") -> float:
        active = np.asarray(active, dtype=np.int64)
        flat = self.flat
        if flat.size == 0:
            return 0.0
        if active.size == 0:
            raise ValueError("cannot evaluate a window against zero active servers")

        key = ("exact", self._t0, self._t1, active.tobytes())
        cached = self._gather.memo_get(key)
        if cached is not None:
            return cached

        distances = self._active_block(active)
        assignment = np.argmin(distances, axis=0)
        latency = float(distances[assignment, self._gather.arange(flat.size)].sum())
        latency += self._costs.wireless_hop * flat.size

        # Same integer counts as the base class's np.add.at scatter, via one
        # bincount over combined (round, server) keys — identical ints give
        # identical load floats.
        k = active.size
        counts = np.bincount(
            self.round_ids * k + assignment, minlength=self.n_rounds * k
        ).reshape(self.n_rounds, k)
        strengths = self._substrate.strengths[active]
        load = float(self._costs.load(strengths, counts).sum())
        result = latency + load
        self._gather.memo_put(key, result)
        return result

    def removal_costs(
        self, active: "np.ndarray | tuple[int, ...]"
    ) -> np.ndarray:
        active = np.asarray(active, dtype=np.int64)
        k = active.size
        if k <= 1:
            return np.full(k, np.inf)
        flat = self.flat
        if flat.size == 0:
            return np.zeros(k, dtype=np.float64)

        key = ("rem", self._t0, self._t1, active.tobytes())
        cached = self._gather.memo_get(key)
        if cached is not None:
            return cached.copy()

        # All k leave-one-out placements in one fused pass. Row set i is
        # exactly np.delete(active, i) in order, so per-column argmin
        # indices, counts and loads coincide with the base class's k
        # separate exact_access_cost calls.
        m = flat.size
        n_rounds = self.n_rounds
        block = self._active_block(active)
        rows = np.arange(k, dtype=np.int64)
        index = np.empty((k, k - 1), dtype=np.int64)
        for i in range(k):
            index[i, :i] = rows[:i]
            index[i, i:] = rows[i + 1 :]
        blocks = block[index]  # (k, k-1, m)
        assignment = blocks.argmin(axis=1)  # (k, m)
        latency = blocks.min(axis=1).sum(axis=1)  # same elements as the argmin gather
        latency += self._costs.wireless_hop * m

        keys = (
            rows[:, None] * (n_rounds * (k - 1))
            + self.round_ids[None, :] * (k - 1)
            + assignment
        )
        counts = np.bincount(
            keys.ravel(), minlength=k * n_rounds * (k - 1)
        ).reshape(k, n_rounds, k - 1)
        strengths = self._substrate.strengths[active][index]  # (k, k-1)
        loads = self._costs.load(strengths[:, None, :], counts)
        result = latency + loads.reshape(k, -1).sum(axis=1)
        self._gather.memo_put(key, result)
        return result.copy()

    def addition_costs(
        self, active: "np.ndarray | tuple[int, ...]",
        base: "np.ndarray | None" = None,
    ) -> np.ndarray:
        if base is not None:
            return super().addition_costs(active, base)
        active = np.asarray(active, dtype=np.int64)
        flat = self.flat
        if flat.size == 0:
            return np.zeros(self._substrate.n, dtype=np.float64)

        key = ("add", self._t0, self._t1, active.tobytes())
        latency = self._gather.memo_get(key)
        if latency is None:
            computed = self.base_latency(active)
            latency = np.minimum(self._candidate_matrix(), computed).sum(axis=1)
            latency += self._costs.wireless_hop * flat.size
            self._gather.memo_put(key, latency)

        if self._load_is_invariant():
            return latency + self._invariant_load()
        return self._with_exact_shortlist(latency, active)

    def migration_costs(
        self, active: "np.ndarray | tuple[int, ...]", server_index: int
    ) -> np.ndarray:
        active = np.asarray(active, dtype=np.int64)
        if not 0 <= server_index < active.size:
            raise IndexError(f"server index {server_index} out of range")
        if self.flat.size == 0:
            return np.zeros(self._substrate.n, dtype=np.float64)
        if not self._load_is_invariant():
            return super().migration_costs(active, server_index)

        latencies = self._migration_latencies(active)
        result = latencies[server_index] + self._invariant_load()
        result[active] = np.inf
        return result

    def migration_costs_all(
        self, active: "np.ndarray | tuple[int, ...]"
    ) -> np.ndarray:
        active = np.asarray(active, dtype=np.int64)
        if self.flat.size == 0:
            return np.zeros((active.size, self._substrate.n), dtype=np.float64)
        if not self._load_is_invariant():
            return super().migration_costs_all(active)
        result = self._migration_latencies(active) + self._invariant_load()
        result[:, active] = np.inf
        return result

    def _migration_latencies(self, active: np.ndarray) -> np.ndarray:
        key = ("mig", self._t0, self._t1, active.tobytes())
        cached = self._gather.memo_get(key)
        if cached is not None:
            return cached

        candidates = self._candidate_matrix()
        block = self._active_block(active)
        k, m = block.shape
        # Leave-one-out base latencies from prefix/suffix minima — min is
        # exact, so composing it this way is bitwise identical to the
        # scalar path's direct min over the k-1 remaining rows.
        bases = np.empty((k, m), dtype=np.float64)
        if k == 1:
            bases[0] = np.inf
        else:
            prefix = np.minimum.accumulate(block, axis=0)
            suffix = np.minimum.accumulate(block[::-1], axis=0)[::-1]
            bases[0] = suffix[1]
            bases[-1] = prefix[-2]
            for i in range(1, k - 1):
                np.minimum(prefix[i - 1], suffix[i + 1], out=bases[i])

        n = self._substrate.n
        if k * n * m <= _STACK_ELEMS_MAX:
            stacked = np.minimum(candidates[None, :, :], bases[:, None, :])
            latencies = stacked.sum(axis=2)
        else:
            latencies = np.empty((k, n), dtype=np.float64)
            for i in range(k):
                latencies[i] = np.minimum(candidates, bases[i]).sum(axis=1)
        latencies += self._costs.wireless_hop * m

        self._gather.memo_put(key, latencies)
        return latencies


# ---------------------------------------------------------------------------
# Batched round loop


def simulate_batched(
    substrate: Substrate,
    policy: AllocationPolicy,
    trace: "Trace | Iterable[np.ndarray]",
    costs: "CostModel | None" = None,
    routing: RoutingStrategy = RoutingStrategy.NEAREST,
    seed: "int | np.random.Generator | None" = None,
    max_servers: "int | None" = None,
    gather: "DistanceGather | None" = None,
) -> RunResult:
    """Run one replicate through the batched path when the policy opts in.

    Drop-in for :func:`~repro.core.simulator.simulate` with an identical
    ledger: policies that do not implement the batched ``decide`` protocol
    — and non-materialised (streaming) traces, whose O(round) memory
    profile the scalar loop preserves — fall back to ``simulate``
    transparently.
    """
    costs = costs if costs is not None else CostModel.paper_default()
    rng = ensure_rng(seed)

    if not isinstance(trace, Trace) or isinstance(policy, OfflinePolicy):
        return simulate(substrate, policy, trace, costs, routing, rng, max_servers)
    if costs.migration_matrix is not None and costs.migration_matrix.shape[0] != substrate.n:
        raise ValueError(
            f"migration_matrix is {costs.migration_matrix.shape[0]}x"
            f"{costs.migration_matrix.shape[1]} but substrate has {substrate.n} nodes"
        )

    if gather is None:
        gather = DistanceGather(substrate, costs, trace)
    elif not gather.matches(substrate, costs):
        raise ValueError("gather was built for a different substrate/cost model")

    if not policy.bind_batch_gather(gather):
        return simulate(substrate, policy, trace, costs, routing, rng, max_servers)
    try:
        return _run_gathered(
            substrate, policy, trace, costs, routing, rng, max_servers, gather
        )
    finally:
        policy.unbind_batch_gather()


def _run_gathered(
    substrate: Substrate,
    policy: AllocationPolicy,
    trace: Trace,
    costs: CostModel,
    routing: RoutingStrategy,
    rng: np.random.Generator,
    max_servers: "int | None",
    gather: DistanceGather,
) -> RunResult:
    config = policy.reset(substrate, costs, rng)
    _check_config(config, substrate, max_servers, t=-1)

    n_rounds = len(trace.rounds)
    columns = {
        name: np.zeros(n_rounds, dtype=np.float64)
        for name in (
            "latency_cost", "load_cost", "running_cost",
            "migration_cost", "creation_cost",
        )
    }
    columns.update(
        (name, np.zeros(n_rounds, dtype=np.int64))
        for name in ("migrations", "creations", "n_active", "n_inactive")
    )
    columns["n_requests"] = gather.sizes.copy()

    fast_nearest = routing is RoutingStrategy.NEAREST
    offsets = gather.offsets
    flat = gather.flat
    strengths = substrate.strengths
    hop = costs.wireless_hop
    # Span router state: while the active set is value-unchanged (threshold
    # policies hold their placement across whole epochs, and even "stay"
    # decisions rebuild the tuple object), nearest assignments for the next
    # _SPAN_ROUNDS rounds are computed in one argmin. Per-round latencies
    # are then sums over contiguous slices of the span gather — the same
    # summand sequences as per-round scalar routing, hence bit-identical.
    span_active: "tuple[int, ...] | None" = None
    span_end = 0  # first round NOT covered by the current span arrays
    span_c0 = 0
    span_assign = np.zeros(0, dtype=np.int64)
    span_values = np.zeros(0, dtype=np.float64)
    active_arr = np.zeros(0, dtype=np.int64)
    active_strengths = np.zeros(0, dtype=np.float64)
    # Per-configuration-object caches for the ledger columns.
    costed_config: "object | None" = None
    run_cost = 0.0
    n_active = n_inactive = 0

    for t, requests in enumerate(trace.rounds):
        size = int(requests.size)
        if size == 0:
            routed = RoutingResult(
                latency_cost=0.0,
                load_cost=0.0,
                counts=np.zeros(len(config.active), dtype=np.int64),
                assignment=np.zeros(0, dtype=np.int64),
            )
        elif fast_nearest:
            if t >= span_end or config.active != span_active:
                span_active = config.active
                active_arr = config.active_array
                if active_arr.size == 0:
                    raise ValueError("cannot route requests: no active servers")
                active_strengths = strengths[active_arr]
                span_end = min(n_rounds, t + _SPAN_ROUNDS)
                span_c0 = int(offsets[t])
                span_c1 = int(offsets[span_end])
                if gather.has_columns:
                    block = gather.columns[active_arr, span_c0:span_c1]
                else:
                    # Policies that never scan candidates (stateless family)
                    # should not pay for the full (n, requests) gather; the
                    # span block is the same values either way.
                    block = substrate.distances[
                        np.ix_(active_arr, flat[span_c0:span_c1])
                    ]
                span_assign = np.argmin(block, axis=0)
                span_values = block[
                    span_assign, gather.arange(span_assign.size)
                ]
            lo = int(offsets[t]) - span_c0
            hi = int(offsets[t + 1]) - span_c0
            assignment = span_assign[lo:hi]
            latency = span_values[lo:hi].sum() + hop * size
            counts = np.bincount(assignment, minlength=active_arr.size)
            load = costs.load(active_strengths, counts).sum()
            routed = RoutingResult(float(latency), float(load), counts, assignment)
        else:
            routed = route_requests(
                substrate, config.active_array, requests, costs, routing
            )

        new_config = policy.decide(t, requests, routed)
        if new_config is config:
            # Same object ⇒ already validated, and the transition pricer
            # would short-circuit on equality anyway.
            outcome = _NO_CHANGE
        else:
            _check_config(new_config, substrate, max_servers, t)
            outcome = price_transition(config, new_config, costs)
            config = new_config

        if config is not costed_config:
            costed_config = config
            run_cost = costs.running_cost(config)
            n_active = config.n_active
            n_inactive = config.n_inactive

        columns["latency_cost"][t] = routed.latency_cost
        columns["load_cost"][t] = routed.load_cost
        columns["running_cost"][t] = run_cost
        columns["migration_cost"][t] = outcome.migration_cost
        columns["creation_cost"][t] = outcome.creation_cost
        columns["migrations"][t] = outcome.migrations
        columns["creations"][t] = outcome.creations
        columns["n_active"][t] = n_active
        columns["n_inactive"][t] = n_inactive

    for arr in columns.values():
        arr.flags.writeable = False
    return RunResult(
        policy_name=policy.name,
        scenario_name=getattr(trace, "scenario_name", ""),
        **columns,
    )

