"""The synchronous online game of §II-E, executed round by round.

:func:`simulate` is the single entry point every experiment uses, and the
only round loop: it drives an
:class:`~repro.core.policy.AllocationPolicy` over a request sequence on a
substrate, prices every configuration change with
:func:`~repro.core.transitions.price_transition`, and returns the full
per-round cost ledger.

Accounting per round ``t`` (the exact order of §II-E):

1. requests ``σt`` arrive;
2. the current configuration pays the access cost (request latency plus
   server load);
3. the policy picks the next configuration; migration/creation costs of the
   transition and the running costs of the *new* configuration are paid.

The paper notes the results are insensitive to reordering steps 2 and 3
because one round's requests are much cheaper than a migration.

The input type picks where distances come from. A materialised
:class:`~repro.workload.base.Trace` gets a
:class:`~repro.core.batch.DistanceGather`: nearest routing reads the
substrate's distances in spans of rounds (a round whose content recurs is
routed once per active set, from the gather's content-keyed memo), and
every policy request window reads the gather's columns of distinct
request nodes. Any other round-iterable (a lazily generated stream) is
routed round by round with
:func:`~repro.core.routing.route_requests` and plain
:class:`~repro.core.evaluation.RequestBatch` windows, so memory stays
O(round). Non-nearest routing always uses ``route_requests``. Both sources
produce the same ledger bit for bit. A capacitated substrate is routed
round by round with :func:`~repro.core.routing.route_capacitated`, the
capacity rule ``simulate_services`` applies too.

A gathered trace that repeats every ``P`` rounds
(:attr:`~repro.core.batch.DistanceGather.period`) replays its recurring
days: when a policy's
:meth:`~repro.core.policy.AllocationPolicy.recurrence_key` and the
configuration before a round ``t = jP`` equal those at an earlier day
boundary ``t0``, the player tiles the rows of ``[t0, t)`` up to the horizon
and the loop ends (that method gives the bit-identity argument). Streamed
input and keyless policies play every round. Capacitated runs may replay:
``route_capacitated`` reads its round index only for its error message.

Everything after routing (``decide``, the configuration checks, transition
pricing and the column ledger) is one policy's :class:`_Player`.
:func:`~repro.core.multiservice.simulate_services` drives one player per
service with its own shared-load router, so it plays the same game.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.core.batch import DistanceGather
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.policy import AllocationPolicy, OfflinePolicy
from repro.core.results import LEDGER_COLUMNS, RunResult
from repro.core.routing import (
    RoutingResult,
    RoutingStrategy,
    route_capacitated,
    route_requests,
)
from repro.core.transitions import _NO_CHANGE, price_transition
from repro.topology.substrate import Substrate
from repro.workload.base import RoundIterable, Trace, as_trace, check_round
from repro.util.rng import ensure_rng

__all__ = ["simulate"]

#: How many rounds the span router assigns per argmin while the active set
#: is unchanged. Rebuilt early whenever the policy moves a server, so
#: larger spans only pay off across stable epochs.
_SPAN_ROUNDS = 16


def simulate(
    substrate: Substrate,
    policy: AllocationPolicy,
    trace: RoundIterable,
    costs: "CostModel | None" = None,
    routing: RoutingStrategy = RoutingStrategy.NEAREST,
    seed: "int | np.random.Generator | None" = None,
    max_servers: "int | None" = None,
    gather: "DistanceGather | None" = None,
) -> RunResult:
    """Run ``policy`` against ``trace`` on ``substrate`` and return the ledger.

    Args:
        substrate: the substrate network.
        policy: the allocation strategy; offline policies are handed the
            trace via ``prepare`` before the run starts.
        trace: the request sequence (one node-index array per round) — a
            materialised :class:`~repro.workload.base.Trace` or any
            round-iterable such as a lazily generated
            :class:`~repro.traces.streaming.StreamingTrace`. Streaming input
            is materialised only when the policy declares
            ``requires_full_trace`` (offline lookahead); online policies run
            in O(round) memory.
        costs: cost model; defaults to the paper's β=40, c=400 model.
        routing: request-to-server assignment strategy. A capacitated
            substrate admits only nearest routing, with spill to the
            next-nearest server when one is full.
        seed: randomness for the policy (e.g. ONCONF's random switch).
        max_servers: optional hard cap ``k`` on simultaneous in-use servers;
            a policy exceeding it is a bug and raises.
        gather: the :class:`~repro.core.batch.DistanceGather` of a
            materialised ``trace`` under this substrate and cost model, so
            policies run over one trace share its distinct-node columns
            and epoch memo; built here when omitted, unused for streamed
            input.

    Returns:
        The immutable :class:`~repro.core.results.RunResult`.

    Raises:
        ValueError: if the trace references nodes outside the substrate, a
            round with requests finds no active server, ``max_servers`` is
            violated, ``gather`` was built for another substrate/costs, a
            capacitated round cannot be packed, or non-nearest routing is
            asked of a capacitated substrate.
    """
    if substrate.capacitated and routing is not RoutingStrategy.NEAREST:
        raise ValueError(
            f"{routing} is undefined on a capacitated substrate, which "
            "routes nearest with spill"
        )
    costs = costs if costs is not None else CostModel.paper_default()
    rng = ensure_rng(seed)

    if getattr(policy, "requires_full_trace", False) or isinstance(policy, OfflinePolicy):
        trace = as_trace(trace)

    if not isinstance(trace, Trace):
        # Streamed rounds are checked one by one in the loop.
        gather = None
    elif gather is None:
        gather = DistanceGather(substrate, costs, trace)  # checks every node
    elif not gather.matches(substrate, costs):
        raise ValueError("gather was built for a different substrate/cost model")

    try:
        player = _Player(substrate, policy, trace, costs, rng, max_servers, gather)
        route = (
            _SpanRouter(substrate, costs, gather).route
            if gather is not None and routing is RoutingStrategy.NEAREST
            else None
        )
        capacities = substrate.capacities
        # Day boundaries of a periodic gathered trace, keyed by the state
        # there (see AllocationPolicy.recurrence_key).
        period = (
            gather.period
            if gather is not None and policy.recurrence_key() is not None
            else None
        )
        days: dict = {}
        for t, requests in enumerate(trace.rounds if gather is not None else trace):
            if period is not None and t % period == 0:
                t0 = days.setdefault((policy.recurrence_key(), player.config), t)
                if t0 < t:
                    player.repeat(t0, t, len(trace))
                    break
            if gather is None:
                requests = check_round(t, requests)
                if requests.size and int(requests.max()) >= substrate.n:
                    raise ValueError(
                        f"round {t} references node {int(requests.max())} but "
                        f"substrate has {substrate.n} nodes"
                    )
            if capacities is not None:
                routed = route_capacitated(
                    substrate, player.config.active_array, requests, costs,
                    capacities.copy(), t,
                )
            elif route is None or not requests.size:
                routed = route_requests(
                    substrate, player.config.active_array, requests, costs, routing,
                )
            else:
                routed = route(t, player.config)
            player.step(t, requests, routed)
    finally:
        policy._run_gather = None
    return player.finish()


class _Player:
    """One policy's half of the §II-E round: everything after routing.

    Construction checks the cost model against the substrate, hands an
    offline policy its trace, serves the policy's windows from ``gather``
    (the caller clears ``policy._run_gather`` when the run ends) and checks
    the initial configuration. :meth:`step` plays one routed round:
    ``decide``, the configuration check, :func:`price_transition` and the
    column ledger. :func:`simulate` drives one player;
    :func:`~repro.core.multiservice.simulate_services` drives one per
    service in lockstep, so both play the same game.
    """

    def __init__(
        self,
        substrate: Substrate,
        policy: AllocationPolicy,
        trace: RoundIterable,
        costs: CostModel,
        rng: np.random.Generator,
        max_servers: "int | None" = None,
        gather: "DistanceGather | None" = None,
    ) -> None:
        if (
            costs.migration_matrix is not None
            and costs.migration_matrix.shape[0] != substrate.n
        ):
            raise ValueError(
                f"migration_matrix is {costs.migration_matrix.shape[0]}x"
                f"{costs.migration_matrix.shape[1]} but substrate has {substrate.n} nodes"
            )
        if isinstance(policy, OfflinePolicy):
            policy.prepare(trace)
        # AllocationPolicy.new_window serves the run's windows from the gather.
        policy._run_gather = gather
        self.config = policy.reset(substrate, costs, rng)
        _check_config(self.config, substrate, max_servers, t=-1)
        self._substrate = substrate
        self._policy = policy
        self.costs = costs
        self._max_servers = max_servers
        self._scenario_name = getattr(trace, "scenario_name", "")
        self._cost_config(self.config)
        # One column ledger, sized up front when the length is known and
        # doubled otherwise. Columns are resized in place (nothing keeps
        # views into them), so the tuple stays valid.
        self._capacity = operator.length_hint(trace)
        self._columns = tuple(
            np.zeros(
                self._capacity, dtype=np.float64 if name.endswith("cost") else np.int64
            )
            for name in LEDGER_COLUMNS
        )
        self._rounds = 0

    def _cost_config(self, config: Configuration) -> None:
        """Cache the ledger columns that depend only on the configuration."""
        self._run_cost = self.costs.running_cost(config)
        self._n_active = config.n_active
        self._n_inactive = config.n_inactive

    def step(self, t: int, requests: np.ndarray, routed: RoutingResult) -> None:
        """Play round ``t``: the policy decides on ``routed``; record the round."""
        if t == self._capacity:
            self._capacity = max(2 * self._capacity, 1024)
            for column in self._columns:
                column.resize(self._capacity, refcheck=False)
        (latency_col, load_col, running_col, migration_col, creation_col,
         migrations_col, creations_col, n_active_col, n_inactive_col,
         n_requests_col) = self._columns

        config = self._policy.decide(t, requests, routed)
        if config is not self.config:
            # A new object is checked and priced; the same object is neither
            # (the transition pricer would short-circuit on equality anyway).
            _check_config(config, self._substrate, self._max_servers, t)
            outcome = price_transition(self.config, config, self.costs)
            self.config = config
            self._cost_config(config)
            if outcome is not _NO_CHANGE:  # the columns start at zero
                migration_col[t] = outcome.migration_cost
                creation_col[t] = outcome.creation_cost
                migrations_col[t] = outcome.migrations
                creations_col[t] = outcome.creations

        latency_col[t] = routed.latency_cost
        load_col[t] = routed.load_cost
        running_col[t] = self._run_cost
        n_active_col[t] = self._n_active
        n_inactive_col[t] = self._n_inactive
        n_requests_col[t] = requests.size
        self._rounds = t + 1

    def repeat(self, t0: int, t: int, horizon: int) -> None:
        """Fill rounds ``[t, horizon)`` by tiling the rows of ``[t0, t)``."""
        for column in self._columns:
            column[t:horizon] = np.resize(column[t0:t], horizon - t)
        self._rounds = horizon

    def finish(self) -> RunResult:
        """The immutable ledger of the rounds played so far."""
        for column in self._columns:
            column.resize(self._rounds, refcheck=False)  # trim the unused capacity
            column.flags.writeable = False
        return RunResult(
            policy_name=self._policy.name,
            scenario_name=self._scenario_name,
            **dict(zip(LEDGER_COLUMNS, self._columns)),
        )


class _SpanRouter:
    """Nearest routing of a gathered trace, memoised and many rounds per argmin.

    A round whose content recurs in the trace (see
    :attr:`~repro.core.batch.DistanceGather.repeated_ids`) is routed once
    per active set: its :class:`RoutingResult` is memoised on the gather
    under ``("route", round id, active)`` and shared by every later
    recurrence and every policy run over the gather. The result is a pure
    function of that key, so sharing it is exact.

    A miss is routed from a span: while the active set is value-unchanged
    (threshold policies hold their placement across whole epochs, and a
    rebuilt configuration may keep the same active servers), nearest
    assignments for the next :data:`_SPAN_ROUNDS` rounds are computed in one
    argmin. Per-round latencies are then sums over contiguous slices of the
    span gather — the same summand sequences as per-round
    :func:`~repro.core.routing.route_requests`, hence bit-identical. The
    span's ``counts``/``assignment`` arrays are read-only, so a policy can
    never write into a result that later rounds or other policies share.
    """

    def __init__(
        self, substrate: Substrate, costs: CostModel, gather: DistanceGather
    ) -> None:
        self._substrate = substrate
        self._costs = costs
        self._gather = gather
        self._round_ids: list[int] = gather.round_ids.tolist()
        # Dyadic loads (see dyadic_linear_strength): a round's summed load
        # is size/strength bit for bit, whatever the assignment.
        self._round_loads = (
            None if gather.exact_strength is None
            else gather.sizes / gather.exact_strength
        )
        # The span covers rounds [t0, end); the first route() builds it.
        self._active: "tuple[int, ...] | None" = None
        self._t0 = self._end = self._c0 = 0

    def _rebuild(self, t: int, config: Configuration) -> None:
        gather = self._gather
        active = config.active_array
        if active.size == 0:
            raise ValueError("cannot route requests: no active servers")
        self._active = config.active
        self._strengths = self._substrate.strengths[active]
        end = min(gather.sizes.size, t + _SPAN_ROUNDS)
        c0, c1 = gather.offset_list[t], gather.offset_list[end]
        block = self._substrate.distances[np.ix_(active, gather.flat[c0:c1])]
        self._assign = np.argmin(block, axis=0)
        self._values = block[self._assign, gather.arange(self._assign.size)]
        # Per-round server counts of the whole span in one bincount over
        # combined (round, server) keys.
        k = active.size
        self._counts = np.bincount(
            (gather.row_of[c0:c1] - t) * k + self._assign,
            minlength=(end - t) * k,
        ).reshape(end - t, k)
        # Every result hands out views of these two arrays.
        self._assign.flags.writeable = False
        self._counts.flags.writeable = False
        self._t0, self._end, self._c0 = t, end, c0

    def route(self, t: int, config: Configuration) -> RoutingResult:
        """Nearest routing of the non-empty round ``t`` under ``config``."""
        gather = self._gather
        round_id = self._round_ids[t]
        if round_id >= gather.repeated_ids:
            return self._route_span(t, config)  # the only round with its content
        key = ("route", round_id, config.active)
        routed = gather.memo_get(key)
        if routed is None:
            routed = self._route_span(t, config, own=True)
            gather.memo_put(key, routed)
        return routed

    def _route_span(
        self, t: int, config: Configuration, own: bool = False
    ) -> RoutingResult:
        if t >= self._end or config.active != self._active:
            self._rebuild(t, config)
        offsets = self._gather.offset_list
        lo, hi = offsets[t] - self._c0, offsets[t + 1] - self._c0
        latency = self._values[lo:hi].sum() + self._costs.wireless_hop * (hi - lo)
        counts = self._counts[t - self._t0]
        assignment = self._assign[lo:hi]
        if own:
            # A memoised result holds its own arrays: views would keep the
            # whole span's arrays alive for the life of the memo entry.
            counts, assignment = counts.copy(), assignment.copy()
            counts.flags.writeable = assignment.flags.writeable = False
        if self._round_loads is None:
            load = self._costs.load(self._strengths, counts).sum()
        else:
            load = self._round_loads[t]
        return RoutingResult(float(latency), float(load), counts, assignment)


def _check_config(
    config: Configuration,
    substrate: Substrate,
    max_servers: "int | None",
    t: int,
) -> None:
    when = "initial configuration" if t < 0 else f"round {t}"
    occupied = config.occupied
    if occupied and max(occupied) >= substrate.n:
        raise ValueError(
            f"{when}: configuration references node {max(occupied)} outside "
            f"the {substrate.n}-node substrate"
        )
    if occupied and min(occupied) < 0:
        # Negative indices would wrap via numpy fancy indexing and silently
        # route against the substrate's last nodes.
        raise ValueError(
            f"{when}: configuration references negative node {min(occupied)}"
        )
    if max_servers is not None and config.n_servers > max_servers:
        raise ValueError(
            f"{when}: {config.n_servers} servers in use exceeds the k={max_servers} cap"
        )
