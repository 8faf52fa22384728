"""OPT — the optimal offline dynamic program of §IV-A.

OPT fills the matrix ``opt[time][configuration]``: the cheapest cost of any
migration/allocation path that serves the requests of rounds ``0..t`` and
leaves the system in configuration γ after round ``t``. The recurrence uses
the optimal-substructure property stated in the paper:

    opt[t][γ] = min over γ' of
        opt[t-1][γ'] + Costacc(σt, γ') + Cost(γ' → γ) + Costrun(γ)

(with our simulator's exact ordering: round ``t``'s requests are served by
the configuration left at the end of round ``t-1``, then the system
transitions and pays running costs — see :mod:`repro.core.simulator`).
``opt[-1]`` is 0 at the fixed start configuration γ0 and ∞ elsewhere; the
optimal strategy is recovered by backtracking argmins from the cheapest
final configuration.

The state space is every assignment of {not-in-use, inactive, active} to
the ``n`` nodes with at most ``k`` servers in use — ``3^n`` states when k is
unbounded — which is why the paper "constrains itself to line graphs" (small
``n``) for OPT experiments. States are bit-mask encoded and both the
``S × S`` transition-cost matrix and the per-round access vectors are built
with vectorised numpy (``bitwise_count`` popcounts), so a 5-node, 200-round
instance solves in milliseconds.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from repro.api.registry import register_policy
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.policy import PlannedPolicy
from repro.topology.substrate import Substrate
from repro.util.validation import check_positive_int
from repro.workload.base import Trace

__all__ = ["Opt", "per_round_access_costs"]

#: Hard cap on enumerated states; 3^7 = 2187 states → a 2187² float64
#: transition matrix (~38 MB) is the largest we allow by default.
_DEFAULT_MAX_STATES = 2500


def per_round_access_costs(
    substrate: Substrate,
    costs: CostModel,
    trace: Trace,
    active: np.ndarray,
) -> np.ndarray:
    """Access cost of every round of ``trace`` under fixed ``active`` servers.

    Vectorised over the whole trace (nearest routing, exact per-round
    loads). Rounds with requests cost ``+inf`` when ``active`` is empty;
    empty rounds cost 0.
    """
    n_rounds = len(trace)
    sizes = trace.requests_per_round()
    result = np.zeros(n_rounds, dtype=np.float64)
    if active.size == 0:
        result[sizes > 0] = np.inf
        return result
    flat = trace.flat
    if flat.size == 0:
        return result

    round_ids = np.repeat(np.arange(n_rounds), sizes)
    distances = substrate.distances[np.ix_(active, flat)]
    assignment = np.argmin(distances, axis=0)
    per_request = distances[assignment, np.arange(flat.size)]
    latency = np.bincount(round_ids, weights=per_request, minlength=n_rounds)

    counts = np.zeros((n_rounds, active.size), dtype=np.int64)
    np.add.at(counts, (round_ids, assignment), 1)
    loads = costs.load(substrate.strengths[active], counts).sum(axis=1)

    return latency + loads + costs.wireless_hop * sizes


@lru_cache(maxsize=32)
def _state_space(n: int, k: "int | None") -> tuple[np.ndarray, np.ndarray]:
    """All (active-mask, inactive-mask) states with at most ``k`` servers."""
    act_masks, inact_masks = [], []
    limit = n if k is None else min(k, n)
    for assignment in product((0, 1, 2), repeat=n):
        servers = sum(1 for s in assignment if s != 0)
        if servers > limit:
            continue
        act = sum(1 << i for i, s in enumerate(assignment) if s == 2)
        inact = sum(1 << i for i, s in enumerate(assignment) if s == 1)
        act_masks.append(act)
        inact_masks.append(inact)
    return (
        np.asarray(act_masks, dtype=np.uint32),
        np.asarray(inact_masks, dtype=np.uint32),
    )


def _transition_matrix(
    act: np.ndarray, inact: np.ndarray, beta: float, creation: float
) -> np.ndarray:
    """Vectorised ``Cost(γ_i → γ_j)`` for all state pairs (constant β)."""
    occ = act | inact
    # Broadcasting: rows = source state i, columns = target state j.
    # bitwise_count yields uint8 — promote before arithmetic. Fresh inactive
    # nodes join the donor matching (migrate-then-deactivate is legal and
    # free beyond β), mirroring price_transition.
    arrivals = np.bitwise_count((act | inact)[None, :] & ~occ[:, None]).astype(np.int64)
    vanished = np.bitwise_count(occ[:, None] & ~(occ[None, :])).astype(np.int64)
    if beta <= creation:
        migrations = np.minimum(arrivals, vanished)
    else:
        migrations = np.zeros_like(arrivals)
    creations = arrivals - migrations
    return beta * migrations + creation * creations


def _forward_pass(
    value: np.ndarray,
    access: np.ndarray,
    transition_to: np.ndarray,
    run: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The DP's rounds: final state values and each round's best parent.

    ``transition_to[j, i]`` is the cost of moving from state ``i`` to state
    ``j``, held C-contiguous so each round's argmin over source states runs
    along contiguous rows; ties go to the lowest source index.
    """
    n_rounds, n_states = access.shape
    parents = np.empty((n_rounds, n_states), dtype=np.int32)
    targets = np.arange(n_states)
    for t in range(n_rounds):
        served = value + access[t]  # pay round t with the previous state
        reachable = served[None, :] + transition_to
        parents[t] = np.argmin(reachable, axis=1)
        value = reachable[targets, parents[t]] + run
    return value, parents


def _mask_to_nodes(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@register_policy("opt")
class Opt(PlannedPolicy):
    """Optimal offline allocation via dynamic programming (OPT, §IV-A).

    Args:
        max_servers: the paper's ``k`` (at most this many servers in use,
            active plus inactive); ``None`` = unbounded (up to ``n``).
        start_node: location of the single initial active server (γ0);
            ``None`` = network center.
        max_states: guard on the enumerated state-space size.
        allow_inactive: if ``False``, restrict states to active-only
            configurations (2^n instead of 3^n) — a documented speed/quality
            trade-off useful on slightly larger graphs.
        require_active: keep at least one *active* server in every round
            (default). The service must stay deployed — otherwise OPT would
            shave one round of running cost by dropping the fleet after the
            final request, which no online policy may mirror.
    """

    def __init__(
        self,
        max_servers: "int | None" = None,
        start_node: "int | None" = None,
        max_states: int = _DEFAULT_MAX_STATES,
        allow_inactive: bool = True,
        require_active: bool = True,
    ) -> None:
        if max_servers is not None:
            max_servers = check_positive_int("max_servers", max_servers)
        self._k = max_servers
        self._start_node = start_node
        self._max_states = max_states
        self._allow_inactive = bool(allow_inactive)
        self._require_active = bool(require_active)
        self._optimal_cost: "float | None" = None

    @property
    def name(self) -> str:
        return "OPT"

    @property
    def optimal_cost(self) -> float:
        """The DP's total cost (available after the plan is computed)."""
        self._solved_plan()
        return self._optimal_cost

    # -- the dynamic program -----------------------------------------------------

    def _solve(self, substrate: Substrate, costs: CostModel, start: int) -> None:
        if costs.migration_matrix is not None:
            raise NotImplementedError(
                "OPT currently supports the paper's constant-β migration model"
            )
        act, inact = _state_space(substrate.n, self._k)
        if not self._allow_inactive:
            keep = inact == 0
            act, inact = act[keep], inact[keep]
        if self._require_active:
            keep = act != 0
            act, inact = act[keep], inact[keep]
        n_states = act.size
        if n_states > self._max_states:
            raise ValueError(
                f"OPT state space has {n_states} states for n={substrate.n}, "
                f"k={self._k or substrate.n}; limit is {self._max_states}. "
                "The paper runs OPT on small (line) graphs only (§V-A)."
            )

        transition_to = np.ascontiguousarray(
            _transition_matrix(act, inact, costs.migration, costs.creation).T
        )
        run = (
            costs.run_active * np.bitwise_count(act)
            + costs.run_inactive * np.bitwise_count(inact)
        ).astype(np.float64)

        # Per-round access cost for every state, via its active set.
        trace = self._trace
        n_rounds = len(trace)
        unique_act, act_index = np.unique(act, return_inverse=True)
        access_by_mask = np.empty((n_rounds, unique_act.size), dtype=np.float64)
        for m, mask in enumerate(unique_act.tolist()):
            nodes = np.asarray(_mask_to_nodes(mask), dtype=np.int64)
            access_by_mask[:, m] = per_round_access_costs(
                substrate, costs, trace, nodes
            )
        access = access_by_mask[:, act_index]  # (rounds, states)

        start_state = self._find_state(act, inact, start)
        value = np.full(n_states, np.inf)
        value[start_state] = 0.0
        value, parents = _forward_pass(value, access, transition_to, run)

        final = int(np.argmin(value))
        self._optimal_cost = float(value[final])
        if not np.isfinite(self._optimal_cost):
            raise RuntimeError(
                "OPT found no feasible plan (every path has infinite cost)"
            )

        # Backtrack the optimal configuration sequence.
        plan_states = np.empty(n_rounds, dtype=np.int64)
        state = final
        for t in range(n_rounds - 1, -1, -1):
            plan_states[t] = state
            state = int(parents[t, state])
        self._plan = [
            Configuration(
                _mask_to_nodes(int(act[s])), _mask_to_nodes(int(inact[s]))
            )
            for s in plan_states
        ]

    @staticmethod
    def _find_state(act: np.ndarray, inact: np.ndarray, start: int) -> int:
        mask = np.uint32(1 << start)
        matches = np.flatnonzero((act == mask) & (inact == 0))
        if matches.size != 1:
            raise RuntimeError(f"start state for node {start} not found")
        return int(matches[0])

    @classmethod
    def solve(
        cls,
        substrate: Substrate,
        trace: Trace,
        costs: "CostModel | None" = None,
        max_servers: "int | None" = None,
        start_node: "int | None" = None,
        allow_inactive: bool = True,
        max_states: int = _DEFAULT_MAX_STATES,
        require_active: bool = True,
    ) -> tuple[float, list[Configuration]]:
        """Convenience: solve an instance and return ``(cost, plan)``.

        Equivalent to running the policy through the simulator (the DP value
        equals the simulated ledger total — tested), but without building
        the ledger. Streaming input is materialised first — the DP needs the
        full sequence, the cost ``requires_full_trace`` declares.
        """
        costs = costs if costs is not None else CostModel.paper_default()
        policy = cls(
            max_servers=max_servers,
            start_node=start_node,
            max_states=max_states,
            allow_inactive=allow_inactive,
            require_active=require_active,
        )
        policy._solve_trace(substrate, trace, costs)
        return policy.optimal_cost, policy.plan
