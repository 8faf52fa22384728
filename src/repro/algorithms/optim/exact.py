"""An exact tiny-instance MILP optimum, independent of the OPT dynamic program.

:class:`MilpOpt` encodes the full §II-E game over the whole horizon as one
time-expanded mixed-integer program — a *second, independent* optimum used
by the differential test harness against both brute-force enumeration and
:class:`~repro.algorithms.opt.Opt` (which shares no code with this module:
the DP works on bitmask state spaces, this on LP matrices).

Variables per round ``t`` and node ``n``:

* ``a[t,n]``, ``i[t,n]`` — binary active/inactive server indicators with
  ``a + i ≤ 1`` (at most one server per node, §II-B packing);
* ``y[t,p,n]`` — fraction of round ``t``'s demand at access point ``p``
  served by node ``n``, allowed only where ``a[t-1,n] = 1``: round ``t`` is
  served by the configuration left after round ``t-1``, exactly the
  simulator's accounting;
* ``arr[t,n]`` / ``van[t,n]`` / ``m[t]`` — linearised §II-E transition
  pricing: arrivals ``arr ≥ Δoccupancy``, vanishes bounded by
  ``van ≤ o[t-1]`` and ``van ≤ 1 - o[t]``, migrations
  ``m ≤ Σ arr, m ≤ Σ van`` priced ``β·m + c·(Σ arr - m)`` when ``β ≤ c``
  and ``c·Σ arr`` with ``m = 0`` otherwise — the exact rule of
  :func:`~repro.core.transitions.price_transition`.

The returned cost is always the *replayed* plan, priced with the
simulator's own scalar primitives (:func:`plan_cost`), so on tiny instances
it is bit-for-bit identical to brute-force enumeration. The plan is the
true simulated optimum when routing is assignment-invariant — the paper's
default of linear load with uniform node strengths, where nearest routing
is also cost-minimal routing. On a substrate with per-node ``capacities``
the program adds ``Σ served ≤ cap[n]`` per round and node, and the replay
routes with :func:`~repro.core.routing.route_capacitated`, the game's own
capacity rule; capacities are whole numbers, so the two admit the same
rounds. The program splits demand optimally while the game spills
greedily, so the plan is the capacitated optimum where the two routings
cost the same — on every tiny instance the differential harness draws.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.optim.backends import Program
from repro.algorithms.optim.placement import unit_loads
from repro.api.registry import register_policy
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.policy import PlannedPolicy, resolve_start
from repro.core.routing import route_capacitated, route_requests
from repro.core.transitions import price_transition
from repro.topology.substrate import Substrate
from repro.util.validation import check_positive, check_positive_int
from repro.workload.base import Trace

__all__ = ["MilpOpt", "plan_cost"]

#: Variable-count guard: the time-expanded program is for differential-test
#: sized instances, not production sweeps (use Opt/BeamOpt there).
_DEFAULT_MAX_VARIABLES = 20_000


def plan_cost(
    substrate: Substrate,
    trace: Trace,
    costs: CostModel,
    plan: "list[Configuration]",
    start_node: "int | None" = None,
) -> float:
    """Replay ``plan`` through the simulator's scalar pricing primitives.

    Identical accounting (and float summation order) to the brute-force
    differential enumeration: round ``t``'s requests are served by the
    configuration left after round ``t-1``, then the transition and the new
    configuration's running cost are paid. A capacitated substrate routes
    each round as :func:`~repro.core.simulator.simulate` does, so an
    unpackable round raises the same :class:`ValueError`.
    """
    if len(plan) != len(trace):
        raise ValueError(
            f"plan length {len(plan)} does not match horizon {len(trace)}"
        )
    previous = Configuration.single(resolve_start(substrate, start_node))
    total = 0.0
    for t in range(len(trace)):
        servers = np.asarray(previous.active, dtype=np.int64)
        if substrate.capacitated:
            routed = route_capacitated(
                substrate, servers, trace[t], costs,
                substrate.capacities.copy(), t,
            )
        else:
            routed = route_requests(substrate, servers, trace[t], costs)
        access = routed.access_cost
        outcome = price_transition(previous, plan[t], costs)
        transition = outcome.migration_cost + outcome.creation_cost
        total += access + transition + costs.running_cost(plan[t])
        previous = plan[t]
    return total


@register_policy("milp-opt", aliases=("ilp-opt",))
class MilpOpt(PlannedPolicy):
    """Offline optimum via one time-expanded MILP (tiny instances).

    Args:
        max_servers: optional bound on occupied (active + inactive) nodes.
        start_node: initial server location (default: the network center).
        require_active: keep ≥ 1 active server every round (OPT's default).
        backend: ``"scipy"`` / ``"pulp"`` / ``"auto"`` (see the backends
            module; pulp needs the ``[opt]`` extra).
        time_limit: per-solve wall-clock limit in seconds.
        max_variables: refuse programs larger than this many variables.
    """

    def __init__(
        self,
        max_servers: "int | None" = None,
        start_node: "int | None" = None,
        require_active: bool = True,
        backend: str = "scipy",
        time_limit: "float | None" = None,
        max_variables: int = _DEFAULT_MAX_VARIABLES,
    ) -> None:
        if max_servers is not None:
            max_servers = check_positive_int("max_servers", max_servers)
        self._k = max_servers
        self._start_node = start_node
        self._require_active = bool(require_active)
        self._backend = backend
        self._time_limit = (
            None if time_limit is None
            else check_positive("time_limit", time_limit)
        )
        self._max_variables = int(max_variables)
        self._objective: "float | None" = None

    @property
    def name(self) -> str:
        return "MILP-OPT"

    @property
    def solver_objective(self) -> float:
        """The MILP objective value (available after solving)."""
        self._solved_plan()
        return self._objective

    # -- the time-expanded program ----------------------------------------------

    def _solve(self, substrate: Substrate, costs: CostModel, start: int) -> None:
        if costs.migration_matrix is not None:
            raise NotImplementedError(
                "MilpOpt prices switching with the constant-β model; "
                "migration matrices are not supported"
            )
        trace = self._trace
        n = substrate.n
        horizon = len(trace)
        if horizon == 0:
            self._plan, self._objective = [], 0.0
            return
        capacities = substrate.capacities
        rounds = [np.asarray(trace[t], dtype=np.int64) for t in range(horizon)]

        program = Program()
        # a[t,n], i[t,n]: binary occupancy after round t's decision.
        a = np.empty((horizon, n), dtype=np.int64)
        i = np.empty((horizon, n), dtype=np.int64)
        for t in range(horizon):
            for node in range(n):
                a[t, node] = program.variable(
                    costs.run_active, integer=True
                )
                i[t, node] = program.variable(
                    costs.run_inactive, integer=True
                )
                program.constrain(
                    [(int(a[t, node]), 1.0), (int(i[t, node]), 1.0)], hi=1.0
                )
            serves_next = t + 1 < horizon and rounds[t + 1].size > 0
            if self._require_active or serves_next:
                program.constrain(
                    [(int(a[t, node]), 1.0) for node in range(n)], lo=1.0
                )
            if self._k is not None:
                program.constrain(
                    [(int(a[t, node]), 1.0) for node in range(n)]
                    + [(int(i[t, node]), 1.0) for node in range(n)],
                    hi=float(self._k),
                )

        # Transition pricing between consecutive occupancies (§II-E rules).
        start_occupancy = np.zeros(n)
        start_occupancy[start] = 1.0
        use_migration = costs.migration <= costs.creation
        for t in range(horizon):
            arrival_terms = []
            vanish_terms = []
            for node in range(n):
                arr = program.variable(costs.creation)
                arrival_terms.append((arr, 1.0))
                current = [(int(a[t, node]), 1.0), (int(i[t, node]), 1.0)]
                if t == 0:
                    # previous occupancy is the fixed start configuration
                    program.constrain(
                        [(arr, 1.0)] + [(v, -c) for v, c in current],
                        lo=-float(start_occupancy[node]),
                    )
                else:
                    previous = [
                        (int(a[t - 1, node]), 1.0), (int(i[t - 1, node]), 1.0)
                    ]
                    program.constrain(
                        [(arr, 1.0)]
                        + [(v, -c) for v, c in current]
                        + [(v, c) for v, c in previous],
                        lo=0.0,
                    )
                if use_migration:
                    van = program.variable(0.0)
                    vanish_terms.append((van, 1.0))
                    # van ≤ previous occupancy
                    if t == 0:
                        program.constrain(
                            [(van, 1.0)], hi=float(start_occupancy[node])
                        )
                    else:
                        program.constrain(
                            [(van, 1.0)]
                            + [(int(a[t - 1, node]), -1.0),
                               (int(i[t - 1, node]), -1.0)],
                            hi=0.0,
                        )
                    # van ≤ 1 − current occupancy
                    program.constrain(
                        [(van, 1.0)] + current, hi=1.0
                    )
            if use_migration:
                # m[t] ≤ Σ arr, m[t] ≤ Σ van; objective (β − c)·m rewards
                # matching each arrival with a vanishing donor at β instead
                # of a fresh creation at c — exactly min(arrivals, vanished).
                m = program.variable(
                    costs.migration - costs.creation, ub=float(n)
                )
                program.constrain(
                    [(m, 1.0)] + [(v, -c) for v, c in arrival_terms], hi=0.0
                )
                program.constrain(
                    [(m, 1.0)] + [(v, -c) for v, c in vanish_terms], hi=0.0
                )

        # Access: round t served by the active set left after round t-1.
        per_request = unit_loads(substrate, costs) + costs.wireless_hop
        for t in range(horizon):
            if rounds[t].size == 0:
                continue
            points, counts = np.unique(rounds[t], return_counts=True)
            servers = [start] if t == 0 else list(range(n))
            load_terms: "dict[int, list]" = {node: [] for node in servers}
            for p, point in enumerate(points.tolist()):
                weight = float(counts[p])
                row = []
                for node in servers:
                    y = program.variable(
                        weight * (
                            substrate.distances[point, node]
                            + per_request[node]
                        )
                    )
                    row.append((y, 1.0))
                    load_terms[node].append((y, weight))
                    if t > 0:
                        program.constrain(
                            [(y, 1.0), (int(a[t - 1, node]), -1.0)], hi=0.0
                        )
                program.constrain(row, lo=1.0, hi=1.0)
            if capacities is not None:
                for node in servers:
                    program.constrain(
                        load_terms[node], hi=float(capacities[node])
                    )

        if program.n_variables > self._max_variables:
            raise ValueError(
                f"time-expanded MILP has {program.n_variables} variables "
                f"(limit {self._max_variables}); MilpOpt is for tiny "
                "differential-test instances — use Opt or BeamOpt instead"
            )
        solution = program.solve(
            backend=self._backend, time_limit=self._time_limit
        )
        self._objective = solution.objective
        self._plan = []
        for t in range(horizon):
            active = tuple(
                node for node in range(n) if solution.values[a[t, node]] > 0.5
            )
            inactive = tuple(
                node for node in range(n) if solution.values[i[t, node]] > 0.5
            )
            self._plan.append(Configuration(active, inactive))

    @classmethod
    def solve(
        cls,
        substrate: Substrate,
        trace: Trace,
        costs: "CostModel | None" = None,
        max_servers: "int | None" = None,
        start_node: "int | None" = None,
        require_active: bool = True,
        backend: str = "scipy",
        time_limit: "float | None" = None,
    ) -> "tuple[float, list[Configuration]]":
        """Solve an instance and return ``(cost, plan)``.

        The cost is the plan *replayed* through the simulator's pricing
        (:func:`plan_cost`), capacitated or not — bit-for-bit comparable to
        brute-force enumeration. The solver's own objective stays available
        as :attr:`solver_objective`.
        """
        costs = costs if costs is not None else CostModel.paper_default()
        policy = cls(
            max_servers=max_servers,
            start_node=start_node,
            require_active=require_active,
            backend=backend,
            time_limit=time_limit,
        )
        start = policy._solve_trace(substrate, trace, costs)
        cost = plan_cost(
            substrate, policy._trace, costs, policy.plan, start_node=start
        )
        return cost, policy.plan
