"""OFFSTAT — the optimal *static* offline baseline of §V-B.

OFFSTAT answers "how well can you do **without** flexibility?": it sees the
whole request sequence σ and picks one fixed set of servers for the entire
run. For each candidate fleet size ``i ∈ {1..k}`` it places servers
greedily — server ``j`` goes to the location minimising the total cost of σ
given servers ``1..j-1`` — and defines ``kopt`` as the size with minimal
total cost (Figure 12 plots exactly this curve). The ratio between OFFSTAT
and OPT is the paper's measure of the *benefit of dynamic allocation*
(Figures 15-19).

Total cost of a candidate fleet = access cost of σ + running costs over the
horizon + the build-out (creation/migration from the initial single-server
configuration), so the static baseline pays for its servers exactly like
the adaptive algorithms do.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_policy
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.evaluation import RequestBatch
from repro.core.policy import OfflinePolicy, resolve_start
from repro.core.routing import RoutingResult
from repro.core.transitions import price_transition
from repro.topology.substrate import Substrate
from repro.workload.base import Trace
from repro.util.validation import check_positive_int

__all__ = ["OffStat"]

#: Stop growing the fleet after the cost curve rose this many times in a row.
_PATIENCE = 3


@register_policy("offstat")
class OffStat(OfflinePolicy):
    """Greedy static placement with optimal fleet size (OFFSTAT, §V-B).

    Args:
        max_servers: upper bound ``k`` on the fleet size to consider;
            ``None`` = up to ``n`` (with early stopping once the cost curve
            keeps rising).
        start_node: initial configuration's server location (``None`` =
            network center); the build-out is priced from there.
        charge_build: include creation/migration costs of the fleet in the
            size selection (and pay them in the simulated run). Disable to
            model a pre-provisioned static system.
    """

    def __init__(
        self,
        max_servers: "int | None" = None,
        start_node: "int | None" = None,
        charge_build: bool = True,
    ) -> None:
        if max_servers is not None:
            max_servers = check_positive_int("max_servers", max_servers)
        self._k = max_servers
        self._start_node = start_node
        self._charge_build = bool(charge_build)

        self._target: "Configuration | None" = None
        self._cost_curve: "np.ndarray | None" = None
        self._placements: "list[tuple[int, ...]] | None" = None

    @property
    def name(self) -> str:
        return "OFFSTAT"

    @property
    def kopt(self) -> int:
        """The chosen fleet size."""
        self._require_solved()
        return self._target.n_active

    @property
    def target(self) -> Configuration:
        """The chosen static configuration."""
        self._require_solved()
        return self._target

    @property
    def cost_curve(self) -> np.ndarray:
        """Total cost per evaluated fleet size (``curve[i-1]`` for size i).

        This is the curve of Figure 12; its argmin is ``kopt``.
        """
        self._require_solved()
        return self._cost_curve.copy()

    @property
    def placements(self) -> list[tuple[int, ...]]:
        """Greedy server locations per evaluated fleet size."""
        self._require_solved()
        return [tuple(p) for p in self._placements]

    def _require_solved(self) -> None:
        if self._target is None:
            raise RuntimeError(
                "OFFSTAT has not been solved yet (run reset/simulate first)"
            )

    # -- offline interface -----------------------------------------------------

    def prepare(self, trace: Trace) -> None:
        super().prepare(trace)
        self._target = None
        self._cost_curve = None
        self._placements = None

    def reset(
        self,
        substrate: Substrate,
        costs: CostModel,
        rng: np.random.Generator,
    ) -> Configuration:
        self._require_prepared()
        start = resolve_start(substrate, self._start_node)
        self._solve(substrate, costs, start)
        if self._charge_build:
            return Configuration.single(start)
        return self._target

    def decide(
        self,
        t: int,
        requests: np.ndarray,
        routing: RoutingResult,
    ) -> Configuration:
        return self._target

    # -- the greedy optimisation -----------------------------------------------------

    def _solve(self, substrate: Substrate, costs: CostModel, start: int) -> None:
        batch = RequestBatch(substrate, costs, list(self._trace.rounds))
        horizon = len(self._trace)
        limit = substrate.n if self._k is None else min(self._k, substrate.n)
        gamma0 = Configuration.single(start)

        placed: list[int] = []
        curve: list[float] = []
        placements: list[tuple[int, ...]] = []
        best_cost, best_placement = np.inf, None
        rises = 0

        for size in range(1, limit + 1):
            scan = batch.epoch_scan(placed, placed, migrate=False, deactivate=False)
            scores = scan.addition.copy()
            if placed:
                scores[np.asarray(placed)] = np.inf
            placed.append(int(np.argmin(scores)))

            total = self._fleet_cost(batch, costs, placed, horizon, gamma0)
            curve.append(total)
            placements.append(tuple(placed))
            if total < best_cost:
                best_cost, best_placement = total, tuple(placed)
                rises = 0
            else:
                rises += 1
                if rises >= _PATIENCE and self._k is None:
                    break

        self._cost_curve = np.asarray(curve, dtype=np.float64)
        self._placements = placements
        self._target = Configuration(best_placement)

    def _fleet_cost(
        self,
        batch: RequestBatch,
        costs: CostModel,
        placed: list[int],
        horizon: int,
        gamma0: Configuration,
    ) -> float:
        active = np.asarray(placed, dtype=np.int64)
        total = batch.exact_access_cost(active)
        total += costs.running_cost_counts(len(placed)) * horizon
        if self._charge_build:
            total += price_transition(gamma0, Configuration(tuple(placed)), costs).cost
        return float(total)
