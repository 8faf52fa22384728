"""The Work Function Algorithm as an online baseline (§VI related work).

The paper situates its problem among *metrical task systems* (Borodin,
Linial, Saks): states are server configurations, task costs are the round's
access + running costs, and the transition metric is the §II-C
migration/creation pricing. For MTS the classic deterministic strategy is
the **work function algorithm** (WFA): maintain

    w_t(γ) = min over γ' of [ w_{t-1}(γ') + task_t(γ') + d(γ', γ) ]

— the cheapest cost of any schedule that serves rounds ``0..t`` and ends in
γ — and after each round move to the configuration minimising
``w_t(γ) + d(current, γ)``.

Like ONCONF, WFA's state space is every placement of ``1..k`` active
servers — the two share :class:`~repro.algorithms.onconf.ConfigurationSpace`
and its per-round task costs — so it is exponential in ``k`` and practical
only on small substrates; it exists here as the theory-grade online
comparator for ONBR and ONTH (the ablation benchmark pits all three against
OPT). The inner recurrence is one vectorised ``|Γ|²`` broadcast per round.

Note the difference to :class:`~repro.algorithms.opt.Opt`: WFA *is* an
online algorithm — ``w_t`` only looks backwards — while OPT additionally
backtracks the globally optimal path at hindsight.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.onconf import ConfigurationSpace
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.api.registry import register_policy
from repro.core.policy import AllocationPolicy, resolve_start
from repro.core.routing import RoutingResult
from repro.core.transitions import price_transition
from repro.topology.substrate import Substrate
from repro.util.validation import check_positive_int

__all__ = ["WorkFunctionPolicy"]

#: Hard budget on the enumerated configuration space (as for ONCONF).
_MAX_CONFIGURATIONS = 5_000


@register_policy("workfunction", aliases=("wfa",))
class WorkFunctionPolicy(AllocationPolicy):
    """Online allocation via the MTS work function algorithm.

    Args:
        max_servers: the ``k`` bounding enumerated fleet sizes.
        start_node: initial server location (``None`` = network center).
    """

    def __init__(
        self, max_servers: int = 2, start_node: "int | None" = None
    ) -> None:
        self._k = check_positive_int("max_servers", max_servers)
        self._start_node = start_node

        self._space: "ConfigurationSpace | None" = None
        self._distance: "np.ndarray | None" = None
        self._work: "np.ndarray | None" = None
        self._current = 0

    @property
    def name(self) -> str:
        return "WFA"

    @property
    def configuration(self) -> Configuration:
        """The policy's current configuration."""
        return self._space.configuration(self._current)

    @property
    def n_configurations(self) -> int:
        """Size of the enumerated configuration space."""
        return 0 if self._space is None else len(self._space)

    @property
    def work_function(self) -> np.ndarray:
        """The current work-function values (copy, aligned with the space)."""
        return np.array(self._work)

    # -- policy interface --------------------------------------------------------

    def reset(
        self,
        substrate: Substrate,
        costs: CostModel,
        rng: np.random.Generator,
    ) -> Configuration:
        space = ConfigurationSpace(
            substrate, costs, self._k, _MAX_CONFIGURATIONS, self.name
        )
        self._space = space
        self._current = space.index_of((resolve_start(substrate, self._start_node),))
        self._distance = self._pairwise_distances(space, costs)
        self._work = self._distance[self._current].copy()
        return self.configuration

    @staticmethod
    def _pairwise_distances(
        space: ConfigurationSpace, costs: CostModel
    ) -> np.ndarray:
        wrapped = [space.configuration(i) for i in range(len(space))]
        matrix = np.zeros((len(space), len(space)), dtype=np.float64)
        for i, a in enumerate(wrapped):
            for j, b in enumerate(wrapped):
                if i != j:
                    matrix[i, j] = price_transition(a, b, costs).cost
        return matrix

    def decide(
        self,
        t: int,
        requests: np.ndarray,
        routing: RoutingResult,
    ) -> Configuration:
        task = np.zeros(len(self._space))
        self._space.accumulate(task, requests)
        # w_t(γ) = min_γ' [ w_{t-1}(γ') + task(γ') + d(γ', γ) ]
        served = self._work + task
        self._work = (served[:, None] + self._distance).min(axis=0)
        # WFA move rule: argmin of w_t(γ) + d(current, γ). Ties are broken
        # toward the smaller work-function value: staying put always scores
        # w(γ̂) ≤ w(γ) + d(γ, γ̂), so exact ties are systematic and a naive
        # argmin would never move off a demand-starved state.
        scores = self._work + self._distance[self._current]
        rounded = np.round(scores, 9)
        self._current = int(np.lexsort((self._work, rounded))[0])
        return self.configuration
