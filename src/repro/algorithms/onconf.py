"""ONCONF — the generic configuration-counter online algorithm of §III.

ONCONF generalises the single-server algorithm of Bienkowski et al. [4] to
up to ``k`` servers: it maintains a counter ``C(γ)`` for every configuration
γ (every placement of 1..k active servers). Within an epoch, each round adds
to *every* counter the cost that configuration would have paid for the
round's requests (access cost plus running cost). The current configuration
γ̂ is kept until ``C(γ̂)`` reaches ``k·c``; then ONCONF switches to a
configuration chosen uniformly at random among those with ``C(γ) < k·c``.
When no such configuration remains, the epoch ends in that round: all
counters reset and the next epoch starts in the next round (no migration).

The configuration space has ``Σ_{i=1..k} C(n, i)`` elements, so — exactly as
the paper observes — the algorithm is only practical for small substrates
and small ``k``; ``reset`` enforces a budget. Its value here is as the
conceptual anchor (the competitive-ratio argument of §III applies to it) and
as a baseline on the 5-node OPT topologies. The enumeration, its budget and
the per-round cost of every configuration live in
:class:`ConfigurationSpace`, which the work function algorithm
(:mod:`repro.algorithms.workfunction`) shares.

Note: the paper's counter description mentions "possible creation costs";
we accumulate access + running cost only, since the creation cost a
configuration *would* pay depends on the unknown switching path. The k·c
threshold bounds the per-epoch movement cost exactly as in the analysis.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.api.registry import register_policy
from repro.core.policy import AllocationPolicy, resolve_start
from repro.core.routing import RoutingResult
from repro.topology.substrate import Substrate
from repro.util.validation import check_positive_int

__all__ = ["ConfigurationSpace", "OnConf"]

#: Hard budget on the enumerated configuration space.
_MAX_CONFIGURATIONS = 20_000


class ConfigurationSpace:
    """Every placement of 1..min(k, n) active servers on a substrate.

    The state space of ONCONF and WFA, enumerated by fleet size and then
    lexicographically, with each configuration's running cost.

    Args:
        substrate: the substrate network.
        costs: the run's cost model.
        k: the largest fleet size (clamped to ``substrate.n``).
        budget: refuse spaces with more configurations than this.
        owner: the policy name used in the budget error.
    """

    def __init__(
        self,
        substrate: Substrate,
        costs: CostModel,
        k: int,
        budget: int,
        owner: str,
    ) -> None:
        self.k = min(k, substrate.n)
        size = sum(comb(substrate.n, i) for i in range(1, self.k + 1))
        if size > budget:
            raise ValueError(
                f"{owner} would enumerate {size} configurations "
                f"(n={substrate.n}, k={self.k}); the budget is {budget}. "
                "Use ONBR/ONTH for larger instances (§III-A)."
            )
        self._substrate = substrate
        self._costs = costs
        self._placements = [
            combo
            for fleet in range(1, self.k + 1)
            for combo in combinations(range(substrate.n), fleet)
        ]
        self._index = {combo: i for i, combo in enumerate(self._placements)}
        self._nodes = [np.asarray(combo, dtype=np.int64) for combo in self._placements]
        #: Running cost of every configuration, aligned with the space.
        self.run_costs = np.asarray(
            [costs.running_cost_counts(len(combo)) for combo in self._placements]
        )

    def __len__(self) -> int:
        return len(self._placements)

    def configuration(self, i: int) -> Configuration:
        """The ``i``-th configuration of the space."""
        return Configuration(self._placements[i])

    def index_of(self, active: tuple[int, ...]) -> int:
        """Position of the configuration with ``active`` servers."""
        index = self._index.get(tuple(sorted(active)))
        if index is None:
            raise ValueError(f"configuration {active} not in the enumerated space")
        return index

    def accumulate(self, out: np.ndarray, requests: np.ndarray) -> None:
        """Add every configuration's round cost (access + running) to ``out``.

        In place, running cost first: ``out`` is ONCONF's counters or a
        zero vector for WFA's task costs.
        """
        out += self.run_costs
        if requests.size == 0:
            return

        distances = self._substrate.distances[:, requests]
        strengths = self._substrate.strengths
        costs = self._costs
        invariant = (
            costs.load.assignment_invariant_for_uniform_strength
            and bool(np.all(strengths == strengths[0]))
        )
        hop = costs.wireless_hop * requests.size
        if invariant:
            uniform_load = float(
                costs.load(strengths[:1], np.asarray([requests.size])).sum()
            )
        for i, nodes in enumerate(self._nodes):
            sub = distances[nodes]
            latency = float(sub.min(axis=0).sum())
            if invariant:
                load = uniform_load
            else:
                assignment = np.argmin(sub, axis=0)
                counts = np.bincount(assignment, minlength=nodes.size)
                load = float(costs.load(strengths[nodes], counts).sum())
            out[i] += latency + hop + load


@register_policy("onconf")
class OnConf(AllocationPolicy):
    """Online configuration-counter algorithm (ONCONF, §III).

    Args:
        max_servers: the paper's ``k`` — configurations host 1..k active
            servers (the inactive cache is not part of ONCONF
            configurations).
        start_node: initial server location; ``None`` = network center.
        deterministic: switch to the *lowest-counter* configuration instead
            of a uniformly random eligible one (a §III-mentioned
            optimisation; used by tests for reproducibility).
    """

    def __init__(
        self,
        max_servers: int = 2,
        start_node: "int | None" = None,
        deterministic: bool = False,
    ) -> None:
        self._k = check_positive_int("max_servers", max_servers)
        self._start_node = start_node
        self._deterministic = bool(deterministic)

        self._rng: "np.random.Generator | None" = None
        self._space: "ConfigurationSpace | None" = None
        self._counters: "np.ndarray | None" = None
        self._current = 0
        self._threshold = 0.0

    @property
    def name(self) -> str:
        return "ONCONF"

    @property
    def configuration(self) -> Configuration:
        """The policy's current configuration."""
        return self._space.configuration(self._current)

    @property
    def n_configurations(self) -> int:
        """Size of the enumerated configuration space."""
        return 0 if self._space is None else len(self._space)

    # -- policy interface --------------------------------------------------------

    def reset(
        self,
        substrate: Substrate,
        costs: CostModel,
        rng: np.random.Generator,
    ) -> Configuration:
        self._rng = rng
        space = ConfigurationSpace(
            substrate, costs, self._k, _MAX_CONFIGURATIONS, self.name
        )
        start = resolve_start(substrate, self._start_node)
        self._space = space
        self._counters = np.zeros(len(space), dtype=np.float64)
        self._threshold = space.k * costs.creation
        self._current = space.index_of((start,))
        return self.configuration

    def decide(
        self,
        t: int,
        requests: np.ndarray,
        routing: RoutingResult,
    ) -> Configuration:
        self._space.accumulate(self._counters, requests)

        if self._counters[self._current] < self._threshold:
            return self.configuration

        eligible = np.flatnonzero(self._counters < self._threshold)
        if eligible.size == 0:
            # Epoch over: reset all counters, stay put; the next epoch
            # starts with the next round.
            self._counters[:] = 0.0
            return self.configuration

        if self._deterministic:
            self._current = int(eligible[np.argmin(self._counters[eligible])])
        else:
            self._current = int(self._rng.choice(eligible))
        return self.configuration
