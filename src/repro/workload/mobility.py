"""The on/off user-mobility model sketched in §II-D.

The paper motivates its request dynamics with user mobility: a user appears
at an access point ``a1`` at time ``t``, stays for a period ``Δt``, then
jumps to *another arbitrary node* — movements need not follow substrate
links because geography does not map onto the topology. It also suggests
correlation between users ("workers commute downtown in the morning").

:class:`MobilityScenario` implements that model directly as an extension
workload (used by the ablation benchmarks): a fixed population of users,
each issuing one request per round from its current access point; sojourn
times are geometric with the configured mean; on a jump, a user moves to the
current *attractor* access point with probability ``correlation`` and to a
uniformly random access point otherwise. The attractor itself performs a
slow random walk over the access points, changing every ``attractor_period``
rounds — the knob between i.i.d. churn (correlation 0) and a coherent
crowd (correlation 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.registry import register_scenario
from repro.topology.substrate import Substrate
from repro.workload.base import Scenario, draw_uniform
from repro.util.validation import check_positive, check_positive_int, check_probability

__all__ = ["MobilityScenario"]


@register_scenario("mobility")
@dataclass
class MobilityScenario(Scenario):
    """On/off mobility demand generator (§II-D extension).

    Args:
        substrate: substrate network.
        n_users: population size (requests per round).
        mean_sojourn: mean rounds a user stays at one access point; sojourns
            are geometric, so ``1/mean_sojourn`` is the per-round move
            probability.
        correlation: probability that a moving user heads to the current
            attractor access point rather than a uniform one.
        attractor_period: rounds between attractor relocations.
    """

    kind = "mobility"

    substrate: Substrate
    n_users: int = 20
    mean_sojourn: float = 10.0
    correlation: float = 0.5
    attractor_period: int = 50
    scenario_name: str = field(init=False)

    def __post_init__(self) -> None:
        self.n_users = check_positive_int("n_users", self.n_users)
        self.mean_sojourn = check_positive("mean_sojourn", self.mean_sojourn)
        if self.mean_sojourn < 1.0:
            raise ValueError(
                f"mean_sojourn must be >= 1 round, got {self.mean_sojourn}"
            )
        self.correlation = check_probability("correlation", self.correlation)
        self.attractor_period = check_positive_int(
            "attractor_period", self.attractor_period
        )
        self.scenario_name = (
            f"mobility(users={self.n_users},Δt={self.mean_sojourn:g},"
            f"corr={self.correlation:g})"
        )

    def stream(self, horizon: int, rng: np.random.Generator):
        """Yield mobility rounds lazily."""
        aps = self.substrate.access_points
        move_probability = 1.0 / self.mean_sojourn
        positions = draw_uniform(rng, aps, self.n_users)
        attractor = int(draw_uniform(rng, aps))

        for t in range(horizon):
            if t > 0 and t % self.attractor_period == 0:
                attractor = int(draw_uniform(rng, aps))
            movers = rng.random(self.n_users) < move_probability
            n_movers = int(movers.sum())
            if n_movers:
                to_attractor = rng.random(n_movers) < self.correlation
                destinations = draw_uniform(rng, aps, n_movers)
                destinations[to_attractor] = attractor
                positions = positions.copy()
                positions[movers] = destinations
            yield positions.copy()
