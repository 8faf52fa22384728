"""The time zones scenario of §V-A: a wandering daily hotspot.

Models global daytime effects: users from different regions access the
service at different times of the day. A day is divided into ``T`` periods;
each period ``i`` has a fixed *hotspot* access point (chosen uniformly at
random once, then reused every day — "we assume that these locations are the
same each day"). While period ``i`` is in effect, ``p%`` of each round's
requests originate at hotspot ``i`` and the rest is background traffic from
access points chosen uniformly at random, fresh every round.

The sojourn time τ at a hotspot is constant (the paper's λ in the Figure 10
and 17 captions), so a day lasts ``T · sojourn`` rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.registry import register_scenario
from repro.topology.substrate import Substrate
from repro.workload.base import Scenario, draw_uniform
from repro.util.validation import check_positive_int, check_probability

__all__ = ["TimeZoneScenario"]


@register_scenario("timezones", aliases=("time-zones",))
@dataclass
class TimeZoneScenario(Scenario):
    """Time-zone demand generator.

    Args:
        substrate: substrate network (its access points host the demand).
        period: periods per day ``T``.
        sojourn: rounds per period (the constant sojourn time τ / caption λ).
        hotspot_share: fraction ``p`` of each round's requests pinned to the
            period's hotspot (the paper uses p = 50%).
        requests_per_round: total demand volume per round. The paper leaves
            this open for most figures (Figure 17 fixes 3/round); 10 is our
            documented default.
    """

    kind = "timezones"

    substrate: Substrate
    period: int = 10
    sojourn: int = 10
    hotspot_share: float = 0.5
    requests_per_round: int = 10
    scenario_name: str = field(init=False)

    def __post_init__(self) -> None:
        self.period = check_positive_int("period", self.period)
        self.sojourn = check_positive_int("sojourn", self.sojourn)
        self.hotspot_share = check_probability("hotspot_share", self.hotspot_share)
        self.requests_per_round = check_positive_int(
            "requests_per_round", self.requests_per_round
        )
        self.scenario_name = (
            f"timezones(T={self.period},λ={self.sojourn},"
            f"p={self.hotspot_share:.0%},R={self.requests_per_round})"
        )

    @property
    def day_length(self) -> int:
        """Rounds per day: ``T · sojourn``."""
        return self.period * self.sojourn

    @property
    def hotspot_requests(self) -> int:
        """Requests per round pinned to the current hotspot."""
        return int(round(self.hotspot_share * self.requests_per_round))

    def period_of(self, t: int) -> int:
        """Index of the active period (and thus hotspot) in round ``t``."""
        return (t // self.sojourn) % self.period

    def stream(self, horizon: int, rng: np.random.Generator):
        """Yield time-zone rounds lazily."""
        aps = self.substrate.access_points
        # One hotspot per period, drawn once and reused every day.
        hotspots = rng.choice(aps, size=self.period, replace=aps.size < self.period)
        n_hot = self.hotspot_requests
        n_background = self.requests_per_round - n_hot

        for t in range(horizon):
            hotspot = hotspots[self.period_of(t)]
            pinned = np.full(n_hot, hotspot, dtype=np.int64)
            background = draw_uniform(rng, aps, n_background)
            yield np.concatenate([pinned, background])
