"""The commuter scenario of §V-A: demand fanning out from the network center.

Models commuters travelling downtown for work in the morning and back to the
suburbs in the evening. A day consists of ``T`` phases of ``sojourn`` rounds
each (the paper's λ). During phase ``i`` the requests originate from
``2^s(i)`` access points *around the network center* (always including the
center itself), where the fan-out step

* rises ``s(i) = i`` for ``i ≤ T/2`` — the morning spread reaching
  ``2^(T/2)`` access points at midday — and
* falls ``s(i) = T − i`` afterwards, returning to a single access point
  (the center) when the next day starts.

The paper writes the request count as "2t mod T"; we read the exponent
interpretation ``2^(t mod T)`` since the text pins both endpoints to powers
of two ("single requests originate from 2^(T/2) access points"); see
DESIGN.md §3.

Two load variants (§V-A):

* **static** — the total demand is pinned to ``2^(T/2)`` requests per round,
  split evenly over the active access points (``2^(T/2−s)`` each);
* **dynamic** — one request per active access point, so the volume itself
  swings between 1 and ``2^(T/2)``.

"Around the center" is realised by ranking the substrate's access points by
latency from the network center and using the closest ``2^s`` of them;
equidistant access points are shuffled once per generated trace so different
seeds see different suburb orderings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.api.registry import register_scenario
from repro.topology.substrate import Substrate
from repro.workload.base import Scenario
from repro.util.validation import check_positive_int

__all__ = ["CommuterScenario", "default_period_for"]


def default_period_for(n: int) -> int:
    """The paper's size-coupled day length: ``T(n) = 2·(⌊log2 n⌋ − 2)``.

    Matches the caption triples (n=1000, T=14), (n=500, T=12),
    (n=200, T=10); clamped below at ``T = 2``.
    """
    n = check_positive_int("n", n)
    return max(2, 2 * (int(math.log2(n)) - 2))


@register_scenario("commuter", aliases=("commuter-dynamic",))
@dataclass
class CommuterScenario(Scenario):
    """Commuter demand generator (static or dynamic load).

    Args:
        substrate: substrate network; provides the center and distances.
        period: the day length ``T`` in phases (even, ≥ 2). ``None`` selects
            the paper's size-coupled default :func:`default_period_for`.
        sojourn: rounds per phase (the paper's λ between ``ti`` and
            ``ti+1``).
        dynamic_load: ``True`` for the dynamic-load variant (volume follows
            the fan-out), ``False`` for static load (volume pinned to
            ``2^(T/2)``).
    """

    kind = "commuter"

    substrate: Substrate
    period: "int | None" = None
    sojourn: int = 10
    dynamic_load: bool = True
    scenario_name: str = field(init=False)

    def __post_init__(self) -> None:
        if self.period is None:
            self.period = default_period_for(self.substrate.n)
        self.period = check_positive_int("period", self.period)
        if self.period % 2 != 0:
            raise ValueError(f"period T must be even, got {self.period}")
        self.sojourn = check_positive_int("sojourn", self.sojourn)
        variant = "dynamic" if self.dynamic_load else "static"
        self.scenario_name = f"commuter-{variant}(T={self.period},λ={self.sojourn})"

    # -- structure helpers -------------------------------------------------------

    @property
    def peak_demand(self) -> int:
        """The midday volume scale ``2^(T/2)`` (requests for static load)."""
        return 1 << (self.period // 2)

    @property
    def peak_access_points(self) -> int:
        """Access points used at midday: ``2^(T/2)``, saturating at ``|A|``.

        On substrates with fewer than ``2^(T/2)`` access points (the paper's
        T-sweeps on 5-node graphs, Figures 18-19) the fan-out saturates: all
        access points are in use and — for static load — the pinned volume
        is spread as evenly as possible across them.
        """
        return min(self.peak_demand, int(self.substrate.access_points.size))

    @property
    def day_length(self) -> int:
        """Rounds per day: ``T · sojourn``."""
        return self.period * self.sojourn

    def fanout_step(self, t: int) -> int:
        """The exponent ``s`` of the round's fan-out (``2^s`` access points)."""
        phase = (t // self.sojourn) % self.period
        half = self.period // 2
        return phase if phase <= half else self.period - phase

    # -- generation -----------------------------------------------------------

    def _center_ordering(self, rng: np.random.Generator) -> np.ndarray:
        """Access points sorted by distance from the center, random ties.

        The center (or, if the center is not an access point, the access
        point closest to it) always comes first, matching "including the
        network center".
        """
        aps = self.substrate.access_points
        distances = self.substrate.distances[self.substrate.center, aps]
        jitter = rng.random(aps.size)  # tie-breaks equidistant access points
        order = np.lexsort((jitter, distances))
        return aps[order]

    def stream(self, horizon: int, rng: np.random.Generator):
        """Yield commuter rounds lazily.

        A dynamic-load round is a read-only view of the trace's frozen
        center ordering, not a copy; a static-load round is a fresh array.
        """
        ordering = self._center_ordering(rng)
        ordering.flags.writeable = False
        volume = self.peak_demand
        cap = self.peak_access_points
        for t in range(horizon):
            step = self.fanout_step(t)
            points = ordering[: min(1 << step, cap)]
            if self.dynamic_load:
                yield points
            else:
                # 2^(T/2) requests split as evenly as possible (exactly
                # 2^(T/2-s) each below saturation).
                counts = np.full(points.size, volume // points.size, dtype=np.int64)
                counts[: volume % points.size] += 1
                yield np.repeat(points, counts)


@register_scenario("commuter-static")
def commuter_static(substrate: Substrate, **params) -> CommuterScenario:
    """The static-load commuter variant as a registry factory."""
    return CommuterScenario(substrate, dynamic_load=False, **params)
