"""Bursty arrival processes: beyond the paper's deterministic demand.

The paper's §V-A scenarios move demand around the substrate on a fixed
schedule; production request streams are *bursty* in time as well as in
space. This module adds three composable arrival-process scenarios — all
registered, all streaming, all layerable onto the commuter/time-zone
generators through the ``overlay`` combinator:

* :class:`GammaArrivalScenario` (``"gamma"``) — a doubly-stochastic
  (MMPP-style) process: the round intensity is redrawn from a Gamma
  distribution every ``burst_length`` rounds and requests are Poisson
  counts at that intensity, the standard way serving-system traces model
  burstiness via a coefficient of variation;
* :class:`FlashCrowdScenario` (``"flashcrowd"``) — rare events that ramp
  demand up at an epicenter, spread it over the nearest access points,
  decay multiplicatively, and can cascade into secondary crowds elsewhere;
* :class:`DiurnalWavesScenario` (``"diurnal"``) — multi-region daily
  waves: access points cluster around random region centers, each region
  follows a phase-offset sinusoid, and a shared per-day amplitude factor
  correlates the regions (a heavy day is heavy everywhere).

Each is a :class:`~repro.workload.base.Scenario` that implements only
``stream`` (O(round) memory); the base class derives ``generate`` and
``metadata``, so streamed and materialised traces are bit-identical by
construction and the scenarios run equally under
:class:`~repro.traces.streaming.StreamingTrace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.registry import register_scenario
from repro.topology.substrate import Substrate
from repro.workload.base import Scenario, WeightedDraw, draw_uniform
from repro.util.validation import check_positive, check_positive_int, check_probability

__all__ = [
    "GammaArrivalScenario",
    "FlashCrowdScenario",
    "DiurnalWavesScenario",
]


@register_scenario("gamma")
@dataclass
class GammaArrivalScenario(Scenario):
    """Gamma-modulated Poisson arrivals (burstiness via a CV knob).

    Every ``burst_length`` rounds a new intensity is drawn from a Gamma
    distribution with mean ``rate`` and coefficient of variation ``cv``
    (shape ``1/cv²``, scale ``rate·cv²``); each round then sees a Poisson
    count of requests at the current intensity. ``cv → 0`` degenerates to
    plain Poisson arrivals at ``rate``; large ``cv`` produces heavy bursts
    separated by lulls.

    Args:
        substrate: substrate network.
        rate: mean requests per round.
        cv: coefficient of variation of the block intensity (> 0).
        burst_length: rounds between intensity redraws.
        concentration: when set, requests are placed over access points
            with Dirichlet(``concentration``) weights drawn once per trace
            (skewed spatial preference); uniform placement when ``None``.
    """

    kind = "gamma"

    substrate: Substrate
    rate: float = 10.0
    cv: float = 2.0
    burst_length: int = 10
    concentration: "float | None" = None
    scenario_name: str = field(init=False)

    def __post_init__(self) -> None:
        self.rate = check_positive("rate", self.rate)
        self.cv = check_positive("cv", self.cv)
        self.burst_length = check_positive_int("burst_length", self.burst_length)
        if self.concentration is not None:
            self.concentration = check_positive("concentration", self.concentration)
        self.scenario_name = (
            f"gamma(rate={self.rate:g},cv={self.cv:g},burst={self.burst_length})"
        )

    def stream(self, horizon: int, rng: np.random.Generator):
        """Yield gamma-modulated rounds lazily."""
        aps = self.substrate.access_points
        shape = 1.0 / (self.cv * self.cv)
        scale = self.rate * self.cv * self.cv
        weighted = None
        if self.concentration is not None:
            weighted = WeightedDraw(
                aps, rng.dirichlet(np.full(aps.size, self.concentration))
            )
        intensity = 0.0
        for t in range(horizon):
            if t % self.burst_length == 0:
                intensity = rng.gamma(shape, scale)
            count = int(rng.poisson(intensity))
            if weighted is None:
                requests = draw_uniform(rng, aps, count)
            else:
                requests = weighted(rng, count)
            yield requests.astype(np.int64)


@register_scenario("flashcrowd")
@dataclass
class FlashCrowdScenario(Scenario):
    """Flash-crowd cascades on top of Poisson background traffic.

    Each round a new crowd starts with probability ``event_rate`` at a
    uniformly random epicenter access point. A crowd ramps linearly to
    ``peak`` extra requests per round over ``ramp`` rounds, spread over the
    ``spread`` access points nearest its epicenter (substrate distances),
    then decays multiplicatively by ``decay`` per round until it drops
    below one request. When a crowd finishes ramping it cascades with
    probability ``cascade``: a secondary crowd at half the peak starts at
    another random epicenter — the "slashdot effect" jumping mirrors.

    Args:
        substrate: substrate network.
        background_rate: mean background requests per round (uniform).
        event_rate: per-round probability of a new primary crowd.
        peak: requests per round a crowd adds at full ramp.
        ramp: rounds to reach the peak.
        decay: multiplicative per-round decay after the peak (in (0, 1)).
        spread: access points (nearest to the epicenter) sharing the crowd.
        cascade: probability a crowd spawns a half-peak secondary crowd.
    """

    kind = "flashcrowd"

    substrate: Substrate
    background_rate: float = 5.0
    event_rate: float = 0.02
    peak: float = 50.0
    ramp: int = 5
    decay: float = 0.8
    spread: int = 3
    cascade: float = 0.25
    scenario_name: str = field(init=False)

    def __post_init__(self) -> None:
        self.background_rate = check_positive("background_rate", self.background_rate)
        self.event_rate = check_probability("event_rate", self.event_rate)
        self.peak = check_positive("peak", self.peak)
        self.ramp = check_positive_int("ramp", self.ramp)
        self.decay = check_probability("decay", self.decay)
        if self.decay == 0.0:
            raise ValueError("decay must be in (0, 1]")
        self.spread = check_positive_int("spread", self.spread)
        self.cascade = check_probability("cascade", self.cascade)
        self.scenario_name = (
            f"flashcrowd(peak={self.peak:g},ramp={self.ramp},"
            f"p={self.event_rate:g})"
        )

    def _crowd_sites(self, epicenter: int) -> np.ndarray:
        """The ``spread`` access points nearest ``epicenter`` (itself first)."""
        aps = self.substrate.access_points
        distances = self.substrate.distances[epicenter, aps]
        order = np.argsort(distances, kind="stable")
        return aps[order[: min(self.spread, aps.size)]]

    def stream(self, horizon: int, rng: np.random.Generator):
        """Yield flash-crowd rounds lazily."""
        aps = self.substrate.access_points
        # Active crowds: [sites, peak, age]; age counts rounds since start.
        crowds: "list[list]" = []
        for _t in range(horizon):
            requests = [draw_uniform(rng, aps, int(rng.poisson(self.background_rate)))]
            if rng.random() < self.event_rate:
                epicenter = int(draw_uniform(rng, aps))
                crowds.append([self._crowd_sites(epicenter), self.peak, 0])
            surviving: "list[list]" = []
            spawned: "list[list]" = []
            for crowd in crowds:
                sites, peak, age = crowd
                if age < self.ramp:
                    intensity = peak * (age + 1) / self.ramp
                else:
                    intensity = peak * self.decay ** (age - self.ramp)
                count = int(rng.poisson(intensity))
                if count:
                    requests.append(draw_uniform(rng, sites, count))
                if age + 1 == self.ramp and rng.random() < self.cascade:
                    secondary = int(draw_uniform(rng, aps))
                    spawned.append([self._crowd_sites(secondary), peak / 2.0, 0])
                crowd[2] = age + 1
                if intensity >= 1.0:
                    surviving.append(crowd)
            crowds = surviving + spawned
            yield np.concatenate(requests).astype(np.int64, copy=False)


@register_scenario("diurnal")
@dataclass
class DiurnalWavesScenario(Scenario):
    """Correlated multi-region diurnal demand waves.

    ``n_regions`` region centers are drawn uniformly from the access
    points; every access point joins its nearest center (substrate
    distances), partitioning the edge into regions. Region ``i`` follows a
    sinusoidal daily rate with phase offset ``i/n_regions`` of a day —
    evening in one region overlaps morning in the next, the §II-D
    time-zone effect as a stochastic process. A per-day amplitude factor
    (Gamma with mean 1 and CV ``day_cv``), shared by *all* regions,
    correlates them: a heavy day is heavy everywhere.

    Args:
        substrate: substrate network.
        n_regions: number of regions (phase-offset waves).
        day_length: rounds per day.
        rate: mean requests per round per region at wave midpoint.
        amplitude: relative swing of the sinusoid (in [0, 1]).
        day_cv: coefficient of variation of the shared per-day factor;
            0 disables day-to-day variation.
    """

    kind = "diurnal"

    substrate: Substrate
    n_regions: int = 3
    day_length: int = 24
    rate: float = 5.0
    amplitude: float = 0.8
    day_cv: float = 0.3
    scenario_name: str = field(init=False)

    def __post_init__(self) -> None:
        self.n_regions = check_positive_int("n_regions", self.n_regions)
        self.day_length = check_positive_int("day_length", self.day_length)
        self.rate = check_positive("rate", self.rate)
        self.amplitude = check_probability("amplitude", self.amplitude)
        if self.day_cv < 0:
            raise ValueError(f"day_cv must be >= 0, got {self.day_cv}")
        self.scenario_name = (
            f"diurnal(regions={self.n_regions},day={self.day_length})"
        )

    def _partition(self, rng: np.random.Generator) -> "list[np.ndarray]":
        """Access points grouped by nearest region center (every region
        keeps at least its own center)."""
        aps = self.substrate.access_points
        n_regions = min(self.n_regions, aps.size)
        centers = rng.choice(aps, size=n_regions, replace=False)
        distances = self.substrate.distances[np.ix_(centers, aps)]
        nearest = np.argmin(distances, axis=0)
        return [aps[nearest == r] for r in range(n_regions)]

    def stream(self, horizon: int, rng: np.random.Generator):
        """Yield diurnal rounds lazily."""
        regions = self._partition(rng)
        day_shape = None
        if self.day_cv > 0:
            day_shape = 1.0 / (self.day_cv * self.day_cv)
        day_factor = 1.0
        for t in range(horizon):
            if t % self.day_length == 0 and day_shape is not None:
                # One draw per day, shared by all regions (the correlation).
                day_factor = rng.gamma(day_shape, 1.0 / day_shape)
            requests = []
            for r, members in enumerate(regions):
                phase = 2.0 * np.pi * (
                    t / self.day_length - r / len(regions)
                )
                wave = 1.0 + self.amplitude * np.sin(phase)
                count = int(rng.poisson(self.rate * day_factor * max(wave, 0.0)))
                if count:
                    requests.append(draw_uniform(rng, members, count))
            if requests:
                yield np.concatenate(requests).astype(np.int64, copy=False)
            else:
                yield np.empty(0, dtype=np.int64)
