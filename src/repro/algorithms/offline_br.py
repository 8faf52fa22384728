"""OFFBR and OFFTH — the look-ahead best-response variants of §IV-B.

The paper's "interesting and natural adaption": keep the epoch mechanics of
ONBR/ONTH, but at each decision point switch to the configuration of lowest
cost *in the upcoming epoch* rather than the passed one. These run in the
same simulator as their online counterparts; the only change is the request
window handed to the best-response step.

The upcoming epoch is identified exactly how the live epoch would end: we
scan forward from the next round, accumulating the access + running cost
the *current* configuration would pay, until the epoch threshold is reached
(θ for OFFBR, y·β for OFFTH's small epochs) or the trace ends. OFFTH's
large-epoch server placement looks ahead over a window as long as the large
epoch that just ended (the demand's natural decision horizon), capped at
the end of the trace.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_policy
from repro.algorithms.onbr import OnBR
from repro.algorithms.onth import OnTH
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.evaluation import RequestBatch
from repro.core.policy import OfflinePolicy
from repro.core.routing import route_requests
from repro.topology.substrate import Substrate
from repro.workload.base import Trace

__all__ = ["OffBR", "OffTH"]


def _lookahead_rounds(
    substrate: Substrate,
    costs: CostModel,
    trace: Trace,
    start_round: int,
    config: Configuration,
    threshold: float,
) -> list[np.ndarray]:
    """The upcoming epoch: rounds until staying in ``config`` costs ``threshold``.

    Returns at least one round when any future round exists, so a decision
    always has a non-empty window to evaluate.
    """
    rounds: list[np.ndarray] = []
    accumulated = 0.0
    running = costs.running_cost(config)
    active = np.asarray(config.active, dtype=np.int64)
    for t in range(start_round, len(trace)):
        requests = trace[t]
        routed = route_requests(substrate, active, requests, costs)
        accumulated += routed.access_cost + running
        rounds.append(requests)
        if accumulated >= threshold:
            break
    return rounds


@register_policy("offbr")
class OffBR(OnBR, OfflinePolicy):
    """Offline best-response (OFFBR, §IV-B): ONBR deciding on the next epoch."""

    @property
    def name(self) -> str:
        return "OFFBR-dyn" if self._dynamic else "OFFBR"

    def reset(self, substrate, costs, rng) -> Configuration:
        self._require_prepared()
        return super().reset(substrate, costs, rng)

    def recurrence_key(self) -> None:
        return None  # the lookahead is clipped at the horizon: never replay

    def _decision_batch(self) -> RequestBatch:
        upcoming = _lookahead_rounds(
            self._substrate,
            self._costs,
            self._trace,
            self._current_round + 1,
            self._config,
            self._epoch_threshold,
        )
        if not upcoming:  # at the end of the trace: fall back to the past epoch
            return self._batch
        return RequestBatch(self._substrate, self._costs, upcoming)


@register_policy("offth")
class OffTH(OnTH, OfflinePolicy):
    """Offline two-threshold (OFFTH, §IV-B): ONTH deciding on upcoming windows."""

    @property
    def name(self) -> str:
        return "OFFTH"

    def reset(self, substrate, costs, rng) -> Configuration:
        self._require_prepared()
        return super().reset(substrate, costs, rng)

    def recurrence_key(self) -> None:
        return None  # the lookahead is clipped at the horizon: never replay

    def _small_decision_batch(self) -> RequestBatch:
        upcoming = _lookahead_rounds(
            self._substrate,
            self._costs,
            self._trace,
            self._current_round + 1,
            self._config,
            self._small_threshold,
        )
        if not upcoming:
            return self._small_batch
        return RequestBatch(self._substrate, self._costs, upcoming)

    def _large_decision_batch(self) -> RequestBatch:
        window = max(self._large_batch.n_rounds, 1)
        start = self._current_round + 1
        upcoming = [
            self._trace[t]
            for t in range(start, min(start + window, len(self._trace)))
        ]
        if not upcoming:
            return self._large_batch
        return RequestBatch(self._substrate, self._costs, upcoming)
