"""ONBR — the sequential best-response online algorithm of §III-A.

ONBR starts with one server at the network center. Time is divided into
epochs; an epoch ends when the cost accumulated in the current configuration
(access plus running cost) reaches a threshold θ. At the boundary, ONBR
switches to the cheapest configuration — evaluated against the *passed*
epoch, including access, migration, running and creation costs — among:

1. no change,
2. one server migrated to a different location,
3. one server deactivated into the inactive cache,
4. one cached server activated in place, or a new server created at an
   empty node (migrating the oldest cache entry there when one exists).

Inactive servers live in a FIFO cache of constant size (3 in the paper's
simulations) and expire after ``x = 20`` epochs.

Two threshold variants from §V-B:

* **fixed** — θ = 2c;
* **dyn** — θ = 2c/ℓ where ℓ is the length (rounds) of the preceding
  epoch: short epochs mean fast-changing demand, so the system re-decides
  sooner. The first epoch uses the fixed threshold.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._families import apply_choice, best_choice, choose
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.evaluation import RequestBatch
from repro.api.registry import register_policy
from repro.core.policy import AllocationPolicy, resolve_start
from repro.core.routing import RoutingResult
from repro.core.servercache import InactiveServerCache
from repro.topology.substrate import Substrate
from repro.util.validation import check_positive, check_positive_int

__all__ = ["OnBR"]


@register_policy("onbr", aliases=("onbr-fixed",))
class OnBR(AllocationPolicy):
    """Online best-response allocation (ONBR, §III-A).

    Args:
        threshold_factor: θ in units of the creation cost (θ = factor · c);
            the paper uses 2.
        dynamic_threshold: enable the "dyn" variant θ = 2c/ℓ.
        cache_size: capacity of the inactive-server FIFO cache.
        cache_expiry: cache entries expire after this many epochs (x).
        start_node: initial server location; ``None`` = network center.
    """

    def __init__(
        self,
        threshold_factor: float = 2.0,
        dynamic_threshold: bool = False,
        cache_size: int = 3,
        cache_expiry: int = 20,
        start_node: "int | None" = None,
    ) -> None:
        self._threshold_factor = check_positive("threshold_factor", threshold_factor)
        self._dynamic = bool(dynamic_threshold)
        self._cache_size = check_positive_int("cache_size", cache_size)
        self._cache_expiry = check_positive_int("cache_expiry", cache_expiry)
        self._start_node = start_node
        # Bound at reset:
        self._substrate: "Substrate | None" = None
        self._costs: "CostModel | None" = None
        self._config = Configuration.empty()
        self._cache = InactiveServerCache(cache_size, cache_expiry)
        self._batch: "RequestBatch | None" = None
        self._epoch_cost = 0.0
        self._epoch_rounds = 0
        self._previous_epoch_rounds: "int | None" = None
        self._epoch_threshold = 0.0
        self._run_config: "Configuration | None" = None
        self._run_cost = 0.0
        self._current_round = -1

    @property
    def name(self) -> str:
        return "ONBR-dyn" if self._dynamic else "ONBR"

    @property
    def configuration(self) -> Configuration:
        """The policy's current configuration (for inspection/tests)."""
        return self._config

    # -- policy interface --------------------------------------------------------

    def reset(
        self,
        substrate: Substrate,
        costs: CostModel,
        rng: np.random.Generator,
    ) -> Configuration:
        self._substrate = substrate
        self._costs = costs
        self._config = Configuration.single(resolve_start(substrate, self._start_node))
        self._cache = InactiveServerCache(self._cache_size, self._cache_expiry)
        self._batch = self.new_window(substrate, costs)
        self._epoch_cost = 0.0
        self._epoch_rounds = 0
        self._previous_epoch_rounds = None
        self._epoch_threshold = self._threshold()
        self._run_config = None
        self._current_round = -1
        return self._config

    def recurrence_key(self) -> tuple:
        cache = self._cache
        return (
            self._config, cache.nodes, cache.ages, self._epoch_cost,
            self._epoch_rounds, self._previous_epoch_rounds,
            self._epoch_threshold, self._batch.content_key,
        )

    def _threshold(self) -> float:
        base = self._threshold_factor * self._costs.creation
        if self._dynamic and self._previous_epoch_rounds:
            return base / self._previous_epoch_rounds
        return base

    def decide(
        self,
        t: int,
        requests: np.ndarray,
        routing: RoutingResult,
    ) -> Configuration:
        self._current_round = t
        self._batch.add_round(requests)
        self._epoch_rounds += 1
        if self._config is not self._run_config:
            self._run_config = self._config
            self._run_cost = self._costs.running_cost(self._config)
        self._epoch_cost += routing.access_cost + self._run_cost

        if self._epoch_cost < self._epoch_threshold:
            return self._config

        self._end_epoch()
        return self._config

    # -- epoch machinery -----------------------------------------------------------

    def _decision_batch(self) -> RequestBatch:
        """The request window the best-response step evaluates against.

        ONBR decides on the *passed* epoch; the offline variant OFFBR
        overrides this with the upcoming epoch (§IV-B).
        """
        return self._batch

    def _end_epoch(self) -> None:
        chosen = choose(
            self._decision_batch(), self._config, self._cache, self._costs,
            best_choice,
        )
        self._config = apply_choice(chosen, self._config, self._cache)

        expired = self._cache.tick_epoch()
        if expired:
            self._config = self._config.replace_inactive(self._cache.nodes)

        self._previous_epoch_rounds = self._epoch_rounds
        self._epoch_threshold = self._threshold()
        self._epoch_rounds = 0
        self._epoch_cost = 0.0
        self._batch.clear()


@register_policy("onbr-dyn")
def onbr_dyn(**kwargs) -> OnBR:
    """The "dyn" variant θ = 2c/ℓ as a registry factory (§V-B)."""
    return OnBR(dynamic_threshold=True, **kwargs)
