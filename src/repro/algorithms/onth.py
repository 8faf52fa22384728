"""ONTH — the two-level threshold online algorithm of §III-A.

ONTH removes ONBR's main tuning knob by splitting decisions across two
epoch granularities:

* a **small epoch** ends when the cost accumulated in the current
  configuration reaches ``y·β`` (y = 2 in the paper's simulations). At the
  boundary ONTH takes the cheapest of: (1) no change, (2) migrating one
  server, (3) deactivating one server — evaluated on the passed small
  epoch including access, migration and running costs. Servers are *never
  added* here.
* a **large epoch** ends when access cost outgrows running cost; the
  paper's concrete trigger is ``Costacc/(kcur + 1) − Costrun > c`` over the
  accumulated large-epoch costs, with ``kcur`` the current number of active
  servers. Then a new server is activated at the position that is optimal
  for the access cost of the passed large epoch.

Inactive servers use the same FIFO cache as ONBR (size 3); entries expire
after ``x = 20`` small epochs. With constant demand both triggers eventually
stop firing, so ONTH converges to a stable configuration.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._families import (
    apply_choice,
    best_addition,
    best_choice,
    choose,
)
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.evaluation import RequestBatch
from repro.api.registry import register_policy
from repro.core.policy import AllocationPolicy, resolve_start
from repro.core.routing import RoutingResult
from repro.core.servercache import InactiveServerCache
from repro.topology.substrate import Substrate
from repro.util.validation import check_positive, check_positive_int

__all__ = ["OnTH"]


@register_policy("onth")
class OnTH(AllocationPolicy):
    """Online two-threshold allocation (ONTH, §III-A).

    Args:
        small_epoch_factor: y in the small-epoch threshold ``y·β``
            (paper: 2).
        cache_size: capacity of the inactive-server FIFO cache.
        cache_expiry: cache entries expire after this many small epochs (x).
        start_node: initial server location; ``None`` = network center.
        max_servers: optional cap ``k`` on active servers; the large-epoch
            trigger is suppressed at the cap.
    """

    def __init__(
        self,
        small_epoch_factor: float = 2.0,
        cache_size: int = 3,
        cache_expiry: int = 20,
        start_node: "int | None" = None,
        max_servers: "int | None" = None,
    ) -> None:
        self._small_factor = check_positive("small_epoch_factor", small_epoch_factor)
        self._cache_size = check_positive_int("cache_size", cache_size)
        self._cache_expiry = check_positive_int("cache_expiry", cache_expiry)
        self._start_node = start_node
        if max_servers is not None:
            max_servers = check_positive_int("max_servers", max_servers)
        self._max_servers = max_servers

        self._substrate: "Substrate | None" = None
        self._costs: "CostModel | None" = None
        self._config = Configuration.empty()
        self._cache = InactiveServerCache(cache_size, cache_expiry)
        self._small_batch: "RequestBatch | None" = None
        self._large_batch: "RequestBatch | None" = None
        self._small_cost = 0.0
        self._large_access = 0.0
        self._large_running = 0.0
        self._small_threshold = 0.0
        self._run_config: "Configuration | None" = None
        self._run_cost = 0.0
        self._current_round = -1

    @property
    def name(self) -> str:
        return "ONTH"

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
        self._small_batch = self.new_window(substrate, costs)
        self._large_batch = self.new_window(substrate, costs)
        self._small_cost = 0.0
        self._large_access = 0.0
        self._large_running = 0.0
        self._small_threshold = self._small_factor * costs.migration
        self._run_config = None
        self._current_round = -1
        return self._config

    def recurrence_key(self) -> tuple:
        cache = self._cache
        return (
            self._config, cache.nodes, cache.ages, self._small_cost,
            self._large_access, self._large_running, self._small_threshold,
            self._small_batch.content_key, self._large_batch.content_key,
        )

    def decide(
        self,
        t: int,
        requests: np.ndarray,
        routing: RoutingResult,
    ) -> Configuration:
        self._current_round = t
        if self._config is not self._run_config:
            self._run_config = self._config
            self._run_cost = self._costs.running_cost(self._config)
        running = self._run_cost
        self._small_batch.add_round(requests)
        self._large_batch.add_round(requests)
        self._small_cost += routing.access_cost + running
        self._large_access += routing.access_cost
        self._large_running += running

        if self._large_epoch_triggered():
            self._end_large_epoch()
            return self._config

        if self._small_cost >= self._small_threshold:
            self._end_small_epoch()
        return self._config

    # -- large epochs: when to add a server ---------------------------------------

    def _large_epoch_triggered(self) -> bool:
        if self._max_servers is not None and self._config.n_active >= self._max_servers:
            return False
        if self._config.n_active >= self._substrate.n:
            return False
        k_cur = self._config.n_active
        return (
            self._large_access / (k_cur + 1) - self._large_running
            > self._costs.creation
        )

    def _large_decision_batch(self) -> RequestBatch:
        """Window used to position the new server (OFFTH overrides: §IV-B)."""
        return self._large_batch

    def _end_large_epoch(self) -> None:
        """Activate one more server at the access-optimal position (§III-A)."""
        chosen = choose(
            self._large_decision_batch(),
            self._config,
            self._cache,
            self._costs,
            best_addition,
            allow_migrate=False,
            allow_deactivate=False,
        )
        if chosen is not None:
            self._config = apply_choice(chosen, self._config, self._cache)
        self._large_batch.clear()
        self._large_access = 0.0
        self._large_running = 0.0
        # The configuration changed; restart the small epoch as well so its
        # accumulated cost refers to one configuration, as §III-A assumes.
        self._small_batch.clear()
        self._small_cost = 0.0

    # -- small epochs: migrate / deactivate ----------------------------------------

    def _small_decision_batch(self) -> RequestBatch:
        """Window the small-epoch best response evaluates (OFFTH overrides)."""
        return self._small_batch

    def _end_small_epoch(self) -> None:
        chosen = choose(
            self._small_decision_batch(),
            self._config,
            self._cache,
            self._costs,
            best_choice,
            allow_add=False,
        )
        self._config = apply_choice(chosen, self._config, self._cache)

        expired = self._cache.tick_epoch()
        if expired:
            self._config = self._config.replace_inactive(self._cache.nodes)

        self._small_batch.clear()
        self._small_cost = 0.0
