"""Shared best-response step for ONBR/ONTH (and their offline variants).

At an epoch boundary the algorithms of §III-A pick the cheapest
configuration among a small set of *single-change families* relative to the
current configuration γ:

* ``stay``       — keep γ;
* ``migrate``    — one active server moves to another node (cost β);
* ``deactivate`` — one active server enters the inactive cache (free);
* ``activate``   — a cached inactive server is switched on in place (free);
* ``create``     — a new active server appears at an empty node: the oldest
  cache entry is migrated there when one exists (β), otherwise the server
  is created from scratch (c) — the §III-A queue rule.

Every family's access cost over the epoch window comes from one
:meth:`~repro.core.evaluation.RequestBatch.epoch_scan`, on a streamed,
gathered or lookahead window alike, so evaluating all ``O(k·n)``
concrete candidates costs a few numpy broadcasts. A family is summarised
by the best concrete candidate inside it, and the scan gives each such
representative its exact access cost under every load model (a
convex load may leave only the other entries as lower bounds). Applying
a choice updates the policy's configuration and inactive-server cache
consistently with how :func:`~repro.core.transitions.price_transition`
will charge it.

A policy asks :func:`choose` for its decision: the family list goes
through a selection rule (:func:`best_choice`, or :func:`best_addition`
for ONTH's large epochs) and only the chosen :class:`Choice` is kept. The
choice is a pure function of the window's requests, the configuration,
the cache's nodes and size, the cost model, the family flags and the
rule, so a gather window memoises it under its content key: an epoch
boundary whose window recurs anywhere in the trace (a commuter day, a
quiet spell) is one memo lookup.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.evaluation import RequestBatch
from repro.core.servercache import InactiveServerCache

__all__ = [
    "Choice", "enumerate_choices", "choose", "apply_choice", "best_choice",
    "best_addition",
]

#: Tie-break order between families with equal total cost: prefer doing
#: nothing, then free changes, then priced ones.
_KIND_PRIORITY = {"stay": 0, "deactivate": 1, "activate": 2, "migrate": 3, "create": 4}


@dataclass(frozen=True, slots=True)
class Choice:
    """The best concrete candidate of one family.

    Attributes:
        kind: family name (see module docstring).
        access: window access cost of the candidate placement.
        run_per_round: running cost per round of the candidate configuration.
        transition_cost: what :func:`price_transition` will charge.
        server: index into the current active tuple (migrate/deactivate).
        target: destination node (migrate/activate/create).
    """

    kind: str
    access: float
    run_per_round: float
    transition_cost: float
    server: int = -1
    target: int = -1

    def total(self, n_rounds: int) -> float:
        """Window cost: access + running over the window + transition."""
        return self.access + self.run_per_round * max(n_rounds, 1) + self.transition_cost

    @property
    def priority(self) -> int:
        """Tie-break rank (lower wins)."""
        return _KIND_PRIORITY[self.kind]


def enumerate_choices(
    batch: RequestBatch,
    config: Configuration,
    cache: InactiveServerCache,
    costs: CostModel,
    allow_migrate: bool = True,
    allow_deactivate: bool = True,
    allow_add: bool = True,
) -> tuple[Choice, ...]:
    """All family representatives for the current (config, cache) state.

    ONBR enumerates every family; ONTH's small epochs exclude additions
    (``allow_add=False``) because servers are only added at large-epoch
    boundaries (§III-A). The access costs come from one
    :meth:`~repro.core.evaluation.RequestBatch.epoch_scan`; the list is
    built fresh (policies call :func:`choose`, which memoises the chosen
    entry).
    """
    return _assemble_choices(
        batch, config, cache.nodes, cache.max_size, costs,
        allow_migrate, allow_deactivate, allow_add,
    )


def choose(
    batch: RequestBatch,
    config: Configuration,
    cache: InactiveServerCache,
    costs: CostModel,
    rule: "Callable[[Sequence[Choice], int], Choice | None]",
    allow_migrate: bool = True,
    allow_deactivate: bool = True,
    allow_add: bool = True,
) -> "Choice | None":
    """``rule(enumerate_choices(...), batch.n_rounds)``, memoised on the batch.

    The value is a pure function of the window's requests (its
    ``n_rounds`` included) and of the arguments' values, so a gather
    window memoises it under its content key
    (:meth:`~repro.core.evaluation.RequestBatch.memoised`); a plain batch
    computes it fresh. The key below names every input the choice reads.
    """
    queue_nodes, max_cache = cache.nodes, cache.max_size
    key = (
        "choice", rule, config.active, config.inactive, queue_nodes, max_cache,
        costs, allow_migrate, allow_deactivate, allow_add,
    )
    return batch.memoised(
        key,
        lambda: rule(
            _assemble_choices(
                batch, config, queue_nodes, max_cache, costs,
                allow_migrate, allow_deactivate, allow_add,
            ),
            batch.n_rounds,
        ),
    )


def _assemble_choices(
    batch: RequestBatch,
    config: Configuration,
    queue_nodes: "tuple[int, ...]",
    max_cache: int,
    costs: CostModel,
    allow_migrate: bool,
    allow_deactivate: bool,
    allow_add: bool,
) -> tuple[Choice, ...]:
    occupied = sorted(config.occupied)
    scan = batch.epoch_scan(
        config.active, occupied, allow_migrate, allow_deactivate, allow_add
    )
    k_active, k_inactive = config.n_active, len(queue_nodes)
    run = costs.running_cost_counts
    run_same = run(k_active, k_inactive)

    choices = [Choice("stay", scan.stay, run_same, 0.0)]

    # Migration: the server leaves its origin empty and reappears at the
    # target (plain §II-C move); the inactive cache is untouched.
    for i, (target, access) in enumerate(
        zip(scan.migrate_target.tolist(), scan.migrate_access.tolist())
    ):
        if not math.isfinite(access):
            continue
        # The pricer always takes the cheaper of moving a vanished server
        # (β) and creating from scratch (c), so predict the same.
        move_cost = min(
            costs.migration_cost(config.active[i], target), costs.creation
        )
        choices.append(
            Choice("migrate", access, run_same, move_cost, server=i, target=target)
        )

    if scan.removal is not None:
        # k entries: a Python list picks its first minimum exactly like
        # argmin, at a fraction of the call cost.
        removal = scan.removal.tolist()
        best = removal.index(min(removal))
        if math.isfinite(removal[best]):
            # Deactivation is free; a full cache evicts its oldest entry.
            new_inactive = min(k_inactive + 1, max_cache)
            choices.append(
                Choice(
                    "deactivate",
                    removal[best],
                    run(k_active - 1, new_inactive),
                    0.0,
                    server=best,
                )
            )

    addition = scan.addition
    if addition is None:
        return tuple(choices)
    # Best in-place activation of a cached server.
    if queue_nodes:
        cached = [float(addition[v]) for v in queue_nodes]
        local = cached.index(min(cached))
        choices.append(
            Choice(
                "activate",
                cached[local],
                run(k_active + 1, k_inactive - 1),
                0.0,
                target=int(queue_nodes[local]),
            )
        )
    # Best creation at an empty node.
    empty_costs = addition.copy()
    empty_costs[occupied] = np.inf
    target = int(empty_costs.argmin())
    access = float(empty_costs[target])
    if math.isfinite(access):
        if queue_nodes:
            # §III-A: the oldest cached server is migrated to the new node
            # (the pricer takes the cheaper of migration and creation).
            donor = int(queue_nodes[0])
            transition = min(costs.migration_cost(donor, target), costs.creation)
            new_inactive = k_inactive - 1
        else:
            transition = costs.creation
            new_inactive = k_inactive
        choices.append(
            Choice(
                "create",
                access,
                run(k_active + 1, new_inactive),
                transition,
                target=target,
            )
        )
    return tuple(choices)


def best_choice(choices: "Sequence[Choice]", n_rounds: int) -> Choice:
    """The cheapest choice; ties resolved by :data:`_KIND_PRIORITY`."""
    if not choices:
        raise ValueError("no choices to select from")
    return min(choices, key=lambda ch: (ch.total(n_rounds), ch.priority, ch.target))


def best_addition(choices: "Sequence[Choice]", n_rounds: int) -> "Choice | None":
    """The activation or creation of least window access (ONTH's large
    epochs, §III-A), ``None`` when neither family has a candidate; ties
    resolved by :data:`_KIND_PRIORITY`."""
    additions = [ch for ch in choices if ch.kind in ("activate", "create")]
    if not additions:
        return None
    return min(additions, key=lambda ch: (ch.access, ch.priority, ch.target))


def apply_choice(
    choice: Choice,
    config: Configuration,
    cache: InactiveServerCache,
) -> Configuration:
    """Mutate ``cache`` and return the new configuration for ``choice``.

    The cache operations mirror exactly what the transition pricer assumes:
    a deactivated server is pushed (possibly evicting the oldest entry), an
    activation consumes its cache entry, a creation consumes the oldest
    entry as migration donor when one exists.
    """
    if choice.kind == "stay":
        # Hand back the same object when nothing changed: the round loops
        # then skip re-validating and re-pricing an identical configuration.
        nodes = cache.nodes
        return config if nodes == config.inactive else config.replace_inactive(nodes)

    if choice.kind == "migrate":
        src = config.active[choice.server]
        new_config = config.move_active(src, choice.target)
        return new_config.replace_inactive(cache.nodes)

    if choice.kind == "deactivate":
        node = config.active[choice.server]
        cache.push(node)  # eviction (if any) silently leaves use
        return Configuration(
            tuple(v for v in config.active if v != node), cache.nodes
        )

    if choice.kind == "activate":
        if not cache.remove(choice.target):
            raise RuntimeError(f"activation target {choice.target} not in cache")
        return Configuration(config.active + (choice.target,), cache.nodes)

    if choice.kind == "create":
        cache.pop_oldest()  # donor for the β-migration (None when empty: creation)
        return Configuration(config.active + (choice.target,), cache.nodes)

    raise ValueError(f"unknown choice kind {choice.kind!r}")
