"""Pricing configuration changes per the transition semantics of §II-C.

The paper fixes the rules through Examples 1–3:

* activating an inactive server *in place* is free;
* deactivating an active server (into the inactive cache) is free;
* a new active server at a node with no server either **migrates** a
  disappearing server there (cost β) — the donor may be an inactive cache
  entry or an active server that vanishes in the same step — or is
  **created** from scratch (cost c);
* inactive servers are never migrated except when being activated at the
  target, and dropping a server (out of use) is free.

:func:`price_transition` computes the cheapest legal interpretation of an
``old → new`` configuration change under these rules. With constant β this
is simple set arithmetic (every donor is interchangeable); with a
distance-dependent migration matrix it becomes a minimum-cost matching
between donors and newly occupied nodes, solved exactly with the Hungarian
algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import Configuration
from repro.core.costs import CostModel

__all__ = ["TransitionOutcome", "price_transition"]


@dataclass(frozen=True)
class TransitionOutcome:
    """Breakdown of one configuration change.

    Attributes:
        migrations: number of β-priced server moves.
        creations: number of c-priced server creations (new active servers
            without a donor, plus inactive servers appearing at fresh nodes).
        activations: free in-place activations of cached inactive servers.
        deactivations: free moves of active servers into the inactive cache.
        dropped: servers that simply left use (free).
        migration_cost: total β cost (sum of per-move costs when a
            migration matrix is in effect).
        creation_cost: total c cost.
    """

    migrations: int
    creations: int
    activations: int
    deactivations: int
    dropped: int
    migration_cost: float
    creation_cost: float

    @property
    def cost(self) -> float:
        """Total cost of the transition, ``Cost(γ → γ')`` in §IV-A."""
        return self.migration_cost + self.creation_cost


_NO_CHANGE = TransitionOutcome(0, 0, 0, 0, 0, 0.0, 0.0)


def price_transition(
    old: Configuration, new: Configuration, costs: CostModel
) -> TransitionOutcome:
    """Price the change ``old → new`` under ``costs``.

    The price is the cheapest interpretation consistent with §II-C; in
    particular ``price_transition(γ, γ, ·)`` is zero and removing servers is
    always free.
    """
    if old == new:
        return _NO_CHANGE

    old_active = old.active_set
    old_inactive = old.inactive_set
    new_active = new.active_set
    new_inactive = new.inactive_set
    old_occupied = old_active | old_inactive
    new_occupied = new_active | new_inactive

    activations = new_active & old_inactive
    deactivations = new_inactive & old_active
    newcomers = sorted(new_active - old_occupied)
    # A server appearing *inactive* at a fresh node is realised either by
    # creating it there (c) or by migrating a vanishing server there and
    # immediately deactivating it (β + free) — so fresh inactive nodes join
    # the donor matching alongside the active newcomers.
    fresh_inactive = sorted(new_inactive - old_occupied)
    arrivals = newcomers + fresh_inactive
    vanished = sorted(old_occupied - new_occupied)

    if costs.migration_matrix is None:
        if costs.migration <= costs.creation:
            n_migrations = min(len(arrivals), len(vanished))
        else:
            # β > c: migration is never beneficial (§II-C) — always create.
            n_migrations = 0
        n_creations = len(arrivals) - n_migrations
        migration_cost = n_migrations * costs.migration
    else:
        n_migrations, migration_cost = _match_donors(
            arrivals, vanished, costs
        )
        n_creations = len(arrivals) - n_migrations

    return TransitionOutcome(
        migrations=n_migrations,
        creations=n_creations,
        activations=len(activations),
        deactivations=len(deactivations),
        dropped=len(vanished) - n_migrations,
        migration_cost=migration_cost,
        creation_cost=n_creations * costs.creation,
    )


def _match_donors(
    newcomers: list[int], vanished: list[int], costs: CostModel
) -> tuple[int, float]:
    """Cheapest donor→newcomer matching under a migration matrix.

    Each newcomer node is either filled by migrating one vanished server
    (cost ``β(donor, newcomer)``) or created from scratch (cost ``c``). We
    solve the assignment exactly: rows are newcomers, columns are all donors
    plus one private "create" column per newcomer.
    """
    if not newcomers:
        return 0, 0.0
    # Imported here: scipy.optimize costs ~0.2 s to import, and only
    # migration-matrix runs need it.
    from scipy.optimize import linear_sum_assignment

    matrix = np.asarray(costs.migration_matrix)
    n_new, n_don = len(newcomers), len(vanished)
    # Columns: donors, then one creation column per newcomer. A creation
    # column must be usable by exactly one row, hence the +inf off-diagonal.
    cost = np.full((n_new, n_don + n_new), np.inf)
    for i, dst in enumerate(newcomers):
        for j, src in enumerate(vanished):
            cost[i, j] = matrix[src, dst]
        cost[i, n_don + i] = costs.creation
    rows, cols = linear_sum_assignment(cost)

    migrations = 0
    migration_cost = 0.0
    for r, c in zip(rows, cols):
        if c < n_don:
            migrations += 1
            migration_cost += cost[r, c]
    return migrations, float(migration_cost)
