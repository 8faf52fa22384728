"""Server configurations (Definition 3.1).

A configuration describes, for each virtual server, whether it is *not in
use*, *inactive* or *active*, and where the in-use servers are located. We
represent a configuration by the set of nodes hosting active servers plus an
ordered tuple of nodes hosting inactive servers; the order is the FIFO age
order of the inactive-server cache (oldest first), which matters because the
ONBR/ONTH queues replace the oldest inactive server first (§III-A).

Configurations are immutable and hashable: ONCONF keeps a counter per
configuration and OPT indexes its dynamic-programming table by them.

The model allows at most one server per node — migrating a server to a node
leaves the origin empty (§II-C), so co-locating servers is never useful and
the class rejects it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["Configuration"]


@dataclass(frozen=True)
class Configuration:
    """An immutable placement of active and inactive servers.

    Attributes:
        active: sorted tuple of node indices hosting *active* servers.
        inactive: tuple of node indices hosting *inactive* servers in FIFO
            age order, oldest first. Not sorted — order is semantic.
    """

    active: tuple[int, ...] = ()
    inactive: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        active = tuple(sorted(int(v) for v in self.active))
        inactive = tuple(int(v) for v in self.inactive)
        object.__setattr__(self, "active", active)
        object.__setattr__(self, "inactive", inactive)
        if len(set(active)) != len(active):
            raise ValueError(f"duplicate active server nodes in {active}")
        if len(set(inactive)) != len(inactive):
            raise ValueError(f"duplicate inactive server nodes in {inactive}")
        overlap = set(active) & set(inactive)
        if overlap:
            raise ValueError(
                f"nodes {sorted(overlap)} host both an active and an inactive server"
            )
        if any(v < 0 for v in active + inactive):
            raise ValueError("node indices must be non-negative")

    # -- constructors -----------------------------------------------------------

    @classmethod
    def of(
        cls,
        active: Iterable[int] = (),
        inactive: Iterable[int] = (),
    ) -> "Configuration":
        """Build a configuration from any iterables of node indices."""
        return cls(tuple(active), tuple(inactive))

    @classmethod
    def single(cls, node: int) -> "Configuration":
        """One active server at ``node`` — the paper's canonical start state."""
        return cls((int(node),))

    @classmethod
    def empty(cls) -> "Configuration":
        """No servers at all (every server 'not in use')."""
        return cls()

    # -- queries ----------------------------------------------------------------

    @property
    def active_set(self) -> frozenset[int]:
        """Active server nodes as a frozenset (for set algebra)."""
        return frozenset(self.active)

    @property
    def inactive_set(self) -> frozenset[int]:
        """Inactive server nodes as a frozenset."""
        return frozenset(self.inactive)

    @property
    def n_active(self) -> int:
        """Number of active servers (``kcur`` in §III)."""
        return len(self.active)

    @property
    def n_inactive(self) -> int:
        """Number of inactive servers."""
        return len(self.inactive)

    @property
    def n_servers(self) -> int:
        """Total number of in-use servers (active + inactive)."""
        return len(self.active) + len(self.inactive)

    @property
    def occupied(self) -> frozenset[int]:
        """All nodes hosting any server."""
        return frozenset(self.active) | frozenset(self.inactive)

    @property
    def active_array(self) -> np.ndarray:
        """The active nodes as a read-only int64 array (cached).

        The simulator routes every round against the active set; caching the
        conversion on the frozen instance means a configuration held across
        an epoch pays it once instead of once per round.
        """
        arr = self.__dict__.get("_active_array")
        if arr is None:
            arr = np.asarray(self.active, dtype=np.int64)
            arr.flags.writeable = False
            object.__setattr__(self, "_active_array", arr)
        return arr

    def hosts_active(self, node: int) -> bool:
        """True when ``node`` hosts an active server."""
        return node in self.active_set

    # -- functional updates (return new configurations) --------------------------

    def move_active(self, src: int, dst: int) -> "Configuration":
        """Relocate the active server at ``src`` to the unoccupied node ``dst``."""
        if src == dst:
            return self
        if src not in self.active_set:
            raise ValueError(f"node {src} hosts no active server")
        if dst in self.occupied:
            raise ValueError(f"node {dst} already hosts a server")
        moved = tuple(v for v in self.active if v != src) + (dst,)
        return Configuration(moved, self.inactive)

    def replace_inactive(self, inactive: Iterable[int]) -> "Configuration":
        """Return a copy with the inactive queue replaced (FIFO order kept)."""
        return Configuration(self.active, tuple(inactive))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Configuration(active={list(self.active)}, inactive={list(self.inactive)})"
