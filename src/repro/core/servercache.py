"""The inactive-server cache of §III: a bounded FIFO queue with expiry.

ONBR and ONTH manage deactivated servers in a constant-size queue (size 3 in
the paper's simulations): the oldest inactive server is replaced first, an
inactive server expires after ``x`` epochs (x = 20 in the paper), and when a
new server is needed at an empty node the oldest cache entry is the donor
that gets migrated there.

Ageing is driven by the owning policy calling :meth:`tick_epoch` at its
epoch boundaries. The cache counts those ticks and stores each entry's
birth tick, so an entry's age is the difference. Entries only ever join at
the back, so births never decrease along the queue: the expired entries
are always a prefix, and a tick that expires nothing is O(1).
"""

from __future__ import annotations

from repro.util.validation import check_positive_int

__all__ = ["InactiveServerCache"]


class InactiveServerCache:
    """Bounded FIFO cache of inactive servers with epoch-based expiry.

    Args:
        max_size: queue capacity; pushing to a full queue drops the oldest
            entry (that server leaves use).
        expiry_epochs: entries older than this many epochs are dropped by
            :meth:`tick_epoch`.
    """

    def __init__(self, max_size: int = 3, expiry_epochs: int = 20) -> None:
        self._max_size = check_positive_int("max_size", max_size)
        self._expiry = check_positive_int("expiry_epochs", expiry_epochs)
        self._nodes: tuple[int, ...] = ()  # oldest first
        self._births: list[int] = []  # tick at which each entry joined
        self._epoch = 0

    # -- queries ----------------------------------------------------------------

    @property
    def max_size(self) -> int:
        """Queue capacity."""
        return self._max_size

    @property
    def expiry_epochs(self) -> int:
        """Number of epochs after which an entry expires."""
        return self._expiry

    @property
    def nodes(self) -> tuple[int, ...]:
        """Cached server nodes, oldest first (the FIFO order)."""
        return self._nodes

    @property
    def ages(self) -> tuple[int, ...]:
        """Each entry's age in epoch ticks, aligned with :attr:`nodes`."""
        return tuple(self._epoch - birth for birth in self._births)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: int) -> bool:
        return node in self._nodes

    # -- mutations ----------------------------------------------------------------

    def push(self, node: int) -> "int | None":
        """Add a freshly deactivated server at ``node``.

        Returns the node of the *evicted* oldest entry when the queue was
        full, else ``None``. Pushing a node already cached is rejected: a
        node hosts at most one server.
        """
        if node in self._nodes:
            raise ValueError(f"node {node} is already in the inactive cache")
        evicted = None
        if len(self._nodes) >= self._max_size:
            evicted = self.pop_oldest()
        self._nodes += (int(node),)
        self._births.append(self._epoch)
        return evicted

    def pop_oldest(self) -> "int | None":
        """Remove and return the oldest cached node (migration donor), or None."""
        if not self._nodes:
            return None
        node = self._nodes[0]
        self._nodes = self._nodes[1:]
        del self._births[0]
        return node

    def remove(self, node: int) -> bool:
        """Consume the entry at ``node`` (in-place activation). True if found."""
        if node not in self._nodes:
            return False
        i = self._nodes.index(node)
        self._nodes = self._nodes[:i] + self._nodes[i + 1 :]
        del self._births[i]
        return True

    def tick_epoch(self) -> list[int]:
        """Age every entry by one epoch; return the nodes that expired."""
        self._epoch += 1
        births = self._births
        if not births or self._epoch - births[0] < self._expiry:
            return []
        oldest_kept = self._epoch - self._expiry  # born after this tick
        gone = 1
        while gone < len(births) and births[gone] <= oldest_kept:
            gone += 1
        expired = list(self._nodes[:gone])
        self._nodes = self._nodes[gone:]
        del births[:gone]
        return expired

    def clear(self) -> None:
        """Drop every entry (all cached servers leave use)."""
        self._nodes = ()
        self._births.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InactiveServerCache(nodes={list(self.nodes)}, max_size={self._max_size})"
