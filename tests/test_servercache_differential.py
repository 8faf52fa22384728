"""The inactive-server cache against the ``(node, age)`` list it replaced.

:class:`~repro.core.servercache.InactiveServerCache` stores each entry's
birth epoch and expires a prefix of its FIFO queue. The reference below is
the earlier implementation, which aged every entry on every tick. Random
operation sequences must give both the same return values, nodes, length
and membership after every step.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.servercache import InactiveServerCache

NODES = 8


class AgeListCache:
    """The earlier cache: a list of ``(node, age)`` pairs, oldest first."""

    def __init__(self, max_size, expiry_epochs):
        self._max_size = max_size
        self._expiry = expiry_epochs
        self._entries = []

    @property
    def nodes(self):
        return tuple(node for node, _age in self._entries)

    def __len__(self):
        return len(self._entries)

    def __contains__(self, node):
        return any(node == entry for entry, _age in self._entries)

    def push(self, node):
        if node in self:
            raise ValueError(f"node {node} is already in the inactive cache")
        evicted = None
        if len(self._entries) >= self._max_size:
            evicted, _age = self._entries.pop(0)
        self._entries.append((int(node), 0))
        return evicted

    def pop_oldest(self):
        if not self._entries:
            return None
        node, _age = self._entries.pop(0)
        return node

    def remove(self, node):
        for i, (entry, _age) in enumerate(self._entries):
            if entry == node:
                del self._entries[i]
                return True
        return False

    def tick_epoch(self):
        aged = [(node, age + 1) for node, age in self._entries]
        expired = [node for node, age in aged if age >= self._expiry]
        self._entries = [(node, age) for node, age in aged if age < self._expiry]
        return expired

    def clear(self):
        self._entries.clear()


node = st.integers(0, NODES - 1)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), node),
        st.tuples(st.just("pop_oldest")),
        st.tuples(st.just("remove"), node),
        st.tuples(st.just("tick_epoch")),
        st.tuples(st.just("tick_epoch")),
        st.tuples(st.just("clear")),
    ),
    max_size=60,
)


def apply(cache, operation):
    name, *args = operation
    try:
        return getattr(cache, name)(*args)
    except ValueError as error:
        return ("ValueError", str(error))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), operations)
# Entries born in one epoch expire in one tick: the expired prefix is > 1.
@example(3, 2, [("push", 1), ("push", 2), ("tick_epoch",), ("tick_epoch",)])
def test_matches_the_age_list_cache(max_size, expiry, ops):
    cache = InactiveServerCache(max_size, expiry)
    reference = AgeListCache(max_size, expiry)
    for operation in ops:
        assert apply(cache, operation) == apply(reference, operation), operation
        assert cache.nodes == reference.nodes
        assert len(cache) == len(reference)
        for v in range(NODES):
            assert (v in cache) == (v in reference)
