"""Request model: traces of per-round request multisets (§II-D, §II-E).

A round's demand ``σt`` is a multiset of requests, each arriving at an
access-point node. Since all servers host the same service in this model,
a request is fully described by its access point, so a round is simply an
``int64`` array of node indices (duplicates = multiple requests at that
point) and a :class:`Trace` is the whole request sequence.

Materialised traces are what both worlds consume: online algorithms read
them round by round, offline algorithms (OPT, OFFSTAT, OFFBR/OFFTH) get the
whole object — the paper's "demand known ahead of time" standpoint (§IV).

:class:`RequestGenerator` is the protocol every scenario implements;
generators are deterministic given their RNG, so a (seed, scenario) pair
pins the exact trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "Trace",
    "RequestGenerator",
    "RoundIterable",
    "as_trace",
    "generate_trace",
    "stream_rounds",
]


def _npz_path(path: "str | Path") -> Path:
    """``path`` with the ``.npz`` suffix ``np.savez`` would give it anyway.

    ``np.savez`` silently appends ``.npz`` when the suffix is missing, so a
    ``Trace.load`` on the very path the caller passed to ``save`` used to
    fail; normalising in both directions makes the pair symmetric.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


@dataclass(frozen=True)
class Trace:
    """An immutable request sequence: one node-index array per round.

    Attributes:
        rounds: tuple of read-only ``int64`` arrays; ``rounds[t]`` holds the
            access point of every request of round ``t``.
        scenario_name: label of the generating scenario (for reports).
        metadata: scenario parameters recorded for provenance.
    """

    rounds: tuple[np.ndarray, ...]
    scenario_name: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        frozen_rounds = []
        for t, arr in enumerate(self.rounds):
            arr = np.asarray(arr, dtype=np.int64)
            if arr.ndim != 1:
                raise ValueError(f"round {t} must be a 1-D array, got shape {arr.shape}")
            if arr.size and arr.min() < 0:
                raise ValueError(f"round {t} contains negative node indices")
            arr = arr.copy()
            arr.flags.writeable = False
            frozen_rounds.append(arr)
        object.__setattr__(self, "rounds", tuple(frozen_rounds))

    # -- sequence protocol ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rounds)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.rounds)

    def __getitem__(self, t: int) -> np.ndarray:
        return self.rounds[t]

    # -- summary statistics -----------------------------------------------------

    def _memo(self, name: str, compute) -> int:
        """Compute-once statistics on a frozen dataclass.

        ``max_node``/``total_requests`` would otherwise re-scan every round
        on each access; the rounds are immutable, so the first computed
        value is final.
        """
        cached = self.__dict__.get(name)
        if cached is None:
            cached = compute()
            object.__setattr__(self, name, cached)
        return cached

    @property
    def total_requests(self) -> int:
        """Number of requests over the whole trace (computed once)."""
        return self._memo(
            "_total_requests",
            lambda: int(sum(arr.size for arr in self.rounds)),
        )

    @property
    def max_requests_per_round(self) -> int:
        """Largest round size (the demand peak)."""
        return max((arr.size for arr in self.rounds), default=0)

    @property
    def max_node(self) -> int:
        """Largest node index referenced; -1 for an all-empty trace.

        Computed once per trace: the rounds cannot change.
        """
        return self._memo(
            "_max_node",
            lambda: max(
                (int(arr.max()) for arr in self.rounds if arr.size), default=-1
            ),
        )

    def requests_per_round(self) -> np.ndarray:
        """Round-size series, shape ``(len(trace),)``."""
        return np.asarray([arr.size for arr in self.rounds], dtype=np.int64)

    def node_histogram(self, n_nodes: int) -> np.ndarray:
        """Total request count per node over the whole trace.

        One ``np.bincount`` over the concatenated flat request array instead
        of a per-round bincount loop — O(requests + n_nodes) regardless of
        the round count.
        """
        if self.max_node >= n_nodes:
            raise ValueError(
                f"trace references node {self.max_node} >= n_nodes={n_nodes}"
            )
        if not self.rounds:
            return np.zeros(n_nodes, dtype=np.int64)
        flat = np.concatenate(self.rounds)
        return np.bincount(flat, minlength=n_nodes).astype(np.int64, copy=False)

    # -- slicing & composition ----------------------------------------------------

    def window(self, start: int, stop: int) -> "Trace":
        """Sub-trace of rounds ``[start, stop)`` (epoch replay uses this)."""
        if not 0 <= start <= stop <= len(self.rounds):
            raise ValueError(
                f"invalid window [{start}, {stop}) for a {len(self.rounds)}-round trace"
            )
        return Trace(self.rounds[start:stop], self.scenario_name, dict(self.metadata))

    def concat(self, other: "Trace") -> "Trace":
        """Concatenate two traces in time."""
        return Trace(
            self.rounds + other.rounds,
            self.scenario_name or other.scenario_name,
            {**other.metadata, **self.metadata},
        )

    # -- persistence -----------------------------------------------------------

    def save(self, path: "str | Path") -> Path:
        """Serialise to ``.npz`` (flat request array + round offsets + metadata).

        The suffix is normalised to ``.npz`` (matching what ``np.savez``
        writes regardless); the actual path written is returned so callers
        can hand it straight to :meth:`load`.
        """
        path = _npz_path(path)
        flat = (
            np.concatenate([arr for arr in self.rounds])
            if self.rounds
            else np.zeros(0, dtype=np.int64)
        )
        sizes = np.asarray([arr.size for arr in self.rounds], dtype=np.int64)
        header = json.dumps(
            {"scenario_name": self.scenario_name, "metadata": self.metadata}
        )
        np.savez(path, flat=flat, sizes=sizes, header=np.asarray(header))
        return path

    @classmethod
    def load(cls, path: "str | Path") -> "Trace":
        """Load a trace produced by :meth:`save`.

        Accepts the path exactly as the caller passed it to :meth:`save`:
        a missing ``.npz`` suffix is appended when the literal path does not
        exist (mirroring the ``np.savez`` behaviour that appended it on
        write).
        """
        path = Path(path)
        if not path.exists():
            path = _npz_path(path)
        with np.load(path, allow_pickle=False) as data:
            flat = data["flat"]
            sizes = data["sizes"]
            header = json.loads(str(data["header"]))
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        rounds = tuple(
            flat[offsets[i]: offsets[i + 1]] for i in range(sizes.size)
        )
        return cls(rounds, header["scenario_name"], header["metadata"])


@runtime_checkable
class RequestGenerator(Protocol):
    """Protocol for demand scenarios: deterministic trace factories.

    Scenarios may additionally implement an *optional* ``stream(horizon,
    rng)`` method yielding one round array at a time with the exact RNG
    consumption order of ``generate`` — :func:`stream_rounds` prefers it and
    :class:`~repro.traces.StreamingTrace` builds on it to run million-round
    horizons in O(round) memory. Scenarios without ``stream`` still work
    everywhere; the streaming layer falls back to materialising.
    """

    #: Scenario label used in trace metadata and reports.
    scenario_name: str

    def generate(self, horizon: int, rng: np.random.Generator) -> Trace:
        """Produce a ``horizon``-round trace using ``rng`` for all randomness."""


@runtime_checkable
class RoundIterable(Protocol):
    """What the simulator actually consumes: a sized iterable of rounds.

    Both :class:`Trace` (materialised, re-iterable tuple) and
    :class:`~repro.traces.StreamingTrace` (lazy, re-iterable from a stored
    seed) satisfy this; ``scenario_name`` rides along for ledger labels.
    """

    scenario_name: str

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[np.ndarray]: ...


def generate_trace(
    generator: RequestGenerator,
    horizon: int,
    seed: "int | np.random.Generator | None" = None,
) -> Trace:
    """Convenience wrapper: seed handling + sanity checks around ``generate``."""
    from repro.util.rng import ensure_rng

    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    trace = generator.generate(horizon, ensure_rng(seed))
    if len(trace) != horizon:
        raise RuntimeError(
            f"{type(generator).__name__}.generate returned {len(trace)} rounds, "
            f"expected {horizon}"
        )
    return trace


def stream_rounds(
    generator: RequestGenerator, horizon: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Yield ``generator``'s rounds one at a time.

    Uses the scenario's lazy ``stream`` method when it has one (O(round)
    memory); otherwise falls back to materialising the whole trace through
    ``generate`` and iterating it. Either way the yielded rounds are
    bit-identical to ``generate(horizon, rng)`` with the same RNG state —
    stream-capable scenarios implement ``generate`` *in terms of* their
    stream, so the draws happen in the same order.
    """
    stream = getattr(generator, "stream", None)
    if stream is not None:
        yield from stream(horizon, rng)
    else:
        yield from generator.generate(horizon, rng)


def as_trace(rounds: "RoundIterable | Trace") -> Trace:
    """Materialise any round-iterable into a :class:`Trace`.

    A :class:`Trace` passes through unchanged; anything else (e.g. a
    :class:`~repro.traces.StreamingTrace`) is fully iterated — this is the
    O(trace)-memory step offline policies declare they need (see
    :class:`~repro.core.policy.OfflinePolicy`).
    """
    if isinstance(rounds, Trace):
        return rounds
    materialize = getattr(rounds, "materialize", None)
    if materialize is not None:
        return materialize()
    return Trace(
        tuple(rounds),
        scenario_name=getattr(rounds, "scenario_name", ""),
        metadata=dict(getattr(rounds, "metadata", {}) or {}),
    )
