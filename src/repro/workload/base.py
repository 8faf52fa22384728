"""Request model: traces of per-round request multisets (§II-D, §II-E).

A round's demand ``σt`` is a multiset of requests, each arriving at an
access-point node. Since all servers host the same service in this model,
a request is fully described by its access point, so a round is simply an
``int64`` array of node indices (duplicates = multiple requests at that
point) and a :class:`Trace` is the whole request sequence.
:func:`check_round` is the one definition of a valid round; ``Trace``,
:class:`~repro.traces.StreamingTrace` and the simulator's streamed loop all
call it.

Materialised traces are what both worlds consume: online algorithms read
them round by round, offline algorithms (OPT, OFFSTAT, OFFBR/OFFTH) get the
whole object — the paper's "demand known ahead of time" standpoint (§IV).

A scenario subclasses :class:`Scenario` and implements only
``stream(horizon, rng)``, yielding one round at a time; the base class
derives ``generate`` (the materialised :class:`Trace`) and ``metadata``
from it. Scenarios are deterministic given their RNG, so a (seed,
scenario) pair pins the exact trace, streamed or materialised.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterator, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "Trace",
    "Scenario",
    "RequestGenerator",
    "RoundIterable",
    "as_trace",
    "check_round",
    "generate_trace",
    "stream_rounds",
]


def check_round(t: int, requests) -> np.ndarray:
    """Round ``t``'s requests as a 1-D ``int64`` node-index array.

    The one definition of a valid round: a 1-D array (or list) of
    whole-number, non-negative node indices. Integral floats such as
    ``1.0`` are accepted; booleans, fractions and non-finite values raise
    instead of being truncated into node indices. The substrate's upper
    bound is checked where its size is known (the simulator and
    :class:`~repro.core.batch.DistanceGather`, which maps every request
    through a per-node table).

    Raises:
        ValueError: naming round ``t`` when its requests are not valid.
    """
    arr = np.asarray(requests)
    if arr.ndim != 1:
        raise ValueError(f"round {t} must be a 1-D array, got shape {arr.shape}")
    if arr.dtype.kind not in "iu" and not (
        arr.dtype.kind == "f"
        and np.isfinite(arr).all()
        and (arr == np.floor(arr)).all()
    ):
        raise ValueError(
            f"round {t} must hold whole-number node indices, got "
            f"{arr.dtype} values {arr[:8].tolist()}"
        )
    arr = arr.astype(np.int64, copy=False)
    if arr.size and arr.min() < 0:
        raise ValueError(f"round {t} references negative node {int(arr.min())}")
    return arr


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
            arr = check_round(t, arr).copy()
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


class Scenario(ABC):
    """A demand scenario: subclasses implement :meth:`stream`, nothing else.

    ``stream(horizon, rng)`` yields ``horizon`` rounds, drawing every random
    number from ``rng``; :meth:`generate` materialises exactly those rounds
    and :meth:`metadata` records the provenance, so a streamed run and its
    materialised twin are bit-identical by construction.

    Attributes:
        kind: the scenario's registry name, recorded as
            ``metadata()["scenario"]``.
        scenario_name: per-instance label for traces and reports.
    """

    kind: str = ""
    scenario_name: str = ""

    @abstractmethod
    def stream(self, horizon: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
        """Yield ``horizon`` rounds lazily, using ``rng`` for all randomness."""

    def metadata(self) -> dict:
        """``{"scenario": kind, **constructor fields, "substrate": name}``.

        The default reads the dataclass fields set at construction; the
        substrate is recorded by name. Scenarios built on other scenarios
        or on files override it.
        """
        params = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.init and f.name != "substrate"
        }
        return {"scenario": self.kind, **params, "substrate": self.substrate.name}

    def generate(self, horizon: int, rng: np.random.Generator) -> Trace:
        """The ``horizon``-round :class:`Trace` of :meth:`stream`."""
        return Trace(
            tuple(self.stream(horizon, rng)),
            scenario_name=self.scenario_name,
            metadata=self.metadata(),
        )


#: Another name for :class:`Scenario`, kept for existing imports.
RequestGenerator = Scenario


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
    generator: Scenario,
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
    generator: Scenario, horizon: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Yield ``generator``'s rounds one at a time, in O(round) memory.

    The same rounds ``generator.generate(horizon, rng)`` materialises from
    the same RNG state.
    """
    yield from generator.stream(horizon, rng)


def as_trace(rounds: "RoundIterable | Trace") -> Trace:
    """Materialise any round-iterable into a :class:`Trace`.

    A :class:`Trace` passes through unchanged; anything else (e.g. a
    :class:`~repro.traces.StreamingTrace`) is fully iterated — this is the
    O(trace)-memory step offline policies declare they need (see
    :class:`~repro.core.policy.OfflinePolicy`).
    """
    if isinstance(rounds, Trace):
        return rounds
    return Trace(
        tuple(rounds),
        scenario_name=getattr(rounds, "scenario_name", ""),
        metadata=dict(getattr(rounds, "metadata", {}) or {}),
    )
