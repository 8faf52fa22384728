"""Request model: traces of per-round request multisets (§II-D, §II-E).

A round's demand ``σt`` is a multiset of requests, each arriving at an
access-point node. Since all servers host the same service in this model,
a request is fully described by its access point, so a round is simply an
``int64`` array of node indices (duplicates = multiple requests at that
point) and a :class:`Trace` is the whole request sequence.
:func:`check_round` is the one definition of a valid round; ``Trace``
applies it in bulk, :class:`~repro.traces.StreamingTrace` and the
simulator's streamed loop round by round. A ``Trace`` stores its requests
in one flat read-only array, and its rounds are views into it.

Materialised traces are what both worlds consume: online algorithms read
them round by round, offline algorithms (OPT, OFFSTAT, OFFBR/OFFTH) get the
whole object — the paper's "demand known ahead of time" standpoint (§IV).

A scenario subclasses :class:`Scenario` and implements only
``stream(horizon, rng)``, yielding one round at a time; the base class
derives ``generate`` (the materialised :class:`Trace`) and ``metadata``
from it. Scenarios are deterministic given their RNG, so a (seed,
scenario) pair pins the exact trace, streamed or materialised. Streams
that draw access points every round use :func:`draw_uniform` and
:class:`WeightedDraw`, which give ``Generator.choice``'s values and
generator state without its per-call overhead.
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
    "WeightedDraw",
    "as_trace",
    "check_round",
    "draw_uniform",
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


def _flatten_rounds(rounds) -> "tuple[np.ndarray, np.ndarray]":
    """``rounds`` checked and joined: one ``int64`` request array and its offsets.

    The bulk form of :func:`check_round`: integer rounds pass a per-round
    ``ndim``/dtype test, are joined by one concatenation and checked for
    negative nodes in one pass; any other round goes through
    :func:`check_round` itself (which converts integral floats). A bad
    trace raises :func:`check_round`'s message for its first bad round.
    """
    arrays = []
    for t, requests in enumerate(rounds):
        arr = np.asarray(requests)
        if arr.ndim != 1 or arr.dtype.kind not in "iu":
            try:
                arr = check_round(t, arr)
            except ValueError:
                for s, earlier in enumerate(arrays):  # an earlier round fails first
                    check_round(s, earlier)
                raise
        arrays.append(arr)
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum([arr.size for arr in arrays], out=offsets[1:])
    flat = (
        np.concatenate(arrays, dtype=np.int64, casting="unsafe")
        if arrays
        else np.zeros(0, dtype=np.int64)
    )
    if flat.size and flat.min() < 0:
        t = int(np.searchsorted(offsets, np.argmax(flat < 0), side="right")) - 1
        check_round(t, flat[offsets[t] : offsets[t + 1]])
    return flat, offsets


@dataclass(frozen=True)
class Trace:
    """An immutable request sequence: one node-index array per round.

    The requests are stored flat: :attr:`flat` holds every request of the
    trace in round order and round ``t`` is ``flat[offsets[t]:offsets[t+1]]``.
    Both arrays are read-only, and so is every round, a view into
    :attr:`flat` that cannot be made writeable. The rounds given to the
    constructor are checked by :func:`check_round`'s rule in bulk and
    copied once, into :attr:`flat`.

    Attributes:
        rounds: tuple of read-only ``int64`` views; ``rounds[t]`` holds the
            access point of every request of round ``t``.
        scenario_name: label of the generating scenario (for reports).
        metadata: scenario parameters recorded for provenance.
        flat: every request of the trace, shape ``(total_requests,)``.
        offsets: round boundaries in :attr:`flat`, shape ``(len + 1,)``.
    """

    rounds: tuple[np.ndarray, ...]
    scenario_name: str = ""
    metadata: dict = field(default_factory=dict)
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._store(*_flatten_rounds(self.rounds))

    @classmethod
    def _from_flat(
        cls, flat: np.ndarray, offsets: np.ndarray, scenario_name: str, metadata: dict
    ) -> "Trace":
        """A trace over already checked ``flat``/``offsets`` (no copy when read-only)."""
        trace = object.__new__(cls)
        object.__setattr__(trace, "scenario_name", scenario_name)
        object.__setattr__(trace, "metadata", metadata)
        trace._store(flat, offsets)
        return trace

    def _store(self, flat: np.ndarray, offsets: np.ndarray) -> None:
        if flat.flags.writeable:
            flat.flags.writeable = False
            flat = flat[:]  # a view of a read-only base stays read-only
        if offsets.flags.writeable:
            offsets.flags.writeable = False
            offsets = offsets[:]
        bounds = offsets.tolist()
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(
            self,
            "rounds",
            tuple([flat[a:b] for a, b in zip(bounds[:-1], bounds[1:])]),
        )

    def __getattr__(self, name: str):
        # Reached only when ``flat``/``offsets`` were never stored: a trace
        # made without ``__init__`` (hand-built or corrupt data). Its rounds
        # are joined unchecked, so the gather's own checks still see them.
        if name not in ("flat", "offsets") or "rounds" not in self.__dict__:
            raise AttributeError(name)
        rounds = self.rounds
        offsets = np.zeros(len(rounds) + 1, dtype=np.int64)
        np.cumsum([len(r) for r in rounds], out=offsets[1:])
        flat = np.concatenate(rounds) if rounds else np.zeros(0, dtype=np.int64)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "offsets", offsets)
        return self.__dict__[name]

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

        The rounds are immutable, so the first computed value is final.
        """
        cached = self.__dict__.get(name)
        if cached is None:
            cached = compute()
            object.__setattr__(self, name, cached)
        return cached

    @property
    def total_requests(self) -> int:
        """Number of requests over the whole trace (computed once)."""
        return self._memo("_total_requests", lambda: int(self.flat.size))

    @property
    def max_requests_per_round(self) -> int:
        """Largest round size (the demand peak)."""
        return int(self.requests_per_round().max(initial=0))

    @property
    def max_node(self) -> int:
        """Largest node index referenced; -1 for an all-empty trace.

        Computed once per trace: the rounds cannot change.
        """
        return self._memo(
            "_max_node", lambda: int(self.flat.max()) if self.flat.size else -1
        )

    def requests_per_round(self) -> np.ndarray:
        """Round-size series, shape ``(len(trace),)``."""
        return np.diff(self.offsets)

    def node_histogram(self, n_nodes: int) -> np.ndarray:
        """Total request count per node over the whole trace.

        One ``np.bincount`` over :attr:`flat` — O(requests + n_nodes)
        regardless of the round count.
        """
        if self.max_node >= n_nodes:
            raise ValueError(
                f"trace references node {self.max_node} >= n_nodes={n_nodes}"
            )
        return np.bincount(self.flat, minlength=n_nodes).astype(np.int64, copy=False)

    # -- slicing & composition ----------------------------------------------------

    def window(self, start: int, stop: int) -> "Trace":
        """Sub-trace of rounds ``[start, stop)`` (epoch replay uses this).

        Shares this trace's :attr:`flat`; nothing is copied.
        """
        if not 0 <= start <= stop <= len(self.rounds):
            raise ValueError(
                f"invalid window [{start}, {stop}) for a {len(self.rounds)}-round trace"
            )
        first, last = self.offsets[start], self.offsets[stop]
        return Trace._from_flat(
            self.flat[first:last],
            self.offsets[start : stop + 1] - first,
            self.scenario_name,
            dict(self.metadata),
        )

    def concat(self, other: "Trace") -> "Trace":
        """Concatenate two traces in time."""
        return Trace._from_flat(
            np.concatenate((self.flat, other.flat)),
            np.concatenate((self.offsets, other.offsets[1:] + self.offsets[-1])),
            self.scenario_name or other.scenario_name,
            {**other.metadata, **self.metadata},
        )

    # -- persistence -----------------------------------------------------------

    def save(self, path: "str | Path") -> Path:
        """Serialise to ``.npz`` (flat request array + round sizes + metadata).

        The suffix is normalised to ``.npz`` (matching what ``np.savez``
        writes regardless); the actual path written is returned so callers
        can hand it straight to :meth:`load`.
        """
        path = _npz_path(path)
        header = json.dumps(
            {"scenario_name": self.scenario_name, "metadata": self.metadata}
        )
        np.savez(
            path,
            flat=self.flat,
            sizes=self.requests_per_round(),
            header=np.asarray(header),
        )
        return path

    @classmethod
    def load(cls, path: "str | Path") -> "Trace":
        """Load a trace produced by :meth:`save`.

        Accepts the path exactly as the caller passed it to :meth:`save`:
        a missing ``.npz`` suffix is appended when the literal path does not
        exist (mirroring the ``np.savez`` behaviour that appended it on
        write). The file's rounds are checked like any others.
        """
        path = Path(path)
        if not path.exists():
            path = _npz_path(path)
        with np.load(path, allow_pickle=False) as data:
            flat = data["flat"]
            sizes = data["sizes"]
            header = json.loads(str(data["header"]))
        bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
        rounds = tuple(flat[a:b] for a, b in zip(bounds[:-1], bounds[1:]))
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


def draw_uniform(
    rng: np.random.Generator, a: np.ndarray, size: "int | None" = None
) -> np.ndarray:
    """``rng.choice(a, size)`` with replacement, minus its per-call checks.

    ``Generator.choice`` draws the same ``integers(0, len(a), size)``, so
    the values and the generator's state afterwards are the same.
    """
    return a[rng.integers(0, len(a), size=size)]


class WeightedDraw:
    """``rng.choice(a, size, p=p)`` with the cumulative weights built once.

    ``Generator.choice`` normalises ``p.cumsum()`` by its last entry and
    searches ``random(size)`` in it on every call. Building that ``cdf``
    once per weight vector gives the same values and the same generator
    state afterwards, without the per-call checks and cumsum.
    """

    def __init__(self, a: np.ndarray, p: np.ndarray) -> None:
        self.a = np.asarray(a)
        self.cdf = np.asarray(p, dtype=np.float64).cumsum()
        self.cdf /= self.cdf[-1]

    def __call__(
        self, rng: np.random.Generator, size: "int | None" = None
    ) -> np.ndarray:
        return self.a[self.cdf.searchsorted(rng.random(size), side="right")]


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
