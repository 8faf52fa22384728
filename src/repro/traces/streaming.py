"""Streaming traces: million-round horizons in O(round) memory.

A materialised :class:`~repro.workload.base.Trace` holds every round in
memory, which caps the horizon × substrate size an experiment can afford.
:class:`StreamingTrace` satisfies the same round-iteration protocol the
simulator consumes (``__len__`` + ``__iter__`` + ``scenario_name``) but
produces each round lazily from a stored ``(generator, seed)`` pair:

* every ``iter()`` replays the scenario's ``stream`` from a *fresh* RNG
  seeded with the stored seed, so the object is re-iterable and
  deterministic — all policies of a replicate see identical rounds — and
  holds one round at a time;
* every yielded round passes :func:`~repro.workload.base.check_round`;
* online policies consume the stream directly; offline policies declare
  ``requires_full_trace`` and the simulator materialises for them (see
  :class:`~repro.core.policy.OfflinePolicy`).

:class:`StreamingScenario` lifts any registered scenario into the spec
layer (registered as ``"streaming"``): its ``generate`` and ``stream`` draw
one seed from the shared replicate stream; ``generate`` returns a
:class:`StreamingTrace` (or its materialisation with ``materialize=True``).
Because every variant consumes exactly one draw, a streaming run's ledgers
are bit-identical to its materialised twin — across serial, process-pool
and queue backends.
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from repro.api.registry import register_scenario, resolve_scenario
from repro.workload.base import Scenario, Trace, as_trace, check_round

__all__ = ["StreamingTrace", "StreamingScenario"]


class StreamingTrace:
    """A lazily generated, re-iterable request sequence.

    Args:
        generator: the scenario whose ``stream`` produces the rounds.
        horizon: number of rounds.
        seed: integer seed replayed on every iteration; ``None`` draws one
            from OS entropy *once* so all iterations still agree. A
            stateful ``np.random.Generator`` is rejected — replaying it
            twice would yield different rounds.
        scenario_name: ledger label; defaults to the generator's.
        metadata: provenance mapping; defaults to a small streaming record.
    """

    def __init__(
        self,
        generator: Scenario,
        horizon: int,
        seed: "int | None" = None,
        scenario_name: "str | None" = None,
        metadata: "Mapping | None" = None,
    ) -> None:
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        if isinstance(seed, np.random.Generator):
            raise TypeError(
                "StreamingTrace needs a replayable seed (int or None), not a "
                "stateful Generator: every iteration restarts from the seed"
            )
        if seed is None:
            seed = int(np.random.SeedSequence().generate_state(1)[0])
        self.generator = generator
        self.horizon = int(horizon)
        self.seed = int(seed)
        self.scenario_name = (
            scenario_name
            if scenario_name is not None
            else getattr(generator, "scenario_name", type(generator).__name__)
        )
        self.metadata = (
            dict(metadata)
            if metadata is not None
            else {
                "scenario": "streaming",
                "inner": self.scenario_name,
                "seed": self.seed,
                "horizon": self.horizon,
            }
        )

    def __len__(self) -> int:
        return self.horizon

    def __iter__(self) -> Iterator[np.ndarray]:
        rng = np.random.default_rng(self.seed)
        count = 0
        for arr in self.generator.stream(self.horizon, rng):
            yield check_round(count, arr)
            count += 1
        if count != self.horizon:
            raise RuntimeError(
                f"{type(self.generator).__name__} streamed {count} rounds, "
                f"expected {self.horizon}"
            )

    @property
    def total_requests(self) -> int:
        """Request count over the whole stream (one O(round)-memory pass)."""
        return int(sum(arr.size for arr in self))

    def materialize(self) -> Trace:
        """The equivalent :class:`Trace` — the O(trace)-memory step.

        Offline policies need the full sequence ahead of time; the
        simulator calls this exactly when a policy declares
        ``requires_full_trace``.
        """
        return as_trace(self)

    def __repr__(self) -> str:
        return (
            f"StreamingTrace({self.scenario_name!r}, horizon={self.horizon}, "
            f"seed={self.seed})"
        )


class StreamingScenario(Scenario):
    """A scenario wrapper whose traces stream instead of materialising.

    ``generate`` and ``stream`` consume exactly one integer draw from the
    replicate's shared RNG stream — the :class:`StreamingTrace` seed —
    whether or not ``materialize`` is set. That makes a streaming run and
    its materialised twin (``materialize=True``) bit-identical end to end:
    same trace seed, same downstream policy draws, same ledgers.

    Note the deliberate protocol widening: with ``materialize=False`` (the
    default), ``generate`` returns a :class:`StreamingTrace`, not a
    :class:`Trace`. Everything downstream — ``generate_trace``'s length
    check, the simulator, the metric pipeline — consumes the round-iteration
    protocol only, so the lazy object drops in transparently.
    """

    kind = "streaming"

    def __init__(self, inner: Scenario, materialize: bool = False) -> None:
        self.inner = inner
        self.materialize = bool(materialize)
        self.scenario_name = f"streaming({inner.scenario_name})"

    def _trace(self, horizon: int, rng: np.random.Generator) -> StreamingTrace:
        seed = int(rng.integers(0, np.iinfo(np.int64).max))
        return StreamingTrace(
            self.inner, horizon, seed, scenario_name=self.scenario_name,
            metadata={**self.metadata(), "seed": seed, "horizon": horizon},
        )

    def stream(self, horizon: int, rng: np.random.Generator):
        """The rounds of :meth:`generate`'s trace (the seed is drawn now)."""
        return iter(self._trace(horizon, rng))

    def generate(self, horizon: int, rng: np.random.Generator):
        """A :class:`StreamingTrace` (or its materialisation) for ``horizon``."""
        trace = self._trace(horizon, rng)
        return as_trace(trace) if self.materialize else trace

    def metadata(self) -> dict:
        """The kind plus the wrapped scenario's metadata."""
        return {"scenario": self.kind, "inner": self.inner.metadata()}

    def __repr__(self) -> str:
        return (
            f"StreamingScenario({self.inner!r}, materialize={self.materialize})"
        )


def _inner_spec(scenario: str = "commuter", params=None,
                materialize: bool = False, **inline) -> "tuple[str, dict]":
    """The wrapped scenario's kind and keyword arguments, from the
    ``streaming`` parameters: ``params`` or the inline keywords, never both,
    then dotted ``params.X`` keywords overriding single entries."""
    overrides = {
        key[len("params."):]: inline.pop(key)
        for key in list(inline)
        if key.startswith("params.")
    }
    if params and inline:
        raise ValueError(
            "pass the wrapped scenario's parameters either via params= or "
            "inline, not both"
        )
    return scenario, {**(params or inline), **overrides}


@register_scenario("streaming")
def streaming(substrate, scenario: str = "commuter", params=None,
              materialize: bool = False, **inner_params):
    """Registry factory: stream any registered scenario.

    ``scenario`` names the wrapped scenario; its parameters go in
    ``params`` (a mapping, JSON-safe for specs) or directly as extra
    keyword arguments (convenient from the CLI:
    ``--scenario streaming:scenario=commuter,sojourn=5``).
    ``materialize=True`` generates the identical trace eagerly — the knob
    the bit-identity tests and benchmarks flip.

    Dotted ``params.X`` keyword arguments override individual entries of
    ``params``; that is what a sweep over ``scenario.params.sojourn``
    substitutes, so the wrapped scenario's knobs stay sweepable through
    the wrapper.
    """
    kind, inner_kwargs = _inner_spec(scenario, params, **inner_params)
    inner = resolve_scenario(kind)(substrate, **inner_kwargs)
    return StreamingScenario(inner, materialize=materialize)


def _streaming_fingerprint(params) -> "dict | list | None":
    """Delegate content identity to the wrapped scenario (replay files)."""
    from repro.api.cache import scenario_content_fingerprint

    try:
        kind, inner_kwargs = _inner_spec(**params)
    except ValueError:
        return None  # the malformed spec fails loudly at build time instead
    return scenario_content_fingerprint(kind, inner_kwargs)


streaming.content_fingerprint = _streaming_fingerprint
