"""Composing demand scenarios: overlays and time-phased mixtures.

Real services rarely see one clean pattern; §II-D's sources of dynamics
(time-zone effects *and* user mobility) coexist. These combinators build
richer demand out of the primitive generators without touching them:

* :class:`OverlayScenario` — the union of several generators' rounds
  (e.g. a commuter surge *on top of* diffuse background traffic);
* :class:`PhasedScenario` — switch generators at fixed round boundaries
  (e.g. a flash-crowd regime between two quiet regimes), for studying how
  quickly the online algorithms re-converge after a regime change.

Both are :class:`~repro.workload.base.Scenario` subclasses that compose
their parts' ``stream`` methods once; ``generate`` comes from the base
class, so they nest recursively and run through ``generate_trace`` like any
primitive scenario. Each overrides only ``metadata``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.api.registry import register_scenario
from repro.workload.base import Scenario

__all__ = ["OverlayScenario", "PhasedScenario", "overlay"]


@dataclass
class OverlayScenario(Scenario):
    """Union of several scenarios' demand, round by round.

    Args:
        parts: the scenarios to overlay (at least one). Each receives its
            own independent child RNG spawned from the overlay's, so an
            overlay is reproducible and its parts are decoupled.
    """

    kind = "overlay"

    parts: Sequence[Scenario]
    scenario_name: str = field(init=False)

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("OverlayScenario needs at least one part")
        names = "+".join(p.scenario_name for p in self.parts)
        self.scenario_name = f"overlay({names})"

    def stream(self, horizon: int, rng: np.random.Generator):
        """Yield overlaid rounds lazily, one round per part in memory.

        Each part streams against its own spawned child generator, so the
        parts are decoupled: adding one leaves the others' rounds unchanged.
        """
        children = rng.spawn(len(self.parts))
        streams = [
            part.stream(horizon, child)
            for part, child in zip(self.parts, children)
        ]
        for per_part in zip(*streams):
            yield np.concatenate(per_part)

    def metadata(self) -> dict:
        """The kind plus every part's own metadata."""
        return {
            "scenario": self.kind,
            "parts": [part.metadata() for part in self.parts],
        }


@dataclass
class PhasedScenario(Scenario):
    """Sequential regimes: one generator per time segment.

    Args:
        phases: (duration_rounds, scenario) pairs; the final phase absorbs
            any remaining horizon, and generation stops early if the horizon
            ends sooner.
    """

    kind = "phased"

    phases: Sequence[tuple[int, Scenario]]
    scenario_name: str = field(init=False)

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("PhasedScenario needs at least one phase")
        for duration, _part in self.phases:
            if duration < 1:
                raise ValueError(f"phase durations must be >= 1, got {duration}")
        names = ",".join(f"{d}x{p.scenario_name}" for d, p in self.phases)
        self.scenario_name = f"phased({names})"

    def stream(self, horizon: int, rng: np.random.Generator):
        """Yield phased rounds lazily, each phase from its own child RNG."""
        children = rng.spawn(len(self.phases))
        remaining = horizon
        for i, ((duration, part), child) in enumerate(zip(self.phases, children)):
            if remaining <= 0:
                break
            is_last = i == len(self.phases) - 1
            span = remaining if is_last else min(duration, remaining)
            yield from part.stream(span, child)
            remaining -= span

    def metadata(self) -> dict:
        """The kind plus the phase durations."""
        return {"scenario": self.kind, "phases": [d for d, _p in self.phases]}


def _part_spec(part) -> "tuple[str, dict]":
    """Normalise one ``overlay`` part param: ``"kind"`` or ``{kind, params}``."""
    if isinstance(part, str):
        return part, {}
    if isinstance(part, Mapping):
        extra = sorted(set(part) - {"kind", "params"})
        if "kind" not in part or extra:
            raise ValueError(
                f"overlay part {dict(part)!r} must be {{'kind': ..., "
                f"'params': {{...}}}}; unknown keys {extra}"
            )
        return str(part["kind"]), dict(part.get("params") or {})
    raise ValueError(
        f"overlay part must be a scenario name or a kind/params mapping, "
        f"got {part!r}"
    )


@register_scenario("overlay")
def overlay(substrate, parts=()):
    """Layer registered scenarios from a spec: ``overlay`` as a factory.

    ``parts`` is a sequence of scenario names or ``{"kind": ..., "params":
    {...}}`` mappings (JSON-safe, so an overlay is expressible as a
    :class:`~repro.api.specs.ScenarioSpec` and from the CLI). Each part is
    resolved through the scenario registry and built on ``substrate``; the
    result is an :class:`OverlayScenario`, so bursty arrival processes layer
    onto the commuter/time-zone generators declaratively::

        ScenarioSpec("overlay", {"parts": [
            {"kind": "commuter", "params": {"sojourn": 10}},
            {"kind": "flashcrowd", "params": {"peak": 60}},
        ]})
    """
    from repro.api.registry import resolve_scenario

    if isinstance(parts, str):
        raise ValueError(
            f"overlay parts must be a list, e.g. parts=[{parts}]; got the string {parts!r}"
        )
    specs = [_part_spec(part) for part in parts]
    if not specs:
        raise ValueError("overlay needs at least one part scenario")
    return OverlayScenario(
        [resolve_scenario(kind)(substrate, **params) for kind, params in specs]
    )


def _overlay_fingerprint(params) -> "list | None":
    """Delegate content fingerprints to file-backed parts (e.g. replay)."""
    from repro.api.cache import scenario_content_fingerprint

    extras = []
    for part in params.get("parts", ()) or ():
        try:
            kind, part_params = _part_spec(part)
        except ValueError:
            continue  # a malformed spec fails loudly at build time instead
        entry = scenario_content_fingerprint(kind, part_params)
        if entry is not None:
            extras.append(entry)
    return extras or None


overlay.content_fingerprint = _overlay_fingerprint
