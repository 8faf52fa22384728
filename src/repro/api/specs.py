"""Declarative experiment descriptions: a run as plain, JSON-safe data.

A spec describes *what* to run — which topology, which demand scenario,
which policies, which cost constants — without any code. Specs are frozen
dataclasses that

* resolve their ``kind`` names through the :mod:`repro.api.registry`
  registries when built,
* round-trip losslessly through plain dicts (``to_dict`` / ``from_dict``)
  whose contents are JSON-safe (numbers, strings, bools, lists), and
* are picklable, so a parallel backend can ship them to worker processes.

The composition is::

    ExperimentSpec            one replicate: topology + scenario + policies
      ├─ TopologySpec           e.g. ("erdos_renyi", {"n": 200})
      ├─ ScenarioSpec           e.g. ("commuter", {"sojourn": 10})
      ├─ PolicySpec ×k          e.g. ("onth", {}, label="ONTH")
      │    └─ optional per-policy CostSpec / ScenarioSpec / routing overrides
      ├─ CostSpec               β, c, Ra, Ri, load model
      └─ MetricSpec ×m          e.g. ("cost_ratio_vs", {"reference": "OPT"})
    SweepSpec                 parameter(s) swept over an ExperimentSpec

A policy entry may override the experiment's cost regime, demand scenario
or routing (``PolicySpec(..., costs=..., scenario=..., routing=...)``),
which is how the paper's two-regime ratio figures (β<c vs β>c on one shared
trace), multi-scenario comparisons (Figure 11) and the routing ablation are
expressed as one spec. Metrics turn the replicate's full per-policy ledgers
into named result series; the default ``total_cost`` metric reproduces the
historical per-policy totals.

Execution lives in :mod:`repro.api.experiment`
(:func:`~repro.api.experiment.run_experiment`,
:func:`~repro.api.experiment.run_sweep`).
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import re
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping, Sequence

import numpy as np

# CI_METHODS / COMPARISON_MODES are the single source of truth for interval
# estimator and paired-comparison mode names: a ReplicationSpec or
# ComparisonSpec (and the CLI's --ci-method / --compare-mode) accepts exactly
# what repro.analysis.stats implements.
from repro.analysis.stats import CI_METHODS, COMPARISON_MODES
from repro.api.registry import (
    resolve_metric,
    resolve_policy,
    resolve_scenario,
    resolve_topology,
)
from repro.core.costs import CostModel, bandwidth_migration_matrix
from repro.core.load import LinearLoad, LoadFunction, PowerLoad, QuadraticLoad
from repro.core.routing import RoutingStrategy

__all__ = [
    "TopologySpec",
    "ScenarioSpec",
    "PolicySpec",
    "CostSpec",
    "MetricSpec",
    "ReplicationSpec",
    "ComparisonSpec",
    "ComparisonSeriesError",
    "DEFAULT_METRICS",
    "ExperimentSpec",
    "SweepSpec",
    "canonical_key",
    "parse_component",
    "parse_value",
]


def canonical_key(data: Any) -> str:
    """SHA-256 of the canonical (sorted-keys, compact) JSON of ``data``.

    This is *the* content-key convention of the spec layer: every spec's
    :meth:`cache_key` is ``canonical_key(spec.to_dict())``, so two specs
    have equal keys exactly when they compare equal — the property the
    result cache builds on.
    """
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

#: Load-model names accepted by :class:`CostSpec`.
_LOAD_MODELS = ("linear", "quadratic", "power")
#: Migration-cost models accepted by :class:`CostSpec`.
_MIGRATION_MODELS = ("constant", "bandwidth")
#: Routing names accepted by :class:`ExperimentSpec` and :class:`PolicySpec`.
_ROUTINGS = tuple(sorted(strategy.value for strategy in RoutingStrategy))


def _routing_name(value: Any) -> str:
    """Normalise a routing name (``"load-aware"`` -> ``"load_aware"``)."""
    name = str(value).strip().lower().replace("-", "_")
    if name not in _ROUTINGS:
        raise ValueError(
            f"unknown routing {name!r}; expected one of {list(_ROUTINGS)}"
        )
    return name


def _jsonable(value: Any) -> Any:
    """Convert ``value`` to JSON-safe plain data (tuples become lists)."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"spec parameter {value!r} of type {type(value).__name__} is not JSON-safe"
    )


def _frozen(value: Any) -> Any:
    """Normalise param values at construction: sequences become tuples.

    Applying the same normalisation in ``__post_init__`` and ``from_dict``
    makes dict/JSON round-trips compare equal to the original spec.
    """
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    if isinstance(value, Mapping):
        return {str(k): _frozen(v) for k, v in value.items()}
    return value


def _check_keys(
    data: Mapping,
    allowed: "set[str]",
    what: str,
    required: "set[str]" = frozenset(),
) -> None:
    """Reject a spec dict that is not a mapping, lacks a ``required`` key or
    has an unknown one: typos must not silently fall back to defaults (see
    :meth:`CostSpec.from_dict`)."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a mapping, got {data!r}")
    missing = sorted(set(required) - set(data))
    if missing:
        raise ValueError(f"{what} is missing the required keys {missing}")
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(
            f"unknown {what} keys {unknown}; expected a subset of "
            f"{sorted(allowed)}"
        )


def _list(data: Mapping, key: str, what: str) -> "tuple | None":
    """The list under ``key`` of a spec dict as a tuple; ``None`` if unset."""
    value = data.get(key)
    if value is not None and not isinstance(value, (list, tuple)):
        raise ValueError(f"{what}.{key} must be a list, got {value!r}")
    return None if value is None else tuple(value)


def _check_integer(name: str, value: Any, minimum: int) -> int:
    """``value`` as an ``int`` if it is one (not a bool) and >= ``minimum``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or value < minimum
    ):
        sign = "non-negative" if minimum == 0 else "positive"
        raise ValueError(f"{name} must be a {sign} integer, got {value!r}")
    return int(value)


def _accepts(factory: Any, name: str) -> bool:
    """Does ``factory`` take a ``name`` keyword (directly or via **kwargs)?"""
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):
        return False
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return True
        if parameter.name == name and parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            return True
    return False


@dataclass(frozen=True)
class _ComponentSpec:
    """Shared shape of the name + params specs."""

    kind: str
    params: "dict[str, Any]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not str(self.kind).strip():
            raise ValueError(f"{type(self).__name__}.kind must be non-empty")
        if not isinstance(self.params, Mapping):
            raise ValueError(
                f"{type(self).__name__}.params must be a mapping, "
                f"got {self.params!r}"
            )
        object.__setattr__(
            self, "params", {str(k): _frozen(v) for k, v in dict(self.params).items()}
        )

    def to_dict(self) -> dict:
        """Plain JSON-safe dict form."""
        return {"kind": self.kind, "params": _jsonable(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "_ComponentSpec":
        """Inverse of :meth:`to_dict`; unknown keys raise."""
        _check_keys(data, {"kind", "params"}, cls.__name__, {"kind"})
        return cls(kind=data["kind"], params=data.get("params") or {})

    def with_params(self, **updates: Any) -> "_ComponentSpec":
        """Copy with ``updates`` merged into :attr:`params`."""
        return replace(self, params={**self.params, **updates})


@dataclass(frozen=True)
class TopologySpec(_ComponentSpec):
    """A substrate described by a registered topology factory + parameters."""

    def build(self, rng: "np.random.Generator | None" = None):
        """Instantiate the substrate; ``rng`` seeds the factory if accepted."""
        factory = resolve_topology(self.kind)
        kwargs = dict(self.params)
        if rng is not None and "seed" not in kwargs and _accepts(factory, "seed"):
            kwargs["seed"] = rng
        return factory(**kwargs)


@dataclass(frozen=True)
class ScenarioSpec(_ComponentSpec):
    """A demand scenario; built against a concrete substrate."""

    def build(self, substrate):
        """Instantiate the scenario's request generator on ``substrate``."""
        factory = resolve_scenario(self.kind)
        return factory(substrate, **self.params)


@dataclass(frozen=True)
class PolicySpec(_ComponentSpec):
    """An allocation policy plus an optional display label for result series.

    ``costs`` and ``scenario``, when set, override the experiment's cost
    regime / demand scenario *for this policy only*. Policies sharing the
    same effective scenario also share one generated trace per replicate, so
    ``PolicySpec("offstat", label="β<c")`` next to
    ``PolicySpec("offstat", label="β>c", costs=CostSpec.migration_expensive())``
    compares the two regimes on identical demand — the structure of the
    paper's ratio figures. ``routing`` likewise overrides
    :attr:`ExperimentSpec.routing`, so nearest and load-aware routing can
    serve one shared trace.
    """

    label: "str | None" = None
    costs: "CostSpec | None" = None
    scenario: "ScenarioSpec | None" = None
    routing: "str | None" = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.label is not None:
            # CLI value parsing may deliver ints/bools (label=5); series
            # names are strings, so coerce rather than crash downstream.
            label = str(self.label).strip()
            if not label:
                raise ValueError("PolicySpec.label must be non-empty when set")
            object.__setattr__(self, "label", label)
        # Accept plain dicts for the overrides so hand-written JSON specs
        # need no special casing.
        if self.costs is not None and not isinstance(self.costs, CostSpec):
            object.__setattr__(self, "costs", CostSpec.from_dict(self.costs))
        if self.scenario is not None and not isinstance(self.scenario, ScenarioSpec):
            object.__setattr__(
                self, "scenario", ScenarioSpec.from_dict(self.scenario)
            )
        if self.routing is not None:
            object.__setattr__(self, "routing", _routing_name(self.routing))

    def build(self):
        """Instantiate the policy."""
        factory = resolve_policy(self.kind)
        return factory(**self.params)

    def to_dict(self) -> dict:
        data = super().to_dict()
        data["label"] = self.label
        data["costs"] = self.costs.to_dict() if self.costs is not None else None
        data["scenario"] = (
            self.scenario.to_dict() if self.scenario is not None else None
        )
        data["routing"] = self.routing
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "PolicySpec":
        _check_keys(
            data,
            {"kind", "params", "label", "costs", "scenario", "routing"},
            "PolicySpec",
            {"kind"},
        )
        costs = data.get("costs")
        scenario = data.get("scenario")
        return cls(
            kind=data["kind"],
            params=data.get("params") or {},
            label=data.get("label"),
            costs=CostSpec.from_dict(costs) if costs is not None else None,
            scenario=(
                ScenarioSpec.from_dict(scenario) if scenario is not None else None
            ),
            routing=data.get("routing"),
        )


@dataclass(frozen=True)
class CostSpec:
    """The cost constants of §II as data; builds a :class:`CostModel`.

    ``load`` selects the server-load model by name (``linear``, ``quadratic``
    or ``power`` with ``load_exponent``). ``migration_model`` selects β:
    ``"constant"`` (the paper's) or ``"bandwidth"``, the distance-dependent
    :func:`~repro.core.costs.bandwidth_migration_matrix` of the substrate,
    scaled so its off-diagonal mean equals ``migration``. That matrix is
    substrate-shaped, so :meth:`to_cost_model` builds it per replicate.
    """

    migration: float = 40.0
    creation: float = 400.0
    run_active: float = 2.5
    run_inactive: float = 0.5
    wireless_hop: float = 0.0
    load: str = "linear"
    load_exponent: float = 1.0
    migration_model: str = "constant"

    def __post_init__(self) -> None:
        if self.load not in _LOAD_MODELS:
            raise ValueError(
                f"unknown load model {self.load!r}; expected one of {_LOAD_MODELS}"
            )
        if self.migration_model not in _MIGRATION_MODELS:
            raise ValueError(
                f"unknown migration model {self.migration_model!r}; expected "
                f"one of {_MIGRATION_MODELS}"
            )
        try:
            self._cost_model()  # surface bad constants at spec-build time
        except TypeError as error:  # a constant that is not a number
            raise ValueError(f"CostSpec: {error}") from error

    @classmethod
    def paper_default(cls, **overrides: Any) -> "CostSpec":
        """β = 40 < c = 400, the paper's main regime."""
        return cls(migration=40.0, creation=400.0, **overrides)

    @classmethod
    def migration_expensive(cls, **overrides: Any) -> "CostSpec":
        """β = 400 > c = 40 (Figures 6, 14, 16-19)."""
        return cls(migration=400.0, creation=40.0, **overrides)

    def load_function(self) -> LoadFunction:
        """The load model instance selected by :attr:`load`."""
        if self.load == "linear":
            return LinearLoad()
        if self.load == "quadratic":
            return QuadraticLoad()
        return PowerLoad(self.load_exponent)

    def to_cost_model(self, substrate=None) -> CostModel:
        """The equivalent :class:`CostModel` on ``substrate``.

        The ``"bandwidth"`` migration model needs the substrate; the
        constant one ignores it.
        """
        if self.migration_model == "constant":
            return self._cost_model()
        if substrate is None:
            raise ValueError(
                "migration model 'bandwidth' needs the substrate to build "
                "its per-pair β matrix"
            )
        matrix = bandwidth_migration_matrix(substrate)
        off_diagonal = matrix[~np.eye(substrate.n, dtype=bool)]
        return self._cost_model(matrix * (self.migration / off_diagonal.mean()))

    def _cost_model(self, migration_matrix=None) -> CostModel:
        return CostModel(
            migration=self.migration,
            creation=self.creation,
            run_active=self.run_active,
            run_inactive=self.run_inactive,
            load=self.load_function(),
            wireless_hop=self.wireless_hop,
            migration_matrix=migration_matrix,
        )

    def to_dict(self) -> dict:
        """Plain JSON-safe dict form."""
        return {f.name: _jsonable(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "CostSpec":
        """Inverse of :meth:`to_dict`.

        Unknown keys raise: a typo'd constant in a hand-edited or cached
        spec must not silently fall back to its default (and thereby run
        the wrong cost regime).
        """
        _check_keys(data, {f.name for f in fields(cls)}, "CostSpec")
        return cls(**dict(data))


@dataclass(frozen=True)
class MetricSpec(_ComponentSpec):
    """A derived result metric: a registered metric function plus parameters.

    A metric maps one replicate's full per-policy ledgers to named scalar
    series (see :mod:`repro.api.metrics`). ``label``, when set, renames a
    single-series output outright and prefixes each series of a multi-series
    output (``"<label> <series>"``) — the knob for avoiding series-name
    collisions when several metrics are combined.
    """

    label: "str | None" = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.label is not None:
            label = str(self.label).strip()
            if not label:
                raise ValueError("MetricSpec.label must be non-empty when set")
            object.__setattr__(self, "label", label)

    def resolve(self):
        """The registered metric function behind :attr:`kind`."""
        return resolve_metric(self.kind)

    def to_dict(self) -> dict:
        data = super().to_dict()
        data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricSpec":
        _check_keys(data, {"kind", "params", "label"}, "MetricSpec")
        return cls(
            kind=data["kind"],
            params=dict(data.get("params") or {}),
            label=data.get("label"),
        )


#: The metric evaluated when a spec names none: per-policy total cost —
#: exactly the historical (pre-metric-pipeline) replicate output.
DEFAULT_METRICS = (MetricSpec("total_cost"),)




@dataclass(frozen=True)
class ReplicationSpec:
    """How many replicates a sweep point gets — fixed or confidence-driven.

    Attached to :attr:`SweepSpec.replication`, this controls replication in
    two modes:

    * **fixed** (``target_halfwidth=None``): every point runs exactly
      ``runs`` replicates (``None`` defers to :attr:`SweepSpec.runs`) and,
      when ``ci_level > 0``, the result is annotated with per-point
      confidence intervals. The samples — and with ``ci_level=0`` the
      entire result — are bit-identical to a plain fixed-``runs`` sweep.
    * **adaptive** (``target_halfwidth`` set): every point starts with
      ``runs`` replicates and keeps appending batches of ``batch`` more
      until the ``ci_level`` confidence interval of *every* series at the
      point has halfwidth ≤ ``target_halfwidth`` (a fraction of ``|mean|``
      when ``relative``), or the point reaches ``max_runs``. Points stop
      independently, so cheap/low-variance points spend no extra
      simulation time.

    Replicate seeds are positional (see
    :func:`repro.experiments.runner.spawn_point_extension_tasks`): the
    samples of replicate ``j`` at point ``i`` depend only on the sweep seed
    and ``(i, j)`` — never on batching, backends, shards, or how many
    replicates other points needed.

    ``method`` selects the interval estimator: ``"t"`` (Student-t, the
    default) or ``"bootstrap"`` (BCa).
    """

    runs: "int | None" = None
    max_runs: "int | None" = None
    ci_level: float = 0.95
    target_halfwidth: "float | None" = None
    relative: bool = False
    batch: "int | None" = None
    method: str = "t"

    def __post_init__(self) -> None:
        for name in ("runs", "batch", "max_runs"):
            if getattr(self, name) is not None:
                object.__setattr__(
                    self, name, _check_integer(name, getattr(self, name), 1)
                )
        if None not in (self.runs, self.max_runs) and self.max_runs < self.runs:
            raise ValueError(
                f"max_runs ({self.max_runs}) must be >= runs ({self.runs})"
            )
        if not 0.0 <= float(self.ci_level) < 1.0:
            raise ValueError(
                f"ci_level must be in [0, 1), got {self.ci_level}"
            )
        object.__setattr__(self, "ci_level", float(self.ci_level))
        if self.method not in CI_METHODS:
            raise ValueError(
                f"unknown CI method {self.method!r}; expected one of "
                f"{CI_METHODS}"
            )
        if self.target_halfwidth is not None:
            object.__setattr__(
                self, "target_halfwidth", float(self.target_halfwidth)
            )
            # `< 0` alone would wave NaN through (all comparisons false)
            # and silently run every point to max_runs.
            if not (
                math.isfinite(self.target_halfwidth)
                and self.target_halfwidth >= 0
            ):
                raise ValueError(
                    f"target_halfwidth must be finite and >= 0, "
                    f"got {self.target_halfwidth}"
                )
            if self.max_runs is None:
                raise ValueError(
                    "adaptive replication needs an explicit max_runs cap: a "
                    "noisy point would otherwise top up forever"
                )
            if self.ci_level == 0.0:
                raise ValueError(
                    "target_halfwidth needs ci_level > 0: a level-0 interval "
                    "is degenerate and every point would stop immediately"
                )

    @property
    def adaptive(self) -> bool:
        """Whether this spec tops points up toward a CI target."""
        return self.target_halfwidth is not None

    def initial_runs(self, sweep_runs: int) -> int:
        """The per-point starting replicate count under ``sweep_runs``."""
        return self.runs if self.runs is not None else int(sweep_runs)

    def batch_size(self, sweep_runs: int) -> int:
        """How many replicates one adaptive top-up appends."""
        return self.batch if self.batch is not None else self.initial_runs(sweep_runs)

    def to_dict(self) -> dict:
        """Plain JSON-safe dict form."""
        return {f.name: _jsonable(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ReplicationSpec":
        """Inverse of :meth:`to_dict`; unknown keys raise."""
        _check_keys(data, {f.name for f in fields(cls)}, "ReplicationSpec")
        return cls(**dict(data))


class ComparisonSeriesError(ValueError):
    """A comparison's baseline/contrast names did not resolve to result series.

    Raised by :meth:`ComparisonSpec.resolve_contrasts`. A distinct subclass
    so the CLI can turn exactly this user error (a typo'd ``--compare``)
    into a clean exit without masking library bugs behind a broad
    ``except ValueError``.
    """


@dataclass(frozen=True)
class ComparisonSpec:
    """A paired policy-vs-policy comparison riding on a sweep.

    Attached to :attr:`SweepSpec.comparison`, this asks the sweep engine to
    report — next to the marginal series — *paired* statistics of every
    contrast series against one ``baseline`` series, per sweep point:
    the mean per-replicate difference (``mode="diff"``) or ratio
    (``mode="ratio"``) with a confidence interval over the paired values.
    Policies at one sweep point share the replicate's trace (common random
    numbers), so the shared noise cancels and the paired interval is
    typically far tighter than the marginal ones.

    * ``baseline`` names the reference series (a policy label or any other
      result series name); ``contrasts`` names the series compared against
      it — empty means *every* other series.
    * ``ci_level`` / ``method`` control the paired interval (independent of
      any :class:`ReplicationSpec` marginal settings).
    * ``target_halfwidth`` (absolute, or a fraction of the paired mean with
      ``relative``) retargets **adaptive replication** at the paired
      halfwidth: the sweep keeps topping a point up until every paired CI
      at the point meets this target (instead of every marginal CI). It
      requires an adaptive :class:`ReplicationSpec` (which contributes
      ``max_runs``, batching and seeding); when ``None``, an adaptive sweep
      with a comparison drives off the replication spec's own target,
      applied to the paired halfwidths.

    Comparisons change nothing about which replicates are simulated or how
    they are seeded — a sweep re-run with a comparison reuses every cached
    point entry and reproduces the marginal series bit for bit.
    """

    baseline: str
    contrasts: "tuple[str, ...]" = ()
    mode: str = "diff"
    ci_level: float = 0.95
    target_halfwidth: "float | None" = None
    relative: bool = False
    method: str = "t"

    def __post_init__(self) -> None:
        baseline = str(self.baseline).strip()
        if not baseline:
            raise ValueError("ComparisonSpec.baseline must be non-empty")
        object.__setattr__(self, "baseline", baseline)
        contrasts = tuple(str(c).strip() for c in self.contrasts)
        if any(not c for c in contrasts):
            raise ValueError("ComparisonSpec.contrasts must be non-empty names")
        duplicates = {c for c in contrasts if contrasts.count(c) > 1}
        if duplicates:
            raise ValueError(
                f"duplicate comparison contrasts: {sorted(duplicates)}"
            )
        if baseline in contrasts:
            raise ValueError(
                f"baseline {baseline!r} cannot also be a contrast"
            )
        object.__setattr__(self, "contrasts", contrasts)
        if self.mode not in COMPARISON_MODES:
            raise ValueError(
                f"unknown comparison mode {self.mode!r}; expected one of "
                f"{COMPARISON_MODES}"
            )
        object.__setattr__(self, "ci_level", float(self.ci_level))
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError(
                f"comparison ci_level must be in (0, 1), got {self.ci_level}"
            )
        if self.method not in CI_METHODS:
            raise ValueError(
                f"unknown CI method {self.method!r}; expected one of "
                f"{CI_METHODS}"
            )
        if self.target_halfwidth is not None:
            object.__setattr__(
                self, "target_halfwidth", float(self.target_halfwidth)
            )
            # `< 0` alone would wave NaN through (all comparisons false).
            if not (
                math.isfinite(self.target_halfwidth)
                and self.target_halfwidth >= 0
            ):
                raise ValueError(
                    f"comparison target_halfwidth must be finite and >= 0, "
                    f"got {self.target_halfwidth}"
                )

    def resolve_contrasts(self, names: "Sequence[str]") -> "tuple[str, ...]":
        """The concrete contrast series among result series ``names``.

        Raises a clear :class:`ComparisonSeriesError` when the baseline or
        an explicit contrast does not exist, or when nothing is left to
        compare.
        """
        names = list(names)
        if self.baseline not in names:
            raise ComparisonSeriesError(
                f"comparison baseline {self.baseline!r} is not a result "
                f"series; available: {sorted(names)}"
            )
        if self.contrasts:
            missing = [c for c in self.contrasts if c not in names]
            if missing:
                raise ComparisonSeriesError(
                    f"comparison contrasts {missing} are not result series; "
                    f"available: {sorted(names)}"
                )
            return self.contrasts
        others = tuple(n for n in names if n != self.baseline)
        if not others:
            raise ComparisonSeriesError(
                f"comparison against {self.baseline!r} has no contrast "
                "series: the result carries no other series"
            )
        return others

    def to_dict(self) -> dict:
        """Plain JSON-safe dict form."""
        return {f.name: _jsonable(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ComparisonSpec":
        """Inverse of :meth:`to_dict`; unknown keys raise."""
        _check_keys(data, {f.name for f in fields(cls)}, "ComparisonSpec")
        data = dict(data)
        data["contrasts"] = _list(data, "contrasts", "ComparisonSpec") or ()
        return cls(**data)


@dataclass(frozen=True)
class ExperimentSpec:
    """One complete replicate description: who runs on what, for how long."""

    topology: TopologySpec
    scenario: ScenarioSpec
    policies: "tuple[PolicySpec, ...]"
    costs: CostSpec = field(default_factory=CostSpec)
    horizon: int = 500
    routing: str = "nearest"
    seed: int = 0
    name: str = ""
    metrics: "tuple[MetricSpec, ...]" = DEFAULT_METRICS

    def __post_init__(self) -> None:
        object.__setattr__(self, "policies", tuple(self.policies))
        if not self.policies:
            raise ValueError("ExperimentSpec needs at least one policy")
        object.__setattr__(
            self,
            "metrics",
            tuple(
                m if isinstance(m, MetricSpec) else MetricSpec.from_dict(m)
                for m in self.metrics
            ),
        )
        if not self.metrics:
            raise ValueError("ExperimentSpec needs at least one metric")
        # Two identical metric entries would emit identical series names and
        # collide at runtime on every replicate; reject them at build time.
        fingerprints = [
            (m.kind, json.dumps(_jsonable(m.params), sort_keys=True), m.label)
            for m in self.metrics
        ]
        duplicate_metrics = {
            fp for fp in fingerprints if fingerprints.count(fp) > 1
        }
        if duplicate_metrics:
            raise ValueError(
                "duplicate metrics in spec (identical kind/params/label): "
                f"{sorted(fp[0] for fp in duplicate_metrics)}; set "
                "MetricSpec.label to distinguish intentional repeats"
            )
        object.__setattr__(
            self, "horizon", _check_integer("horizon", self.horizon, 1)
        )
        object.__setattr__(self, "routing", _routing_name(self.routing))
        # Only *explicit* labels can be checked statically; same-kind policies
        # with different parameters are legitimate (their built ``.name``s may
        # differ, e.g. onbr vs onbr:dynamic_threshold=true) and real runtime
        # collisions are caught by repro.api.experiment._series_label.
        labels = [p.label for p in self.policies if p.label]
        duplicates = {label for label in labels if labels.count(label) > 1}
        if duplicates:
            raise ValueError(
                f"policy labels must be unique, duplicated: {sorted(duplicates)}"
            )

    # -- parameter substitution ---------------------------------------------------

    def with_param(self, path: str, value: Any) -> "ExperimentSpec":
        """Copy with one parameter replaced.

        ``path`` is either a top-level field (``"horizon"``, ``"seed"``,
        ``"name"``, ``"routing"``) or a dotted component parameter:
        ``"topology.n"``, ``"scenario.sojourn"``, ``"costs.migration"``, or
        ``"policies.cache_size"`` (applied to every policy).

        ``scenario.*`` and ``costs.*`` substitutions also reach per-policy
        overrides: sweeping ``scenario.sojourn`` over a multi-scenario spec
        (Figure 11's three demand families) moves every scenario in lockstep.
        """
        head, dot, rest = path.partition(".")
        if not dot:
            if head in ("horizon", "seed", "name", "routing"):
                return replace(self, **{head: value})
            raise ValueError(
                f"cannot substitute {path!r}; top-level parameters are "
                "horizon/seed/name/routing, nested ones use 'component.param'"
            )
        if not rest:
            raise ValueError(f"empty parameter name in {path!r}")
        if head == "topology":
            return replace(self, topology=self.topology.with_params(**{rest: value}))
        if head == "scenario":
            return replace(
                self,
                scenario=self.scenario.with_params(**{rest: value}),
                policies=tuple(
                    replace(p, scenario=p.scenario.with_params(**{rest: value}))
                    if p.scenario is not None
                    else p
                    for p in self.policies
                ),
            )
        if head == "costs":
            return replace(
                self,
                costs=replace(self.costs, **{rest: value}),
                policies=tuple(
                    replace(p, costs=replace(p.costs, **{rest: value}))
                    if p.costs is not None
                    else p
                    for p in self.policies
                ),
            )
        if head == "policies":
            return replace(
                self,
                policies=tuple(p.with_params(**{rest: value}) for p in self.policies),
            )
        raise ValueError(
            f"unknown component {head!r} in {path!r}; expected "
            "topology/scenario/costs/policies"
        )

    # -- serialisation ----------------------------------------------------------

    def cache_key(self) -> str:
        """The canonical content key of this spec (see :func:`canonical_key`).

        Pure spec identity — no package version or code fingerprint; the
        result cache layers those on top. Equal specs (including dict/JSON
        round-trips) have equal keys.
        """
        return canonical_key(self.to_dict())

    def to_dict(self) -> dict:
        """Plain JSON-safe dict form (nested component dicts)."""
        return {
            "name": self.name,
            "topology": self.topology.to_dict(),
            "scenario": self.scenario.to_dict(),
            "policies": [p.to_dict() for p in self.policies],
            "costs": self.costs.to_dict(),
            "metrics": [m.to_dict() for m in self.metrics],
            "horizon": self.horizon,
            "routing": self.routing,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`; unknown keys raise."""
        _check_keys(
            data,
            {"name", "topology", "scenario", "policies", "costs", "metrics",
             "horizon", "routing", "seed"},
            "ExperimentSpec",
            {"topology", "scenario"},
        )
        metrics = _list(data, "metrics", "ExperimentSpec")
        return cls(
            topology=TopologySpec.from_dict(data["topology"]),
            scenario=ScenarioSpec.from_dict(data["scenario"]),
            policies=tuple(
                PolicySpec.from_dict(p)
                for p in _list(data, "policies", "ExperimentSpec") or ()
            ),
            costs=CostSpec.from_dict(data.get("costs") or {}),
            # A dict *without* the key (pre-metric-pipeline era) gets the
            # default; an explicit empty list is malformed and must raise
            # in __post_init__ like ExperimentSpec(metrics=()) does.
            metrics=(
                tuple(MetricSpec.from_dict(m) for m in metrics)
                if metrics is not None
                else DEFAULT_METRICS
            ),
            horizon=data.get("horizon", 500),
            routing=data.get("routing", "nearest"),
            seed=data.get("seed", 0),
            name=data.get("name", ""),
        )


@dataclass(frozen=True)
class SweepSpec:
    """A parameter sweep over an :class:`ExperimentSpec` template.

    ``parameter`` is a :meth:`ExperimentSpec.with_param` path substituted
    with each of ``values``; ``None`` runs the template unchanged once per
    value (useful for single-point "table" results).

    ``parameter`` may also be a *tuple of paths*, in which case every value
    is a tuple of the same arity substituted path-by-path — the shape for
    coupled sweeps where a secondary parameter derives from the primary one
    (e.g. Figure 5's request volume and day length, both functions of the
    network size). The first path's component is the figure's x value.

    ``replication`` (a :class:`ReplicationSpec`) upgrades the flat ``runs``
    count to confidence-aware replication: per-point CIs on the result and,
    with a ``target_halfwidth``, adaptive per-point top-ups. ``None`` keeps
    the historical fixed-``runs`` behaviour bit for bit.

    ``comparison`` (a :class:`ComparisonSpec`) additionally reports paired
    contrast-vs-baseline statistics per sweep point — and, combined with an
    adaptive ``replication``, stops topping points up once the *paired*
    intervals (not the marginal ones) meet the target. Comparisons never
    change which replicates run or how they are seeded.
    """

    experiment: ExperimentSpec
    parameter: "str | tuple[str, ...] | None" = None
    values: tuple = ("total cost",)
    runs: int = 5
    seed: int = 0
    figure: str = "sweep"
    title: str = ""
    x_label: str = ""
    notes: str = ""
    replication: "ReplicationSpec | None" = None
    comparison: "ComparisonSpec | None" = None

    def __post_init__(self) -> None:
        if self.replication is not None and not isinstance(
            self.replication, ReplicationSpec
        ):
            object.__setattr__(
                self, "replication", ReplicationSpec.from_dict(self.replication)
            )
        if self.comparison is not None and not isinstance(
            self.comparison, ComparisonSpec
        ):
            object.__setattr__(
                self, "comparison", ComparisonSpec.from_dict(self.comparison)
            )
        if (
            self.comparison is not None
            and self.comparison.target_halfwidth is not None
            and (self.replication is None or not self.replication.adaptive)
        ):
            raise ValueError(
                "a comparison target_halfwidth retargets adaptive "
                "replication and needs an adaptive ReplicationSpec "
                "(target_halfwidth + max_runs) to drive the top-ups"
            )
        object.__setattr__(self, "values", tuple(_frozen(v) for v in self.values))
        if not self.values:
            raise ValueError("SweepSpec needs at least one value")
        object.__setattr__(self, "runs", _check_integer("runs", self.runs, 1))
        # Replicate seeds are SeedSequence children of this one, and numpy
        # would reject a bad one only once the sweep runs.
        object.__setattr__(self, "seed", _check_integer("seed", self.seed, 0))
        if isinstance(self.parameter, (list, tuple)):
            paths = tuple(str(p) for p in self.parameter)
            if not paths:
                raise ValueError(
                    "SweepSpec.parameter tuple must name at least one path"
                )
            object.__setattr__(self, "parameter", paths)
            for value in self.values:
                if not isinstance(value, tuple) or len(value) != len(paths):
                    raise ValueError(
                        f"sweep value {value!r} does not match the "
                        f"{len(paths)} swept paths {paths}"
                    )
        elif self.parameter is not None and not isinstance(self.parameter, str):
            raise ValueError(
                "SweepSpec.parameter must be a path, a tuple of paths or "
                f"None, got {self.parameter!r}"
            )
        for path in self.parameter_paths:
            if path in ("seed", "name"):
                # Replicate randomness derives from SweepSpec.seed via
                # SeedSequence children, not ExperimentSpec.seed —
                # substituting either field would be a silent no-op on the
                # results.
                raise ValueError(
                    f"parameter {path!r} cannot be swept: per-replicate "
                    "seeding is controlled by SweepSpec.seed"
                )
        if self.parameter is not None:
            # Surface bad paths at spec-build time, not mid-sweep.
            self.experiment_at(self.values[0])

    @property
    def effective_runs(self) -> int:
        """The per-point *initial* replicate count.

        :attr:`ReplicationSpec.runs`, when set, overrides :attr:`runs`;
        adaptive replication may append more per point at execution time.
        """
        if self.replication is not None:
            return self.replication.initial_runs(self.runs)
        return self.runs

    @property
    def parameter_paths(self) -> "tuple[str, ...]":
        """The swept paths: ``()``, one path, or the coupled-path tuple."""
        if self.parameter is None:
            return ()
        if isinstance(self.parameter, str):
            return (self.parameter,)
        return self.parameter

    def experiment_at(self, x: Any) -> ExperimentSpec:
        """The concrete replicate spec for sweep-point value ``x``."""
        if self.parameter is None:
            return self.experiment
        if isinstance(self.parameter, str):
            return self.experiment.with_param(self.parameter, x)
        components = tuple(x)
        if len(components) != len(self.parameter):
            raise ValueError(
                f"sweep value {x!r} does not match the swept paths "
                f"{self.parameter}"
            )
        spec = self.experiment
        for path, component in zip(self.parameter, components):
            spec = spec.with_param(path, component)
        return spec

    def display_x(self, x: Any) -> Any:
        """The figure-facing x value for sweep point ``x``.

        Coupled sweeps carry tuples internally; the first path's component
        (the primary parameter) is what the figure plots.
        """
        if isinstance(self.parameter, tuple):
            return x[0]
        return x

    def resolved_x_label(self) -> str:
        """The x-axis label: explicit, else the swept parameter, else 'metric'."""
        if self.x_label:
            return self.x_label
        paths = self.parameter_paths
        return paths[0] if paths else "metric"

    def resolved_title(self) -> str:
        """The title: explicit, else derived from the components swept."""
        if self.title:
            return self.title
        subject = self.experiment.name or (
            f"{'/'.join(p.label or p.kind for p in self.experiment.policies)} on "
            f"{self.experiment.scenario.kind}@{self.experiment.topology.kind}"
        )
        paths = self.parameter_paths
        if not paths:
            return subject
        return f"{subject} vs {paths[0]}"

    def cache_key(self) -> str:
        """The canonical content key of this sweep (see :func:`canonical_key`)."""
        return canonical_key(self.to_dict())

    def to_dict(self) -> dict:
        """Plain JSON-safe dict form."""
        return {
            "experiment": self.experiment.to_dict(),
            "parameter": _jsonable(self.parameter),
            "values": _jsonable(self.values),
            "runs": self.runs,
            "seed": self.seed,
            "figure": self.figure,
            "title": self.title,
            "x_label": self.x_label,
            "notes": self.notes,
            "replication": (
                self.replication.to_dict()
                if self.replication is not None
                else None
            ),
            "comparison": (
                self.comparison.to_dict()
                if self.comparison is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepSpec":
        """Inverse of :meth:`to_dict`; unknown keys raise."""
        _check_keys(
            data,
            {"experiment", "parameter", "values", "runs", "seed", "figure",
             "title", "x_label", "notes", "replication", "comparison"},
            "SweepSpec",
            {"experiment"},
        )
        replication = data.get("replication")
        comparison = data.get("comparison")
        return cls(
            experiment=ExperimentSpec.from_dict(data["experiment"]),
            parameter=data.get("parameter"),
            values=_list(data, "values", "SweepSpec") or ("total cost",),
            runs=data.get("runs", 5),
            seed=data.get("seed", 0),
            figure=data.get("figure", "sweep"),
            title=data.get("title", ""),
            x_label=data.get("x_label", ""),
            notes=data.get("notes", ""),
            replication=(
                ReplicationSpec.from_dict(replication)
                if replication is not None
                else None
            ),
            comparison=(
                ComparisonSpec.from_dict(comparison)
                if comparison is not None
                else None
            ),
        )


def parse_value(text: str) -> Any:
    """Best-effort scalar parsing for CLI arguments: bool/None/int/float/str."""
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    if lowered in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text.strip()


def parse_component(text: str) -> "tuple[str, dict[str, Any]]":
    """Parse a CLI component argument ``kind[:key=value,key=value,...]``.

    A value in brackets is a list of values: the commas inside ``[...]``
    separate its items, not parameters.

    Examples::

        parse_component("erdos_renyi:n=200,p=0.02")
        parse_component("commuter:sojourn=10,dynamic_load=false")
        parse_component("overlay:parts=[commuter,flashcrowd]")
        parse_component("onth")
    """
    kind, _, tail = text.partition(":")
    kind = kind.strip()
    if not kind:
        raise ValueError(f"component argument {text!r} has an empty kind")
    params: dict[str, Any] = {}
    if tail.strip():
        # Split on the commas that are not inside a [...] list.
        for item in re.split(r",(?![^\[]*\])", tail):
            key, eq, raw = item.partition("=")
            key = key.strip()
            if not eq or not key:
                raise ValueError(
                    f"malformed parameter {item!r} in {text!r}; expected key=value"
                )
            raw = raw.strip()
            params[key] = (
                [parse_value(part) for part in raw[1:-1].split(",") if part.strip()]
                if raw.startswith("[") and raw.endswith("]")
                else parse_value(raw)
            )
    return kind, params
