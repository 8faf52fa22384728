"""Built-in result metrics and the context they evaluate against.

A *metric* turns one replicate's full per-policy
:class:`~repro.core.results.RunResult` ledgers into named scalar series.
Metrics are plain functions registered with
:func:`~repro.api.registry.register_metric`::

    @register_metric("total_cost")
    def total_cost(context):
        return {run.label: run.run.total_cost for run in context.runs}

and referenced from specs as :class:`~repro.api.specs.MetricSpec` entries,
so a derived quantity — an OPT ratio, a cost decomposition — is data in the
spec rather than a bespoke closure in a figure module.

Every metric receives a :class:`MetricContext` carrying the replicate's
substrate and the ordered :class:`PolicyRun` records (label, ledger, the
effective trace and cost regime of that policy). Reference costs — most
importantly the exact offline optimum — are computed on demand through
:meth:`MetricContext.reference_cost` and cached per (trace, cost regime), so
a two-regime ratio figure pays for each OPT dynamic program exactly once.

Metrics run strictly *after* all simulations of a replicate and must not
consume replicate randomness (``Opt.solve`` is deterministic), which keeps
metric-extended specs bit-identical to their historical closure
implementations.

Built-ins:

================== =========================================================
``total_cost``      grand total per policy (the default; series = labels)
``per_round_average`` mean per-round total per policy (``<label>/round``)
``cost_ratio_vs``   each policy's total over a reference cost (OPT or a
                    policy label) — the competitive ratios of §V
``reference_cost``  the reference cost itself as a series (e.g. OPT's
                    absolute cost next to a policy's, Figures 13-14)
``cost_breakdown``  per cost factor totals; parts may be summed with ``+``
                    (e.g. ``migration+creation``, Figure 6)
``migrations``      migration count per policy
================== =========================================================
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.api.registry import normalize_name, register_metric
from repro.core.results import RunResult

if TYPE_CHECKING:  # imported lazily at runtime to keep module load light
    from repro.api.specs import (
        CostSpec,
        ExperimentSpec,
        MetricSpec,
        PolicySpec,
        ScenarioSpec,
    )
    from repro.core.costs import CostModel
    from repro.topology.substrate import Substrate
    from repro.workload.base import Trace

__all__ = [
    "PolicyRun",
    "MetricContext",
    "check_metric",
    "evaluate_metrics",
]


@dataclass(frozen=True)
class PolicyRun:
    """One policy's simulated replicate: its ledger plus effective inputs.

    Attributes:
        label: the result-series label (explicit or the built policy name).
        spec: the :class:`~repro.api.specs.PolicySpec` that produced the run.
        run: the full per-round :class:`RunResult` ledger.
        trace: the demand trace the policy served (shared between policies
            whose effective scenarios are equal).
        trace_index: index of :attr:`trace` among the replicate's distinct
            traces — with :attr:`cost_spec` the cache key for reference
            costs.
        costs: the effective :class:`~repro.core.costs.CostModel`.
        cost_spec: the effective :class:`~repro.api.specs.CostSpec`.
        scenario: the effective :class:`~repro.api.specs.ScenarioSpec`.
    """

    label: str
    spec: "PolicySpec"
    run: RunResult
    trace: "Trace"
    trace_index: int
    costs: "CostModel"
    cost_spec: "CostSpec"
    scenario: "ScenarioSpec"


class MetricContext:
    """Everything a metric may look at for one replicate.

    Args:
        spec: the executed :class:`~repro.api.specs.ExperimentSpec`.
        substrate: the replicate's concrete substrate network.
        runs: the per-policy :class:`PolicyRun` records in policy order.
    """

    def __init__(
        self,
        spec: "ExperimentSpec",
        substrate: "Substrate",
        runs: Sequence[PolicyRun],
    ) -> None:
        self.spec = spec
        self.substrate = substrate
        self.runs: tuple[PolicyRun, ...] = tuple(runs)
        self.by_label: dict[str, PolicyRun] = {r.label: r for r in self.runs}
        self._reference_cache: dict[tuple, float] = {}

    def __iter__(self) -> "Iterable[PolicyRun]":
        return iter(self.runs)

    @property
    def labels(self) -> tuple[str, ...]:
        """All series labels in policy order."""
        return tuple(r.label for r in self.runs)

    def run_for(self, policy: "str | None" = None) -> PolicyRun:
        """The run labelled ``policy``, or the only run when unambiguous.

        With ``policy=None`` the replicate must contain exactly one distinct
        (trace, cost regime) context — otherwise "the" reference cost is
        ambiguous and the caller must name a policy.
        """
        if policy is not None:
            if policy not in self.by_label:
                raise ValueError(
                    f"unknown policy label {policy!r}; replicate has "
                    f"{list(self.by_label)}"
                )
            return self.by_label[policy]
        contexts = {(r.trace_index, r.cost_spec) for r in self.runs}
        if len(contexts) > 1:
            raise ValueError(
                "replicate has several (trace, cost regime) contexts; pass "
                f"policy=<label> to pick one of {list(self.by_label)}"
            )
        return self.runs[0]

    def reference_cost(self, reference: str, run: PolicyRun) -> float:
        """The cost to compare ``run`` against.

        ``reference`` is either another policy's series label (its ledger
        total) or ``"OPT"`` — the exact offline optimum of §IV-A, solved on
        ``run``'s trace under ``run``'s cost regime. OPT solutions are
        cached per (trace, cost regime), and the dynamic program consumes no
        randomness, so metrics never perturb replicate reproducibility.
        """
        reference = str(reference)
        if reference in self.by_label:
            return self.by_label[reference].run.total_cost
        _check_reference(reference, self.labels)
        key = (run.trace_index, run.cost_spec)
        if key not in self._reference_cache:
            from repro.algorithms.opt import Opt

            cost, _plan = Opt.solve(self.substrate, run.trace, run.costs)
            self._reference_cache[key] = float(cost)
        return self._reference_cache[key]


def _check_reference(reference, labels: Sequence[str]) -> None:
    """A reference is ``"OPT"`` or one of the policy ``labels``."""
    reference = str(reference)
    if reference not in labels and normalize_name(reference) != "opt":
        raise ValueError(
            f"unknown reference {reference!r}; expected 'OPT' or one of the "
            f"policy labels {list(labels)}"
        )


def check_metric(metric: "MetricSpec", labels: Sequence[str]) -> None:
    """Reject ``metric`` before any replicate evaluates it.

    Resolves the metric, binds its params to its signature (the leading
    placeholder stands in for the :class:`MetricContext`) and checks the
    name-valued params of the built-ins against the policy ``labels``: a
    ``reference`` (``"OPT"`` or a label), a ``policy`` (a label) and
    :func:`cost_breakdown`'s ``parts``.
    """
    bound = inspect.signature(metric.resolve()).bind(None, **metric.params)
    bound.apply_defaults()
    arguments = bound.arguments
    if "reference" in arguments:
        _check_reference(arguments["reference"], labels)
    if arguments.get("policy") is not None and arguments["policy"] not in labels:
        raise ValueError(
            f"unknown policy label {arguments['policy']!r}; expected one of "
            f"{list(labels)}"
        )
    if "parts" in arguments:
        _breakdown_parts(arguments["parts"])


def evaluate_metrics(
    context: MetricContext, metrics: "Sequence[MetricSpec]"
) -> "dict[str, float]":
    """Evaluate ``metrics`` against ``context`` into one flat series mapping.

    Each metric contributes its series in declaration order; a label set on
    the :class:`~repro.api.specs.MetricSpec` renames a single-series output
    and prefixes a multi-series one. Two metrics resolving to the same
    series name raise instead of silently overwriting each other.
    """
    series: dict[str, float] = {}
    for metric_spec in metrics:
        fn = metric_spec.resolve()
        out = fn(context, **metric_spec.params)
        items = [(str(name), float(value)) for name, value in out.items()]
        if metric_spec.label is not None:
            if len(items) == 1:
                items = [(metric_spec.label, items[0][1])]
            else:
                items = [
                    (f"{metric_spec.label} {name}", value)
                    for name, value in items
                ]
        for name, value in items:
            if name in series:
                raise ValueError(
                    f"metric {metric_spec.kind!r} emits series {name!r} "
                    "which an earlier metric already produced; set "
                    "MetricSpec.label to disambiguate"
                )
            series[name] = value
    return series


# ---------------------------------------------------------------------------
# Built-in metrics
# ---------------------------------------------------------------------------


@register_metric("total_cost", aliases=("total-cost",))
def total_cost(context: MetricContext) -> "dict[str, float]":
    """Grand total cost per policy — the historical replicate output."""
    return {run.label: run.run.total_cost for run in context.runs}


@register_metric("per_round_average")
def per_round_average(context: MetricContext) -> "dict[str, float]":
    """Mean per-round total cost per policy (series ``<label>/round``)."""
    return {
        f"{run.label}/round": run.run.total_cost / run.run.rounds
        for run in context.runs
    }


def cost_ratio(numerator: float, denominator: float) -> float:
    """A guarded ratio: raises on non-positive optimal cost instead of inf."""
    if denominator <= 0:
        raise ValueError(
            f"cannot form a ratio against non-positive cost {denominator!r}"
        )
    return numerator / denominator


@register_metric("cost_ratio_vs", aliases=("ratio_vs",))
def cost_ratio_vs(
    context: MetricContext, reference: str = "OPT"
) -> "dict[str, float]":
    """Each policy's total cost over ``reference``'s cost (§II-E ratios).

    ``reference`` names another policy's series label or ``"OPT"`` (the
    exact offline optimum under each policy's own trace and cost regime).
    When the reference is a policy label, its trivial self-ratio is omitted.
    """
    out: dict[str, float] = {}
    for run in context.runs:
        if run.label == str(reference):
            continue
        out[run.label] = cost_ratio(
            run.run.total_cost, context.reference_cost(reference, run)
        )
    if not out:
        raise ValueError(
            f"cost_ratio_vs({reference!r}) has no policies left to compare"
        )
    return out


@register_metric("reference_cost")
def reference_cost(
    context: MetricContext,
    reference: str = "OPT",
    policy: "str | None" = None,
) -> "dict[str, float]":
    """The reference cost itself as a series named after the reference.

    Puts OPT's absolute cost next to a policy's (Figures 13-14). ``policy``
    selects whose trace/cost regime defines the reference when the
    replicate mixes several; it defaults to the only one.
    """
    run = context.run_for(policy)
    return {str(reference): context.reference_cost(reference, run)}


#: Cost factors addressable by :func:`cost_breakdown` parts.
_BREAKDOWN_FIELDS = ("access", "running", "migration", "creation", "total")


@register_metric("cost_breakdown", aliases=("breakdown",))
def cost_breakdown(
    context: MetricContext,
    parts: Sequence[str] = ("access", "running", "migration", "creation"),
) -> "dict[str, float]":
    """Total cost split by factor (the bars of Figure 6).

    Each part is a cost factor (``access``, ``running``, ``migration``,
    ``creation``, ``total``) or a ``+``-joined sum of factors
    (``"migration+creation"``). With a single policy the series carry the
    part names alone; with several they are prefixed ``"<label> <part>"``.
    """
    parts = _breakdown_parts(parts)
    out: dict[str, float] = {}
    for run in context.runs:
        breakdown = run.run.breakdown
        for part, components in parts:
            value = 0.0
            for component in components:
                value += float(getattr(breakdown, component))
            name = part if len(context.runs) == 1 else f"{run.label} {part}"
            out[str(name)] = value
    return out


def _breakdown_parts(parts) -> "list[tuple[str, list[str]]]":
    """Each breakdown part with the cost factors its ``+`` joins."""
    parsed = []
    for part in (parts,) if isinstance(parts, str) else parts:
        components = [component.strip() for component in str(part).split("+")]
        for component in components:
            if component not in _BREAKDOWN_FIELDS:
                raise ValueError(
                    f"unknown breakdown part {component!r}; expected "
                    f"one of {_BREAKDOWN_FIELDS} (joinable with '+')"
                )
        parsed.append((part, components))
    return parsed


@register_metric("migrations")
def migrations(context: MetricContext) -> "dict[str, float]":
    """How many migrations each policy performed.

    Named like :func:`cost_breakdown`: the series is ``migrations`` for a
    single policy and ``"<label> migrations"`` for several.
    """
    return {
        "migrations" if len(context.runs) == 1 else f"{run.label} migrations":
            float(run.run.total_migrations)
        for run in context.runs
    }
