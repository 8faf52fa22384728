"""Experiment engine: seeded multi-run parameter sweeps (§V-B's methodology).

Every quantitative figure of the paper is a sweep: vary one parameter
(network size, λ, T), run several independent replicates per point, and
average the total costs per algorithm. Every sweep is
:class:`~repro.api.specs.SweepSpec` data run by
:func:`~repro.api.experiment.run_sweep`; this module holds the pieces that
engine shares — seeding (:func:`spawn_tasks`), the series-key check
(:class:`SeriesValidator`), aggregation into a :class:`FigureResult`,
paired comparisons.

Determinism: replicate ``j`` of sweep point ``i`` always receives the same
child generator (derived from one master seed through
``numpy.random.SeedSequence`` spawning), so figure results are exactly
reproducible and independent of how many other points are evaluated — and of
the :class:`~repro.api.execution.ExecutionBackend` that runs them: the child
seeds are spawned up front and travel with each task, so a process-pool
sweep is bit-identical to the serial one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from repro.analysis.stats import (
    COMPARISON_MODES,
    ComparisonSummary,
    ConfidenceInterval,
    PointSummary,
    mean_stderr,
    paired_summary,
    point_summary,
)
from repro.api.execution import ReplicateTask

__all__ = [
    "ComparisonResult",
    "FigureResult",
    "SeriesValidator",
    "aggregate_point_summaries",
    "aggregate_samples",
    "compute_comparisons",
    "point_meets_target",
    "spawn_point_extension_tasks",
    "spawn_tasks",
]


@dataclass(frozen=True)
class ComparisonResult:
    """One paired contrast-vs-baseline comparison across a sweep.

    Per sweep point the comparison holds the mean per-replicate difference
    (``mode="diff"``: ``contrast - baseline``) or ratio (``mode="ratio"``:
    ``contrast / baseline``), its standard error, the ``level`` confidence
    interval over the paired values and the number of aligned replicate
    pairs. Because both series share each replicate's trace (common random
    numbers), these intervals are typically far tighter than the marginal
    per-series ones — the comparison is what the paper's *relative* claims
    actually rest on.
    """

    baseline: str
    contrast: str
    mode: str
    level: float
    values: tuple
    stderr: tuple
    ci: tuple
    counts: tuple

    def __post_init__(self) -> None:
        if self.mode not in COMPARISON_MODES:
            raise ValueError(
                f"unknown comparison mode {self.mode!r}; expected one of "
                f"{COMPARISON_MODES}"
            )
        if not 0.0 < self.level < 1.0:
            raise ValueError(
                f"comparison level must be in (0, 1), got {self.level}"
            )
        if self.contrast == self.baseline:
            raise ValueError(
                f"comparison contrast equals its baseline {self.baseline!r}"
            )
        n_points = len(self.values)
        for name, attr in (("stderr", self.stderr), ("ci", self.ci),
                           ("counts", self.counts)):
            if len(attr) != n_points:
                raise ValueError(
                    f"comparison {self.contrast!r} {name} misaligned with "
                    f"its {n_points} values"
                )
        for pair in self.ci:
            if len(pair) != 2:
                raise ValueError(
                    f"comparison ci must hold (low, high) pairs, got {pair!r}"
                )

    @property
    def null(self) -> float:
        """The no-difference value: 0 for differences, 1 for ratios."""
        return 0.0 if self.mode == "diff" else 1.0

    def summaries(self) -> "tuple[ComparisonSummary, ...]":
        """The :class:`ComparisonSummary` per sweep point."""
        return tuple(
            ComparisonSummary(
                mode=self.mode,
                mean=float(self.values[i]),
                stderr=float(self.stderr[i]),
                n=int(self.counts[i]),
                ci=ConfidenceInterval(
                    float(self.ci[i][0]), float(self.ci[i][1]), self.level
                ),
            )
            for i in range(len(self.values))
        )

    def to_dict(self) -> dict:
        """Plain JSON-safe dict form."""
        return {
            "baseline": self.baseline,
            "contrast": self.contrast,
            "mode": self.mode,
            "level": float(self.level),
            "values": [float(v) for v in self.values],
            "stderr": [float(v) for v in self.stderr],
            "ci": [[float(low), float(high)] for low, high in self.ci],
            "counts": [int(n) for n in self.counts],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ComparisonResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            baseline=data["baseline"],
            contrast=data["contrast"],
            mode=data["mode"],
            level=float(data["level"]),
            values=tuple(float(v) for v in data.get("values", ())),
            stderr=tuple(float(v) for v in data.get("stderr", ())),
            ci=tuple(
                (float(pair[0]), float(pair[1]))
                for pair in data.get("ci", ())
            ),
            counts=tuple(int(n) for n in data.get("counts", ())),
        )


@dataclass(frozen=True)
class FigureResult:
    """The reproduced data behind one paper figure (or table).

    Attributes:
        figure: short identifier, e.g. ``"fig15"``.
        title: human-readable description.
        x_label: meaning of :attr:`x_values`.
        x_values: sweep points (or time stamps for trajectory figures).
        series: mapping series name → y value per sweep point.
        errors: mapping series name → standard error per sweep point
            (empty for single-run figures).
        ci: mapping series name → per-point ``(low, high)`` confidence
            bounds at :attr:`ci_level` (empty unless the sweep ran with a
            :class:`~repro.api.specs.ReplicationSpec` requesting CIs).
        counts: per-point replicate counts — non-empty exactly when
            :attr:`ci` is populated; adaptive replication makes them vary
            across points.
        ci_level: nominal coverage of :attr:`ci` (0 when absent).
        comparisons: paired contrast-vs-baseline statistics
            (:class:`ComparisonResult` per contrast) — non-empty exactly
            when the sweep ran with a
            :class:`~repro.api.specs.ComparisonSpec`.
        notes: free-text observations (paper expectation, caveats).

    The confidence annotations (:attr:`ci`/:attr:`counts`/:attr:`ci_level`)
    and the :attr:`comparisons` payload are strictly additive: results
    without them serialise to exactly the historical dict shape, which is
    what keeps pre-CI/pre-comparison golden data and cache entries
    bit-comparable.
    """

    figure: str
    title: str
    x_label: str
    x_values: tuple
    series: Mapping[str, tuple]
    errors: Mapping[str, tuple] = field(default_factory=dict)
    notes: str = ""
    ci: Mapping[str, tuple] = field(default_factory=dict)
    counts: tuple = ()
    ci_level: float = 0.0
    comparisons: "tuple[ComparisonResult, ...]" = ()

    def __post_init__(self) -> None:
        for name, values in self.series.items():
            if len(values) != len(self.x_values):
                raise ValueError(
                    f"series {name!r} has {len(values)} values for "
                    f"{len(self.x_values)} x points"
                )
        for name, values in self.errors.items():
            if name not in self.series:
                raise ValueError(f"errors given for unknown series {name!r}")
            if len(values) != len(self.x_values):
                raise ValueError(f"errors for {name!r} misaligned with x values")
        for name, bounds in self.ci.items():
            if name not in self.series:
                raise ValueError(f"ci given for unknown series {name!r}")
            if len(bounds) != len(self.x_values):
                raise ValueError(f"ci for {name!r} misaligned with x values")
            for pair in bounds:
                if len(pair) != 2:
                    raise ValueError(
                        f"ci for {name!r} must hold (low, high) pairs, "
                        f"got {pair!r}"
                    )
        if self.counts and len(self.counts) != len(self.x_values):
            raise ValueError(
                f"{len(self.counts)} counts for {len(self.x_values)} x points"
            )
        if not 0.0 <= self.ci_level < 1.0:
            raise ValueError(
                f"ci_level must be in [0, 1), got {self.ci_level}"
            )
        if self.ci and not self.counts:
            raise ValueError("ci requires per-point counts")
        object.__setattr__(
            self,
            "comparisons",
            tuple(
                c if isinstance(c, ComparisonResult)
                else ComparisonResult.from_dict(c)
                for c in self.comparisons
            ),
        )
        seen_contrasts = set()
        for comparison in self.comparisons:
            for role, name in (("baseline", comparison.baseline),
                               ("contrast", comparison.contrast)):
                if name not in self.series:
                    raise ValueError(
                        f"comparison {role} {name!r} is not a result series"
                    )
            if len(comparison.values) != len(self.x_values):
                raise ValueError(
                    f"comparison {comparison.contrast!r} misaligned with "
                    f"{len(self.x_values)} x points"
                )
            key = (comparison.contrast, comparison.mode)
            if key in seen_contrasts:
                raise ValueError(
                    f"duplicate comparison for contrast {comparison.contrast!r}"
                )
            seen_contrasts.add(key)

    def y(self, name: str) -> tuple:
        """The y series called ``name``."""
        return tuple(self.series[name])

    @property
    def series_names(self) -> tuple[str, ...]:
        """All series names in insertion order."""
        return tuple(self.series.keys())

    @property
    def has_confidence(self) -> bool:
        """Whether per-point confidence intervals are attached."""
        return bool(self.ci)

    @property
    def has_comparisons(self) -> bool:
        """Whether paired comparison payloads are attached."""
        return bool(self.comparisons)

    def comparison_for(self, contrast: str) -> ComparisonResult:
        """The attached comparison whose contrast series is ``contrast``."""
        for comparison in self.comparisons:
            if comparison.contrast == contrast:
                return comparison
        raise KeyError(
            f"no comparison for contrast {contrast!r}; attached: "
            f"{sorted(c.contrast for c in self.comparisons)}"
        )

    def point_summaries(self, name: str) -> "tuple[PointSummary, ...]":
        """The :class:`PointSummary` per sweep point of series ``name``.

        Requires confidence annotations (``has_confidence``); plain
        fixed-``runs`` results only carry means and standard errors.
        """
        if name not in self.series:
            raise KeyError(name)
        if not self.has_confidence or name not in self.ci:
            raise ValueError(
                f"series {name!r} carries no confidence intervals; run the "
                "sweep with SweepSpec(replication=ReplicationSpec(...))"
            )
        errors = self.errors.get(name, (0.0,) * len(self.x_values))
        return tuple(
            PointSummary(
                mean=float(self.series[name][i]),
                stderr=float(errors[i]),
                n=int(self.counts[i]),
                ci=ConfidenceInterval(
                    float(self.ci[name][i][0]),
                    float(self.ci[name][i][1]),
                    self.ci_level,
                ),
            )
            for i in range(len(self.x_values))
        )

    def to_dict(self) -> dict:
        """Plain JSON-safe dict form (``--json`` and caching use this).

        Confidence annotations are emitted only when present, so results
        without them round-trip through exactly the historical dict shape.
        """
        data = {
            "figure": self.figure,
            "title": self.title,
            "x_label": self.x_label,
            "x_values": [_json_value(v) for v in self.x_values],
            "series": {
                name: [float(v) for v in values]
                for name, values in self.series.items()
            },
            "errors": {
                name: [float(v) for v in values]
                for name, values in self.errors.items()
            },
            "notes": self.notes,
        }
        if self.ci:
            data["ci"] = {
                name: [[float(low), float(high)] for low, high in bounds]
                for name, bounds in self.ci.items()
            }
            data["counts"] = [int(n) for n in self.counts]
            data["ci_level"] = float(self.ci_level)
        if self.comparisons:
            data["comparisons"] = [c.to_dict() for c in self.comparisons]
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "FigureResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            figure=data["figure"],
            title=data.get("title", ""),
            x_label=data.get("x_label", ""),
            x_values=tuple(data.get("x_values", ())),
            series={k: tuple(v) for k, v in data.get("series", {}).items()},
            errors={k: tuple(v) for k, v in data.get("errors", {}).items()},
            notes=data.get("notes", ""),
            ci={
                k: tuple((float(pair[0]), float(pair[1])) for pair in v)
                for k, v in data.get("ci", {}).items()
            },
            counts=tuple(int(n) for n in data.get("counts", ())),
            ci_level=float(data.get("ci_level", 0.0)),
            comparisons=tuple(
                ComparisonResult.from_dict(c)
                for c in data.get("comparisons", ())
            ),
        )


def _json_value(value):
    """A JSON-safe scalar for a sweep-point value."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def spawn_tasks(x_values: Sequence, runs: int, seed: int) -> "list[ReplicateTask]":
    """The full task list of a sweep: ``runs`` tasks per point, seeds attached.

    Child generator ``k`` is ``SeedSequence(seed)``'s ``k``-th spawn, so the
    seed of replicate ``j`` at point index ``i`` (task ``i * runs + j``)
    depends only on ``(seed, i * runs + j)`` — never on which subset of the
    tasks actually executes. That positional contract is what per-point
    caching and sharded execution rely on: recomputing one point, or
    splitting the list across processes, reproduces the exact streams of a
    full serial sweep.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    x_values = list(x_values)
    children = np.random.SeedSequence(seed).spawn(len(x_values) * runs)
    return [
        ReplicateTask(x=x_values[index // runs], seed=children[index])
        for index in range(len(x_values) * runs)
    ]


def spawn_point_extension_tasks(
    x: object,
    point_index: int,
    start: int,
    count: int,
    seed: int,
) -> "list[ReplicateTask]":
    """Top-up tasks for one sweep point: replicates ``start .. start+count``.

    While the *initial* replicates of a sweep keep the flat layout of
    :func:`spawn_tasks` (replicate ``j`` of point ``i`` = spawn child
    ``i * runs + j`` — the PR-3 contract that existing point cache entries
    encode), adaptive top-ups extend each point's seed sequence in a second
    spawn dimension: replicate ``j >= runs`` of point ``i`` draws from
    ``SeedSequence(seed, spawn_key=(i, j))``. NumPy guarantees distinct
    spawn-key tuples yield independent streams, so top-ups collide neither
    with any flat child nor with each other, and the seed of a top-up
    replicate depends only on ``(seed, i, j)`` — never on batch sizes,
    execution order, shards, or how many replicates *other* points needed.
    Appending sweep values (grid refinement) leaves every existing point's
    top-up stream untouched.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if start < 1:
        raise ValueError(
            f"extension start must be >= 1 (after the initial replicates), "
            f"got {start}"
        )
    return [
        ReplicateTask(
            x=x,
            seed=np.random.SeedSequence(seed, spawn_key=(int(point_index), j)),
        )
        for j in range(start, start + count)
    ]


class SeriesValidator:
    """A :data:`~repro.api.execution.ResultHook` pinning the series key set.

    Every replicate of a sweep must report the same series names; a ragged
    key set would merge silently into misaligned series. The first sample
    seen fixes the expectation, every later one is compared against it.
    The error names ``index`` as the run: the replicate's position within
    its sweep point.
    """

    def __init__(self) -> None:
        self.expected: "set[str] | None" = None

    def __call__(self, index: int, task: ReplicateTask, sample) -> None:
        keys = set(sample)
        if self.expected is None:
            self.expected = keys
        elif keys != self.expected:
            raise RuntimeError(
                f"replicate at x={task.x!r} (run {index}) returned "
                f"series {sorted(keys)}, expected {sorted(self.expected)}"
            )


def point_meets_target(
    samples: "Sequence[Mapping[str, float]]",
    replication: "ReplicationSpec",
    comparison: "ComparisonSpec | None" = None,
) -> bool:
    """Does this point's sample block meet its CI halfwidth target?

    Without a comparison every *marginal* series interval must meet the
    replication target. With one, the criterion is the *paired* halfwidth
    of every contrast-vs-baseline interval instead: the paired spread is
    what the relative claims rest on, and — replicates sharing one trace —
    it is typically far tighter, so paired sweeps stop with fewer
    replicates while settling the same orderings. The paired target is the
    comparison's own ``target_halfwidth`` when set, else the replication
    one.

    A point with fewer than two replicates never qualifies — its stderr is
    identically zero, which proves nothing about precision.

    The check is a pure function of the sample block, which is what lets
    every executor of an adaptive sweep — serial, sharded, or uncoordinated
    queue workers — replay the exact same top-up schedule from the same
    cached samples.
    """
    rep = replication
    if len(samples) < 2:
        return False
    if comparison is not None:
        # resolve first: it validates the baseline, so a typo'd name raises
        # ComparisonSeriesError here instead of a raw KeyError below
        contrasts = comparison.resolve_contrasts(tuple(samples[0]))
        baseline = [sample[comparison.baseline] for sample in samples]
        if comparison.target_halfwidth is not None:
            target, relative = comparison.target_halfwidth, comparison.relative
        else:
            target, relative = rep.target_halfwidth, rep.relative
        for name in contrasts:
            summary = paired_summary(
                [sample[name] for sample in samples],
                baseline,
                mode=comparison.mode,
                level=comparison.ci_level,
                method=comparison.method,
            )
            if not summary.meets(target, relative):
                return False
        return True
    for name in samples[0]:
        summary = point_summary(
            [sample[name] for sample in samples],
            level=rep.ci_level,
            method=rep.method,
        )
        if not summary.meets(rep.target_halfwidth, rep.relative):
            return False
    return True


def compute_comparisons(
    point_values: "Mapping[str, Sequence[Sequence[float]]]",
    comparison: "ComparisonSpec",
) -> "tuple[ComparisonResult, ...]":
    """Paired comparison payloads over per-point, per-replicate values.

    ``point_values`` maps each series name to its per-point lists of
    per-replicate values, replicate-aligned across series (every replicate
    of a sweep point reports every series — the shape both aggregators
    build). ``comparison`` is a
    :class:`~repro.api.specs.ComparisonSpec`; its baseline/contrast names
    are resolved against the series here, raising a clear
    :class:`ValueError` for unknown names. Pure arithmetic over the sample
    floats: cached and fresh samples compare bit-identically.
    """
    names = tuple(point_values)
    contrasts = comparison.resolve_contrasts(names)
    baseline_points = point_values[comparison.baseline]
    results = []
    for contrast in contrasts:
        summaries = [
            paired_summary(
                values,
                base,
                mode=comparison.mode,
                level=comparison.ci_level,
                method=comparison.method,
            )
            for values, base in zip(point_values[contrast], baseline_points)
        ]
        results.append(
            ComparisonResult(
                baseline=comparison.baseline,
                contrast=contrast,
                mode=comparison.mode,
                level=comparison.ci_level,
                values=tuple(s.mean for s in summaries),
                stderr=tuple(s.stderr for s in summaries),
                ci=tuple((s.ci.low, s.ci.high) for s in summaries),
                counts=tuple(s.n for s in summaries),
            )
        )
    return tuple(results)


def _fold(
    point_samples: "Sequence[Sequence[Mapping[str, float]]]",
    comparison: "ComparisonSpec | None",
    ci_level: "float | None" = None,
    method: str = "t",
    **fields,
) -> FigureResult:
    """The one aggregation fold behind both public aggregators.

    Collects every series' per-point value lists (series in first-seen
    order), summarises each list — :func:`mean_stderr`, or with a
    ``ci_level`` :func:`point_summary`, whose intervals and counts are
    attached as well — and computes the paired comparisons over the same
    lists. ``fields`` are the remaining :class:`FigureResult` fields.
    """
    collected: "dict[str, list[list[float]]]" = {}
    for group in point_samples:
        point_values: dict[str, list[float]] = {}
        for sample in group:
            for name, value in sample.items():
                point_values.setdefault(name, []).append(float(value))
        for name, values in point_values.items():
            collected.setdefault(name, []).append(values)

    summarise = mean_stderr
    if ci_level is not None:
        summarise = partial(point_summary, level=ci_level, method=method)
    series, errors, ci = {}, {}, {}
    for name, per_point in collected.items():
        stats = [summarise(values) for values in per_point]
        series[name] = tuple(s.mean for s in stats)
        errors[name] = tuple(s.stderr for s in stats)
        if ci_level is not None:
            ci[name] = tuple((s.ci.low, s.ci.high) for s in stats)
    if ci_level is not None:
        fields.update(
            ci=ci,
            counts=tuple(len(group) for group in point_samples),
            ci_level=float(ci_level),
        )
    return FigureResult(
        series=series,
        errors=errors,
        # a 0-point partial (shard mode) has no series to resolve against
        comparisons=(
            compute_comparisons(collected, comparison)
            if comparison is not None and collected
            else ()
        ),
        **fields,
    )


def aggregate_samples(
    figure: str,
    title: str,
    x_label: str,
    x_values: Sequence,
    samples: Sequence[Mapping[str, float]],
    runs: int,
    notes: str = "",
    comparison: "ComparisonSpec | None" = None,
) -> FigureResult:
    """Fold flat per-replicate samples into a :class:`FigureResult`.

    ``samples`` is in task order (``runs`` consecutive entries per point,
    points in ``x_values`` order) — the exact list a backend returns for
    :func:`spawn_tasks`'s tasks. Aggregation is pure arithmetic over the
    sample floats, so samples that round-tripped through a JSON point cache
    aggregate bit-identically to freshly computed ones. ``comparison``
    additionally attaches paired contrast-vs-baseline payloads (see
    :func:`compute_comparisons`) without touching the marginal series.
    """
    x_values = list(x_values)
    if len(samples) != len(x_values) * runs:
        raise ValueError(
            f"{len(samples)} samples for {len(x_values)} points x {runs} runs"
        )
    return _fold(
        [samples[i * runs : (i + 1) * runs] for i in range(len(x_values))],
        comparison, figure=figure, title=title, x_label=x_label,
        x_values=tuple(x_values), notes=notes,
    )


def aggregate_point_summaries(
    figure: str,
    title: str,
    x_label: str,
    x_values: Sequence,
    point_samples: "Sequence[Sequence[Mapping[str, float]]]",
    ci_level: float,
    method: str = "t",
    notes: str = "",
    comparison: "ComparisonSpec | None" = None,
) -> FigureResult:
    """Fold *ragged* per-point samples into a CI-annotated :class:`FigureResult`.

    ``point_samples[i]`` holds point ``i``'s replicate sample mappings —
    lengths may differ across points (adaptive replication). Means and
    standard errors use the same arithmetic as :func:`aggregate_samples`,
    so a uniform-count input aggregates to identical series; on top of
    that every series gets per-point ``(low, high)`` confidence bounds at
    ``ci_level`` and the result records per-point replicate counts.
    ``comparison`` attaches paired payloads exactly as in
    :func:`aggregate_samples`.
    """
    x_values = list(x_values)
    if len(point_samples) != len(x_values):
        raise ValueError(
            f"{len(point_samples)} sample groups for {len(x_values)} points"
        )
    groups = [list(group) for group in point_samples]
    for x, group in zip(x_values, groups):
        if not group:
            raise ValueError(f"sweep point {x!r} has no samples")
    return _fold(
        groups, comparison, ci_level=ci_level, method=method, figure=figure,
        title=title, x_label=x_label, x_values=tuple(x_values), notes=notes,
    )
