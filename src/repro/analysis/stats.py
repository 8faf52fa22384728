"""Summary statistics for multi-run experiments.

Every figure of §V averages over 5-10 independent runs; these helpers keep
that aggregation in one place:

* :func:`mean_stderr` — mean and standard error of the mean,
* :func:`confidence_interval` — a t-based (default) or BCa-bootstrap
  confidence interval for the mean,
* :func:`point_summary` / :class:`PointSummary` — the full per-sweep-point
  summary (mean, stderr, CI, n) that adaptive replication and the error-bar
  rendering consume,
* :func:`paired_summary` / :class:`ComparisonSummary` — *paired* policy
  comparison statistics over per-replicate differences or ratios (the
  interval of either is ``paired_summary(..., mode=...).ci``). Because
  policies sharing a sweep point run on common random numbers (one trace
  per replicate), the difference cancels the trace-to-trace noise both
  policies share, and the paired CI is typically far tighter than either
  marginal one — the classic CRN variance reduction,
* :func:`comparison_matrix` / :class:`ComparisonMatrix` — every-vs-every
  paired comparisons of several aligned series at one sweep point, the
  multi-baseline generalisation of a single :func:`paired_summary`.

All estimators reject non-finite samples with a clear :class:`ValueError`
rather than propagating ``nan`` into figures, and are deterministic: the
bootstrap draws from a fixed-seed generator and resamples the *sorted*
sample vector, so the interval is invariant under permutations of the
input samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "CI_METHODS",
    "COMPARISON_MODES",
    "ComparisonMatrix",
    "ComparisonSummary",
    "ConfidenceInterval",
    "MeanStderr",
    "PointSummary",
    "comparison_matrix",
    "confidence_interval",
    "mean_stderr",
    "paired_summary",
    "point_summary",
    "t_critical",
]

#: Interval methods accepted by :func:`confidence_interval`.
CI_METHODS = ("t", "bootstrap")

#: Paired-comparison modes: per-replicate differences or ratios. The single
#: source of truth for :func:`paired_summary`, the spec layer's
#: ``ComparisonSpec`` and the CLI's ``--compare-mode``.
COMPARISON_MODES = ("diff", "ratio")

#: Default resample count of the BCa bootstrap.
DEFAULT_BOOTSTRAP_SAMPLES = 2000


@dataclass(frozen=True)
class MeanStderr:
    """A sample mean with its standard error."""

    mean: float
    stderr: float
    n: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.1f} ± {self.stderr:.1f}"


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval for a mean.

    ``level`` is the nominal coverage (0.95 = 95%); ``level = 0`` denotes
    the degenerate interval collapsing to the point estimate.
    """

    low: float
    high: float
    level: float
    method: str = "t"

    def __post_init__(self) -> None:
        if not 0.0 <= self.level < 1.0:
            raise ValueError(
                f"confidence level must be in [0, 1), got {self.level}"
            )
        if self.method not in CI_METHODS:
            raise ValueError(
                f"unknown CI method {self.method!r}; expected one of {CI_METHODS}"
            )
        if self.low > self.high:
            raise ValueError(f"inverted interval [{self.low}, {self.high}]")

    @property
    def halfwidth(self) -> float:
        """Half the interval width — the ± of an error bar."""
        return (self.high - self.low) / 2.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.low:.2f}, {self.high:.2f}] @ {self.level:.0%}"


@dataclass(frozen=True)
class PointSummary:
    """Everything a figure needs to know about one sweep point's samples.

    The adaptive replication loop decides from this whether a point needs
    more replicates; the reporting/plotting layers render ``mean ± ci``
    and the per-point ``n``.
    """

    mean: float
    stderr: float
    n: int
    ci: ConfidenceInterval

    @property
    def halfwidth(self) -> float:
        """The CI halfwidth (0 for degenerate intervals)."""
        return self.ci.halfwidth

    def relative_halfwidth(self) -> float:
        """Halfwidth as a fraction of ``|mean|`` (``inf`` for a zero mean)."""
        if self.mean == 0.0:
            return math.inf if self.halfwidth > 0 else 0.0
        return self.halfwidth / abs(self.mean)

    def meets(self, target_halfwidth: float, relative: bool = False) -> bool:
        """Does the CI meet an absolute (or relative) halfwidth target?

        A single sample never meets a positive target: with ``n = 1`` the
        stderr (hence the halfwidth) is identically zero, which says
        nothing about the estimator's precision.
        """
        if target_halfwidth < 0:
            raise ValueError(f"target halfwidth must be >= 0, got {target_halfwidth}")
        if self.n < 2 and target_halfwidth > 0:
            return False
        width = self.relative_halfwidth() if relative else self.halfwidth
        return width <= target_halfwidth

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.1f} ± {self.halfwidth:.1f} (n={self.n})"


@dataclass(frozen=True)
class ComparisonSummary:
    """One sweep point's paired comparison of a contrast against a baseline.

    Depending on :attr:`mode` the statistic is the mean per-replicate
    *difference* ``contrast - baseline`` (null value 0: equal cost) or the
    mean per-replicate *ratio* ``contrast / baseline`` (null value 1). The
    interval is computed over the paired per-replicate values, so shared
    randomness between the two series — policies evaluated on one common
    trace per replicate — cancels out of the spread.
    """

    mode: str
    mean: float
    stderr: float
    n: int
    ci: ConfidenceInterval

    def __post_init__(self) -> None:
        if self.mode not in COMPARISON_MODES:
            raise ValueError(
                f"unknown comparison mode {self.mode!r}; expected one of "
                f"{COMPARISON_MODES}"
            )

    @property
    def null(self) -> float:
        """The no-difference value: 0 for differences, 1 for ratios."""
        return 0.0 if self.mode == "diff" else 1.0

    @property
    def halfwidth(self) -> float:
        """The CI halfwidth (0 for degenerate intervals)."""
        return self.ci.halfwidth

    def relative_halfwidth(self) -> float:
        """Halfwidth as a fraction of ``|mean|`` (``inf`` for a zero mean)."""
        if self.mean == 0.0:
            return math.inf if self.halfwidth > 0 else 0.0
        return self.halfwidth / abs(self.mean)

    def meets(self, target_halfwidth: float, relative: bool = False) -> bool:
        """Does the paired CI meet an absolute (or relative) halfwidth target?

        Mirrors :meth:`PointSummary.meets`: a single pair never meets a
        positive target, its zero halfwidth being vacuous.
        """
        if target_halfwidth < 0:
            raise ValueError(f"target halfwidth must be >= 0, got {target_halfwidth}")
        if self.n < 2 and target_halfwidth > 0:
            return False
        width = self.relative_halfwidth() if relative else self.halfwidth
        return width <= target_halfwidth

    @property
    def decisive(self) -> bool:
        """Whether the CI excludes the null — the ordering is settled."""
        return self.ci.low > self.null or self.ci.high < self.null

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        symbol = "Δ" if self.mode == "diff" else "×"
        return f"{symbol}{self.mean:.3g} ± {self.halfwidth:.3g} (n={self.n})"


def _finite_array(values: Sequence[float], what: str) -> np.ndarray:
    """``values`` as a float array, rejecting NaN/inf with a clear error."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size and not np.isfinite(arr).all():
        bad = arr[~np.isfinite(arr)][0]
        raise ValueError(
            f"{what} requires finite samples, got {bad!r}; non-finite "
            "replicate output indicates a corrupt cache entry or a broken "
            "metric and must not average silently into a figure"
        )
    return arr


def mean_stderr(values: Sequence[float]) -> MeanStderr:
    """Mean and standard error of the mean (ddof=1; stderr 0 for n < 2).

    Raises :class:`ValueError` for an empty sequence and for non-finite
    samples — a ``nan`` replicate must fail loudly, not propagate into
    averaged series.
    """
    arr = _finite_array(values, "mean_stderr")
    if arr.size == 0:
        raise ValueError("mean_stderr needs at least one value")
    if arr.size == 1:
        return MeanStderr(float(arr[0]), 0.0, 1)
    return MeanStderr(
        float(arr.mean()),
        float(arr.std(ddof=1) / math.sqrt(arr.size)),
        int(arr.size),
    )


def t_critical(level: float, dof: int) -> float:
    """The two-sided Student-t critical value at confidence ``level``.

    ``t_critical(0.95, n - 1)`` is the multiplier turning a standard error
    into a 95% CI halfwidth. ``level = 0`` returns 0 (degenerate interval).
    """
    if not 0.0 <= level < 1.0:
        raise ValueError(f"confidence level must be in [0, 1), got {level}")
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    if level == 0.0:
        return 0.0
    # scipy.special, not scipy.stats: the same quantile bit for bit
    # (``t.ppf`` calls ``stdtrit``), without importing scipy.stats.
    from scipy.special import stdtrit

    return float(stdtrit(dof, 0.5 + level / 2.0))


def _t_interval(arr: np.ndarray, level: float) -> ConfidenceInterval:
    stat = mean_stderr(arr)
    if stat.n < 2 or level == 0.0:
        return ConfidenceInterval(stat.mean, stat.mean, level, "t")
    halfwidth = t_critical(level, stat.n - 1) * stat.stderr
    return ConfidenceInterval(
        stat.mean - halfwidth, stat.mean + halfwidth, level, "t"
    )


def _bootstrap_interval(
    arr: np.ndarray,
    level: float,
    n_boot: int,
    seed: int,
) -> ConfidenceInterval:
    """The BCa (bias-corrected and accelerated) bootstrap interval.

    Resamples the *sorted* samples from a fixed-seed generator, so the
    interval depends only on the multiset of samples (permutation
    invariance) and is reproducible. Degenerates gracefully: constant
    samples or ``level = 0`` collapse to the point estimate.
    """
    # Mean of the *sorted* samples: np.mean's pairwise summation is order-
    # sensitive at ULP level, and the bias-correction term compares
    # bootstrap means against this value — summing in sorted order is what
    # actually delivers the documented permutation invariance.
    ordered = np.sort(arr)
    mean = float(ordered.mean())
    if level == 0.0 or arr.size < 2 or float(arr.std()) == 0.0:
        return ConfidenceInterval(mean, mean, level, "bootstrap")
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, ordered.size, size=(n_boot, ordered.size))
    boot_means = ordered[indices].mean(axis=1)

    # ndtri/ndtr are what norm.ppf/norm.cdf call, bit for bit.
    from scipy.special import ndtr, ndtri

    # Bias correction: the normal quantile of the fraction of bootstrap
    # means below the observed mean.
    below = float(np.mean(boot_means < mean))
    below = min(max(below, 1.0 / (n_boot + 1)), 1.0 - 1.0 / (n_boot + 1))
    z0 = float(ndtri(below))
    # Acceleration from the jackknife skewness of the mean.
    jackknife = (ordered.sum() - ordered) / (ordered.size - 1)
    centered = jackknife.mean() - jackknife
    denom = float((centered**2).sum()) ** 1.5
    accel = float((centered**3).sum()) / (6.0 * denom) if denom > 0 else 0.0

    z = float(ndtri(0.5 + level / 2.0))
    quantiles = []
    for z_alpha in (-z, z):
        adjusted = z0 + (z0 + z_alpha) / (1.0 - accel * (z0 + z_alpha))
        quantiles.append(float(ndtr(adjusted)))
    low, high = np.quantile(boot_means, sorted(quantiles))
    return ConfidenceInterval(float(low), float(high), level, "bootstrap")


def confidence_interval(
    values: Sequence[float],
    level: float = 0.95,
    method: str = "t",
    n_boot: int = DEFAULT_BOOTSTRAP_SAMPLES,
    seed: int = 0,
) -> ConfidenceInterval:
    """A two-sided confidence interval for the mean of ``values``.

    Args:
        values: the samples (at least one; all finite).
        level: nominal coverage in ``[0, 1)``; 0 collapses the interval to
            the point estimate (useful as an "off" switch in sweeps).
        method: ``"t"`` for the Student-t interval (exact under normality,
            the paper-standard choice for 5-10 replicates) or
            ``"bootstrap"`` for the BCa bootstrap (skew-robust, no
            distributional assumption).
        n_boot: bootstrap resample count (ignored for ``"t"``).
        seed: bootstrap generator seed (ignored for ``"t"``). The samples
            are sorted before resampling, so equal multisets yield equal
            intervals regardless of order.

    The t interval always contains the sample mean; with one sample either
    method returns the degenerate interval at that sample.
    """
    if method not in CI_METHODS:
        raise ValueError(
            f"unknown CI method {method!r}; expected one of {CI_METHODS}"
        )
    if not 0.0 <= level < 1.0:
        raise ValueError(f"confidence level must be in [0, 1), got {level}")
    arr = _finite_array(values, "confidence_interval")
    if arr.size == 0:
        raise ValueError("confidence_interval needs at least one value")
    if n_boot < 1:
        raise ValueError(f"n_boot must be >= 1, got {n_boot}")
    if method == "t":
        return _t_interval(arr, level)
    return _bootstrap_interval(arr, level, n_boot, seed)


def point_summary(
    values: Sequence[float],
    level: float = 0.95,
    method: str = "t",
    n_boot: int = DEFAULT_BOOTSTRAP_SAMPLES,
    seed: int = 0,
) -> PointSummary:
    """The full :class:`PointSummary` of one sweep point's samples."""
    stat = mean_stderr(values)
    ci = confidence_interval(
        values, level=level, method=method, n_boot=n_boot, seed=seed
    )
    return PointSummary(mean=stat.mean, stderr=stat.stderr, n=stat.n, ci=ci)


def _paired_values(
    contrast: Sequence[float], baseline: Sequence[float], mode: str
) -> np.ndarray:
    """The per-replicate paired statistic (difference or ratio).

    Pairing is positional: replicate ``i`` of ``contrast`` is compared to
    replicate ``i`` of ``baseline`` — the two series must come from the
    same replicates (common random numbers), so misaligned lengths are a
    caller bug, not something to truncate silently. An empty paired set
    (n = 0 after alignment) is rejected with a clear error rather than
    propagating ``nan`` into comparison columns.
    """
    if mode not in COMPARISON_MODES:
        raise ValueError(
            f"unknown comparison mode {mode!r}; expected one of "
            f"{COMPARISON_MODES}"
        )
    a = _finite_array(contrast, "paired_summary")
    b = _finite_array(baseline, "paired_summary")
    if a.size != b.size:
        raise ValueError(
            f"paired_summary needs aligned replicates: got {a.size} "
            f"contrast vs {b.size} baseline samples; paired comparisons "
            "require both series from the same replicates (common random "
            "numbers)"
        )
    if a.size == 0:
        raise ValueError(
            "paired_summary needs at least one aligned pair of samples; an "
            "empty paired sample set (n=0 after alignment) has no comparison "
            "to estimate"
        )
    if mode == "diff":
        return a - b
    if np.any(b == 0.0):
        raise ValueError(
            "paired_summary cannot form ratios against a zero baseline "
            "sample; use mode='diff' for baselines that may reach zero"
        )
    return a / b


def paired_summary(
    contrast: Sequence[float],
    baseline: Sequence[float],
    mode: str = "diff",
    level: float = 0.95,
    method: str = "t",
    n_boot: int = DEFAULT_BOOTSTRAP_SAMPLES,
    seed: int = 0,
) -> ComparisonSummary:
    """The full :class:`ComparisonSummary` of one paired comparison.

    Its ``ci`` is :func:`confidence_interval` over the per-replicate
    differences (``mode="diff"``) or ratios (``mode="ratio"``), so it
    inherits that function's determinism and its invariance under
    permutations of the *pairs* (replicate ``i`` always pairs with
    replicate ``i``). An interval excluding the null (0 or 1) settles the
    ordering of the two series; ratio baselines must be non-zero.
    """
    values = _paired_values(contrast, baseline, mode)
    stat = mean_stderr(values)
    ci = confidence_interval(
        values, level=level, method=method, n_boot=n_boot, seed=seed
    )
    return ComparisonSummary(
        mode=mode, mean=stat.mean, stderr=stat.stderr, n=stat.n, ci=ci
    )


@dataclass(frozen=True)
class ComparisonMatrix:
    """Every-vs-every paired comparisons of aligned series at one point.

    Row names are contrasts, column names are baselines: ``cells[i][j]``
    is the :class:`ComparisonSummary` of ``names[i]`` against ``names[j]``
    (``None`` on the diagonal — a series against itself has no spread).
    All pairs share the one set of replicates, so every cell benefits from
    the same common-random-numbers cancellation as a single paired
    comparison; the matrix is the multi-baseline view a single
    ``ComparisonSpec`` (one designated baseline) cannot give.
    """

    mode: str
    level: float
    method: str
    names: "tuple[str, ...]"
    cells: "tuple[tuple[ComparisonSummary | None, ...], ...]"

    def summary(self, contrast: str, baseline: str) -> ComparisonSummary:
        """The cell comparing ``contrast`` against ``baseline``."""
        for name in (contrast, baseline):
            if name not in self.names:
                raise KeyError(
                    f"series {name!r} not in comparison matrix over "
                    f"{list(self.names)}"
                )
        if contrast == baseline:
            raise KeyError(
                f"no self-comparison: contrast and baseline are both "
                f"{contrast!r}"
            )
        return self.cells[self.names.index(contrast)][
            self.names.index(baseline)
        ]


def comparison_matrix(
    samples: "dict[str, Sequence[float]]",
    mode: str = "diff",
    level: float = 0.95,
    method: str = "t",
    n_boot: int = DEFAULT_BOOTSTRAP_SAMPLES,
    seed: int = 0,
) -> ComparisonMatrix:
    """Pair every series against every other at one sweep point.

    ``samples`` maps series name → per-replicate values, aligned
    positionally across series (replicate ``i`` of each series ran on the
    same trace — the common-random-numbers contract every sweep satisfies
    by construction). Order is preserved: rows and columns follow the
    mapping's insertion order. Requires at least two series; misaligned
    replicate counts are rejected by the underlying pairing.
    """
    names = tuple(samples)
    if len(names) < 2:
        raise ValueError(
            "comparison_matrix needs at least two series, got "
            f"{list(names)}"
        )
    cells = tuple(
        tuple(
            None
            if a == b
            else paired_summary(
                samples[a],
                samples[b],
                mode=mode,
                level=level,
                method=method,
                n_boot=n_boot,
                seed=seed,
            )
            for b in names
        )
        for a in names
    )
    return ComparisonMatrix(
        mode=mode, level=level, method=method, names=names, cells=cells
    )
